//! One benchmark run: set up (several times, reporting the median), drive
//! the closed-loop clients untraced, optionally drive them again traced,
//! tear down, and turn the tallies into metrics.

use crate::engine::{self, Client, Entry, Fault, Shared, Tally, Upload};
use crate::plan::{self, Item, Plan, Workload};
use crate::spans::{self, Span, Tracer, ROOT};
use codec::Json;
use fleet::{FleetConfig, FleetServer, Request, Response};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::Store;

/// How long each timed phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    /// Exactly this many items per client (tests).
    Items(u64),
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    pub trace: bool,
    /// Set-ups per run; the median is `setup_s`.
    pub setups: usize,
    /// Scratch root for stores; removed again at the end of the run.
    pub work_dir: PathBuf,
    /// Where the traced run writes its Chrome trace (`None`: not written).
    pub out_dir: Option<PathBuf>,
    pub fault: Fault,
}

/// What a run measured, before it is printed.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub untraced: Phase,
    pub traced: Option<Phase>,
    pub peak_rss_mb: f64,
    pub trace_file: Option<PathBuf>,
}

/// One timed phase across all clients.
pub struct Phase {
    pub tally: Tally,
    pub wall_s: f64,
    pub per_client_ledger: Vec<BTreeMap<String, u64>>,
    pub spans: Vec<Vec<Span>>,
    /// Server `Stats` before and after the phase.
    pub server: (Json, Json),
    /// The benchmark's own store handle's counters, before and after.
    pub local: (Json, Json),
}

struct Rig {
    dir: PathBuf,
    store: Arc<Store>,
    server: FleetServer,
    clients: Vec<Client>,
}

impl Rig {
    fn teardown(self) {
        drop(self.clients);
        self.server.trigger_shutdown();
        self.server.join();
        drop(self.store);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stats(client: &mut Client) -> Result<Json, String> {
    match client.call(&Request::Stats)? {
        Response::Stats { json } => Json::parse(&json).map_err(|e| e.to_string()),
        other => Err(format!("stats: {other:?}")),
    }
}

/// Record and put the `fleet_stored` corpus, and record its uploads.
fn build_corpus(seed: u64, store: &Store) -> Result<Shared, String> {
    let runs = plan::corpus(seed);
    let mut corpus = Vec::with_capacity(runs.len());
    let mut bytes_of = Vec::with_capacity(runs.len());
    for run in &runs {
        let (_, rec, trace) = engine::record(run);
        let bytes = engine::encode(&trace);
        let out = store
            .put_bytes(run.workload, run.seed, &bytes, rec.fingerprint, "")
            .map_err(|e| format!("corpus put: {e}"))?;
        corpus.push(Entry {
            id: out.entry,
            fingerprint: rec.fingerprint,
            state_digest: rec.state_digest,
            final_logical: rec.counters.yield_points,
        });
        bytes_of.push((bytes, rec.fingerprint, rec.state_digest));
    }
    let uploads = plan::uploads(seed, &runs)
        .into_iter()
        .map(|run| {
            let (bytes, fingerprint, state_digest) = match runs.iter().position(|r| *r == run) {
                Some(i) => bytes_of[i].clone(),
                None => {
                    let (_, rec, trace) = engine::record(&run);
                    (engine::encode(&trace), rec.fingerprint, rec.state_digest)
                }
            };
            Upload {
                workload: run.workload,
                seed: run.seed,
                bytes,
                fingerprint,
                state_digest,
            }
        })
        .collect();
    Ok(Shared {
        corpus,
        uploads,
        exact_dedup: false,
    })
}

/// Everything a user pays before the first timed item: store open,
/// corpus recording and puts, server start, connections, and untimed
/// warm-up (one item per stress scenario or one fig1_hot item; for
/// `fleet_stored`, opening every corpus entry once to fill the cache).
fn setup(opts: &Options, k: usize, origin: Instant) -> Result<Rig, String> {
    let dir = opts.work_dir.join(format!(
        "{}-{}-{k}",
        opts.workload.name(),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let started = Store::open(&dir)
        .map_err(|e| e.to_string())
        .and_then(|store| {
            let shared = match opts.workload {
                Workload::FleetStored => build_corpus(opts.seed, &store)?,
                _ => Shared {
                    exact_dedup: true,
                    ..Shared::default()
                },
            };
            let config = FleetConfig {
                store_root: Some(dir.clone()),
                ..FleetConfig::default()
            };
            let server = FleetServer::start("127.0.0.1:0", config)
                .map_err(|e| format!("fleet start: {e}"))?;
            Ok((Arc::new(store), Arc::new(shared), server))
        });
    let (store, shared, server) = match started {
        Ok(v) => v,
        Err(e) => {
            let _ = std::fs::remove_dir_all(&dir);
            return Err(e);
        }
    };
    let mut rig = Rig {
        dir,
        store,
        server,
        clients: Vec::new(),
    };
    match warm_up(&mut rig, opts, shared, origin) {
        Ok(()) => Ok(rig),
        Err(e) => {
            rig.teardown();
            Err(e)
        }
    }
}

/// Connect the clients and run the untimed warm-up items.
fn warm_up(
    rig: &mut Rig,
    opts: &Options,
    shared: Arc<Shared>,
    origin: Instant,
) -> Result<(), String> {
    let addr = rig.server.addr().to_string();
    for id in 0..opts.workload.clients() {
        let store = Arc::clone(&rig.store);
        let client = Client::new(id, store, &addr, Arc::clone(&shared), Tracer::new(origin))?;
        rig.clients.push(client);
    }
    let first = &mut rig.clients[0];
    match opts.workload {
        Workload::FleetStored => {
            for e in &shared.corpus {
                first.warm_entry(&e.id)?;
            }
            // one resident fig1_hot replay: its first checkpoints fault in
            // fresh memory, which later sessions reuse
            first.run_item(&Item::Stored {
                entry: plan::corpus_mix_len(),
                seek_permille: 500,
            });
        }
        Workload::PipelineMix | Workload::PipelineHot => {
            let n = match opts.workload {
                Workload::PipelineMix => plan::MIX.len(),
                _ => 1,
            };
            // items of a plan seeded apart from the timed ones
            let warm = Plan::new(opts.workload, opts.seed ^ 0x5741_524d, 0);
            for item in warm.take(n) {
                let Item::Pipeline(mut run) = item else {
                    unreachable!("pipeline workloads plan pipeline items")
                };
                // warm every stage, the fleet session included
                run.serve = Some(500);
                run.check_get = true;
                first.run_item(&Item::Pipeline(run));
            }
        }
    }
    let warm_tally = first.take_tally();
    if warm_tally.failed > 0 {
        return Err(format!("warm-up failed: {:?}", warm_tally.errors));
    }
    for c in rig.clients.iter_mut() {
        c.fault = opts.fault;
    }
    Ok(())
}

fn drive(
    rig: &mut Rig,
    opts: &Options,
    traced: bool,
    seconds: f64,
    phase_no: u64,
) -> Result<Phase, String> {
    let before = stats(&mut rig.clients[0])?;
    let local_before = rig.store.counters_json();
    for c in rig.clients.iter_mut() {
        c.tracer.spans.clear();
        c.tracer.set_on(traced);
    }
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let budget = opts.budget;
    let (workload, seed) = (opts.workload, opts.seed);
    std::thread::scope(|s| {
        for c in rig.clients.iter_mut() {
            s.spawn(move || {
                let plan_seed = seed.wrapping_add(phase_no.wrapping_mul(0x1000_0000_0001));
                let mut plan = Plan::new(workload, plan_seed, c.id);
                let mut n = 0u64;
                loop {
                    let more = match budget {
                        Budget::Seconds(_) => Instant::now() < deadline,
                        Budget::Items(k) => n < k,
                    };
                    if !more {
                        break;
                    }
                    let item = plan.next().expect("plans are endless");
                    c.run_item(&item);
                    n += 1;
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    let mut per_client_ledger = Vec::new();
    let mut spans = Vec::new();
    for c in rig.clients.iter_mut() {
        c.tracer.set_on(false);
        let t = c.take_tally();
        tally.merge(&t);
        per_client_ledger.push(t.ledger);
        spans.push(std::mem::take(&mut c.tracer.spans));
    }
    let after = stats(&mut rig.clients[0])?;
    Ok(Phase {
        tally,
        wall_s,
        per_client_ledger,
        spans,
        server: (before, after),
        local: (local_before, rig.store.counters_json()),
    })
}

/// Restart the peak-resident-set count, so that `peak_rss_mb` covers the
/// timed phases only and not what earlier set-ups left in the allocator.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let origin = Instant::now();
    let mut setup_s = Vec::new();
    let mut rig = None;
    for k in 0..opts.setups.max(1) {
        if let Some(old) = rig.take() {
            Rig::teardown(old);
        }
        let t0 = Instant::now();
        rig = Some(setup(opts, k, origin)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    reset_peak_rss();
    let half = |s: f64| if opts.trace { s / 2.0 } else { s };
    let seconds = match opts.budget {
        Budget::Seconds(s) => half(s),
        Budget::Items(_) => 0.0,
    };
    let result = (|| {
        let untraced = drive(&mut rig, opts, false, seconds, 0)?;
        let traced = if opts.trace {
            Some(drive(&mut rig, opts, true, seconds, 1)?)
        } else {
            None
        };
        Ok::<_, String>((untraced, traced))
    })();
    rig.teardown();
    let (untraced, traced) = result?;
    let trace_file = match (&traced, &opts.out_dir) {
        (Some(p), Some(dir)) => Some(write_trace(dir, opts, &p.spans)?),
        _ => None,
    };
    Ok(Outcome {
        setup_s,
        untraced,
        traced,
        peak_rss_mb: peak_rss_mb(),
        trace_file,
    })
}

fn write_trace(dir: &Path, opts: &Options, spans: &[Vec<Span>]) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{}-seed{}.trace.json",
        opts.workload.name(),
        opts.seed
    ));
    std::fs::write(&path, spans::chrome_trace(spans).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Nearest-rank quantile of unsorted samples (`q` in 0..=1).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(name, unit, value)` for every end-to-end metric. Tails are p90, for
/// seeks and fleet sessions only: see `README.md` for why.
pub fn end_to_end(o: &Outcome) -> Vec<(&'static str, &'static str, f64)> {
    let p = &o.untraced;
    let s = |k: &str| p.tally.samples.get(k).map_or(&[][..], |v| &v[..]);
    vec![
        ("setup_s", "s", median(&o.setup_s)),
        ("record_p50_ms", "ms", median(s("record"))),
        ("replay_p50_ms", "ms", median(s("replay"))),
        ("seek_p50_ms", "ms", median(s("seek"))),
        ("seek_p90_ms", "ms", quantile(s("seek"), 0.9)),
        ("open_p50_ms", "ms", median(s("open"))),
        ("runs_per_s", "1/s", p.tally.pipelines as f64 / p.wall_s),
        ("fleet_session_p50_ms", "ms", median(s("session"))),
        ("fleet_session_p90_ms", "ms", quantile(s("session"), 0.9)),
        (
            "fleet_sessions_per_s",
            "1/s",
            p.tally.sessions as f64 / p.wall_s,
        ),
    ]
}

/// The fleet RPCs whose client and server time are reported.
pub const FLEET_OPS: [&str; 6] = ["open_stored", "open", "ingest", "replay", "seek", "close"];

/// Layers the benchmark opens spans for, below the root `bench` span.
pub const LAYERS: [&str; 5] = ["djvm", "blocktrace", "store", "timetravel", "fleet"];

fn hist(stats: &Json, key: &str) -> (f64, f64) {
    stats
        .get("rpc")
        .and_then(|r| r.get("histograms"))
        .and_then(|h| h.get(key))
        .map_or((0.0, 0.0), |h| {
            let f = |k| h.get(k).and_then(|v| v.as_u64().ok()).unwrap_or(0) as f64;
            (f("sum"), f("count"))
        })
}

/// A counter of a store's `counters_json`.
fn counter(registry: Option<&Json>, key: &str) -> f64 {
    registry
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(key))
        .and_then(|v| v.as_u64().ok())
        .unwrap_or(0) as f64
}

fn resident_peak(stats: &Json) -> f64 {
    stats
        .get("sessions")
        .and_then(|s| s.get("peak"))
        .and_then(|v| v.as_u64().ok())
        .unwrap_or(0) as f64
}

/// `(name, unit, value)` for every per-layer metric, from the traced
/// phase: times are means per call, counts are means per call of the
/// layer (per item for store and fleet counters, which come from `Stats`
/// deltas).
pub fn per_layer(o: &Outcome) -> Vec<(String, &'static str, f64)> {
    let p = o
        .traced
        .as_ref()
        .expect("per-layer metrics need the traced phase");
    let a = &p.tally.acc;
    let items = p.tally.items.max(1) as f64;
    let mut m: Vec<(String, &'static str, f64)> = Vec::new();
    let mut put = |k: &str, unit: &'static str, v: f64| m.push((k.to_string(), unit, v));

    let wall = a.sum("djvm.wall_ms");
    put("djvm.record_run_ms", "ms", a.mean("djvm.record_run_ms"));
    put("djvm.replay_run_ms", "ms", a.mean("djvm.replay_run_ms"));
    put("djvm.fixed_ms", "ms", a.mean("djvm.fixed_ms"));
    put("djvm.steps", "count", a.mean("djvm.steps"));
    put(
        "djvm.msteps_per_s",
        "Msteps/s",
        if wall > 0.0 {
            a.sum("djvm.steps") / wall / 1e3
        } else {
            0.0
        },
    );
    put("djvm.mega_iters", "count", a.mean("djvm.mega_iters"));
    put(
        "djvm.mega_closed_iters",
        "count",
        a.mean("djvm.mega_closed_iters"),
    );
    put("djvm.mega_deopts", "count", a.mean("djvm.mega_deopts"));
    let rec_wall = a.sum("dejavu.record_wall_ms");
    put("dejavu.events", "count", a.mean("dejavu.events"));
    put(
        "dejavu.events_per_ms",
        "1/ms",
        if rec_wall > 0.0 {
            a.sum("dejavu.events") / rec_wall
        } else {
            0.0
        },
    );
    put("blocktrace.encode_ms", "ms", a.mean("blocktrace.encode_ms"));
    put("blocktrace.decode_ms", "ms", a.mean("blocktrace.decode_ms"));
    put(
        "blocktrace.raw_bytes",
        "bytes",
        a.mean("blocktrace.raw_bytes"),
    );
    put(
        "blocktrace.coded_bytes",
        "bytes",
        a.mean("blocktrace.coded_bytes"),
    );
    let encodes = a.count("blocktrace.encode_ms").max(1) as f64;
    for method in ["range", "lz77", "stored"] {
        let k = format!("blocktrace.blocks_{method}");
        put(&k, "count", a.count(&k) as f64 / encodes);
    }

    // the benchmark and the server share one store directory through
    // two handles: count both
    let (s0, s1) = &p.server;
    let (l0, l1) = &p.local;
    let delta = |k: &str| {
        counter(s1.get("store"), k) - counter(s0.get("store"), k) + counter(Some(l1), k)
            - counter(Some(l0), k)
    };
    put("store.put_ms", "ms", a.mean("store.put_ms"));
    put("store.open_ms", "ms", a.mean("store.open_ms"));
    put("store.blocks_new", "count", a.mean("store.blocks_new"));
    put(
        "store.blocks_deduped",
        "count",
        a.mean("store.blocks_deduped"),
    );
    put(
        "store.bytes_written",
        "bytes",
        delta("store.bytes_written") / items,
    );
    put(
        "store.bytes_read",
        "bytes",
        delta("store.bytes_read") / items,
    );
    put(
        "store.cache_hits",
        "count",
        delta("store.checkpoint_hits") / items,
    );
    put(
        "store.cache_misses",
        "count",
        delta("store.checkpoint_misses") / items,
    );

    put("timetravel.seek_ms", "ms", a.mean("timetravel.seek_ms"));
    put(
        "timetravel.events_replayed",
        "count",
        a.mean("timetravel.events_replayed"),
    );
    put(
        "timetravel.steps_replayed",
        "count",
        a.mean("timetravel.steps_replayed"),
    );
    put(
        "timetravel.checkpoint_bytes",
        "bytes",
        a.mean("timetravel.checkpoint_bytes"),
    );

    let (mut client_total, mut server_total) = (0.0, 0.0);
    for op in FLEET_OPS {
        let ck = format!("fleet.{op}.client_ms");
        let (sum1, n1) = hist(s1, &format!("rpc.{op}"));
        let (sum0, n0) = hist(s0, &format!("rpc.{op}"));
        let (ns, n) = (sum1 - sum0, n1 - n0);
        client_total += a.sum(&ck);
        server_total += ns / 1e6;
        put(&ck, "ms", a.mean(&ck));
        put(
            &format!("fleet.{op}.server_ms"),
            "ms",
            if n > 0.0 { ns / n / 1e6 } else { 0.0 },
        );
    }
    let requests = a.sum("fleet.requests");
    put(
        "fleet.wire_queue_ms",
        "ms",
        if requests > 0.0 {
            (client_total - server_total) / requests
        } else {
            0.0
        },
    );
    put("fleet.requests", "count", requests / items);
    put("fleet.resident_peak", "count", resident_peak(s1));
    put("process.peak_rss_mb", "MiB", o.peak_rss_mb);

    // self time per item, by layer; the root's self time is unattributed
    let mut selftime = BTreeMap::new();
    for spans in &p.spans {
        for (layer, ns) in spans::self_time_ns(spans) {
            *selftime.entry(layer).or_insert(0u64) += ns;
        }
    }
    let total: u64 = selftime.values().sum();
    for layer in LAYERS {
        let ns = selftime.get(layer).copied().unwrap_or(0);
        put(
            &format!("selftime.{layer}_ms"),
            "ms",
            ns as f64 / 1e6 / items,
        );
    }
    let un = selftime.get(ROOT).copied().unwrap_or(0) as f64;
    put("trace.unattributed_ms", "ms", un / 1e6 / items);
    put(
        "trace.unattributed_pct",
        "%",
        if total > 0 {
            100.0 * un / total as f64
        } else {
            0.0
        },
    );
    let rate = |ph: &Phase| ph.tally.items as f64 / ph.wall_s;
    put(
        "trace.overhead_pct",
        "%",
        100.0 * (rate(&o.untraced) / rate(p) - 1.0),
    );
    m
}
