//! The timed operations. Each client drives one layer call at a time,
//! times it, checks its output, and counts a failed check, a typed error
//! or a refusal against the operation's attempt. Per-layer work and time
//! go into an [`Acc`]; deterministic counts for the first
//! [`LEDGER_ITEMS`] items go into the exact work ledger.

use crate::plan::{Item, Run};
use crate::spans::{Tracer, ROOT};
use baselines::TimeTravel;
use dejavu::{
    encode_trace, record_run, replay_run, BlockFile, ExecSpec, RunReport, SymmetryConfig, Trace,
    TraceFormat, DEFAULT_BLOCK_BUDGET,
};
use djvm::{Vm, VmStatus};
use fleet::{FleetClient, Request, Response};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use store::Store;

/// Items per client whose counts form the exact work ledger.
pub const LEDGER_ITEMS: u64 = 6;

/// Sums and counts of named per-layer quantities.
#[derive(Debug, Clone, Default)]
pub struct Acc(pub BTreeMap<String, (f64, u64)>);

impl Acc {
    pub fn add(&mut self, key: &str, v: f64) {
        let e = self.0.entry(key.to_string()).or_insert((0.0, 0));
        e.0 += v;
        e.1 += 1;
    }

    pub fn sum(&self, key: &str) -> f64 {
        self.0.get(key).map_or(0.0, |e| e.0)
    }

    pub fn count(&self, key: &str) -> u64 {
        self.0.get(key).map_or(0, |e| e.1)
    }

    pub fn mean(&self, key: &str) -> f64 {
        match self.0.get(key) {
            Some(&(s, n)) if n > 0 => s / n as f64,
            _ => 0.0,
        }
    }

    pub fn merge(&mut self, other: &Acc) {
        for (k, &(s, n)) in &other.0 {
            let e = self.0.entry(k.clone()).or_insert((0.0, 0));
            e.0 += s;
            e.1 += n;
        }
    }
}

/// Everything one client measured in one phase.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Latency samples (ms) per end-to-end operation.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub items: u64,
    pub pipelines: u64,
    pub sessions: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub acc: Acc,
    /// This client's exact work ledger (not merged across clients).
    pub ledger: BTreeMap<String, u64>,
}

impl Tally {
    pub fn merge(&mut self, o: &Tally) {
        for (k, v) in &o.samples {
            self.samples.entry(k).or_default().extend_from_slice(v);
        }
        self.items += o.items;
        self.pipelines += o.pipelines;
        self.sessions += o.sessions;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.errors.extend(o.errors.iter().cloned());
        self.acc.merge(&o.acc);
    }
}

/// A corpus entry a stored session opens.
#[derive(Debug, Clone)]
pub struct Entry {
    pub id: String,
    pub fingerprint: u64,
    pub state_digest: u64,
    /// Logical time (yield points) at the end of the run.
    pub final_logical: u64,
}

/// A pre-recorded trace an upload session sends.
#[derive(Debug, Clone)]
pub struct Upload {
    pub workload: &'static str,
    pub seed: u64,
    pub bytes: Vec<u8>,
    pub fingerprint: u64,
    pub state_digest: u64,
}

/// Data every client of one run shares read-only.
#[derive(Debug, Default)]
pub struct Shared {
    pub corpus: Vec<Entry>,
    pub uploads: Vec<Upload>,
    /// Whether block dedup counts are deterministic (one client).
    pub exact_dedup: bool,
}

/// Test hooks that show the output checks are live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Damage the encoded trace before it is decoded and stored.
    CorruptTrace,
    /// Expect the wrong fingerprint from every fleet replay.
    WrongFingerprint,
}

pub fn workload(name: &str) -> workloads::Workload {
    workloads::registry()
        .into_iter()
        .find(|w| w.name == name)
        .unwrap_or_else(|| panic!("no workload {name}"))
}

/// A replay VM for `spec`, as the corpus seek probe boots it.
pub fn replay_vm(spec: &ExecSpec) -> Vm {
    Vm::boot(
        Arc::clone(&spec.program),
        spec.vm.clone(),
        Box::new(djvm::JitteredTimer::new(
            spec.seed,
            spec.timer_base,
            spec.timer_jitter,
        )),
        Box::new(djvm::CycleClock::new(spec.clock_origin, spec.cycles_per_ms)),
    )
    .expect("registry workloads boot")
}

/// Record `run` on the default configuration: Full fingerprints,
/// quickened dispatch with megablocks, the fleet/corpus timer settings.
pub fn record(run: &Run) -> (ExecSpec, RunReport, Trace) {
    let w = workload(run.workload);
    let spec = fleet::spec_for(&w, run.seed);
    let (rep, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
    (spec, rep, trace)
}

pub fn encode(trace: &Trace) -> Vec<u8> {
    encode_trace(trace, TraceFormat::Block, DEFAULT_BLOCK_BUDGET)
}

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn events(trace: &Trace) -> u64 {
    (trace.switches.len() + trace.data.len()) as u64
}

/// One closed-loop client: its own fleet connection and span recorder.
pub struct Client {
    pub id: usize,
    store: Arc<Store>,
    conn: FleetClient,
    shared: Arc<Shared>,
    pub tracer: Tracer,
    pub tally: Tally,
    item_no: u64,
    pub fault: Fault,
}

type Step<T> = Result<T, String>;

impl Client {
    pub fn new(
        id: usize,
        store: Arc<Store>,
        addr: &str,
        shared: Arc<Shared>,
        tracer: Tracer,
    ) -> Result<Client, String> {
        let conn = FleetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok(Client {
            id,
            store,
            conn,
            shared,
            tracer,
            tally: Tally::default(),
            item_no: 0,
            fault: Fault::None,
        })
    }

    /// Start a new phase: fresh tally, ledger window restarts.
    pub fn take_tally(&mut self) -> Tally {
        self.item_no = 0;
        std::mem::take(&mut self.tally)
    }

    fn ledger(&mut self, key: &str, v: u64) {
        if self.item_no <= LEDGER_ITEMS {
            *self.tally.ledger.entry(key.to_string()).or_insert(0) += v;
        }
    }

    /// Attempt one operation: span, time, count. The closure's `Err` is
    /// a typed error or refusal from the layer.
    fn op<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Client) -> Step<T>,
    ) -> Step<(T, f64)> {
        self.tally.attempted += 1;
        let span = self.tracer.begin(layer, name);
        let t0 = Instant::now();
        let r = f(self);
        let took = ms(t0);
        self.tracer.end(span);
        match r {
            Ok(v) => Ok((v, took)),
            Err(e) => Err(self.fail(format!("{layer}.{name}: {e}"))),
        }
    }

    /// A failed output check, counted against the operation just made.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> Step<()> {
        if ok {
            Ok(())
        } else {
            Err(self.fail(format!("check failed: {}", what())))
        }
    }

    fn fail(&mut self, msg: String) -> String {
        self.tally.failed += 1;
        if self.tally.errors.len() < 8 {
            self.tally.errors.push(msg.clone());
        }
        msg
    }

    fn sample(&mut self, key: &'static str, v: f64) {
        self.tally.samples.entry(key).or_default().push(v);
    }

    /// Run one plan item. Failures are already counted; the item stops
    /// at its first failed operation.
    pub fn run_item(&mut self, item: &Item) {
        self.item_no += 1;
        self.tracer.set_req(((self.id as u64) << 32) | self.item_no);
        let root = self.tracer.begin(ROOT, "item");
        let shared = Arc::clone(&self.shared);
        // a failure is already counted and stops the item
        let _ = match item {
            Item::Pipeline(run) => self.pipeline(run),
            Item::Stored {
                entry,
                seek_permille,
            } => self.stored_session(&shared.corpus[*entry], *seek_permille),
            Item::Upload { upload } => self.upload_session(&shared.uploads[*upload]),
        };
        self.tracer.end(root);
        self.tally.items += 1;
    }

    fn pipeline(&mut self, run: &Run) -> Step<()> {
        // record
        let ((spec, rec, trace), outer) = self.op("djvm", "record_run", |_| Ok(record(run)))?;
        let failed = matches!(rec.status, VmStatus::Error(_));
        self.check(!failed, || {
            format!("{} record status {:?}", run.workload, rec.status)
        })?;
        self.sample("record", outer);
        let wall = rec.wall_time.as_secs_f64() * 1e3;
        self.djvm_counts(&rec, "record_run", wall, outer);
        let ev = events(&trace);
        self.tally.acc.add("dejavu.events", ev as f64);
        self.tally.acc.add("dejavu.record_wall_ms", wall);
        self.ledger("guest_steps", rec.counters.steps);
        self.ledger("trace_events", ev);

        // encode, and decode back as the encoder's output check
        let (mut bytes, took) = self.op("blocktrace", "encode", |_| Ok(encode(&trace)))?;
        self.tally.acc.add("blocktrace.encode_ms", took);
        if self.fault == Fault::CorruptTrace {
            // flip one byte a third of the way in: block data, which
            // the per-block CRC or the decoder must catch
            let at = bytes.len() / 3;
            bytes[at] ^= 0x5a;
        }
        let ((bf, decoded), took) = self.op("blocktrace", "decode", |_| {
            let bf = BlockFile::parse(bytes.clone()).map_err(|e| e.to_string())?;
            let back = bf.to_trace().map_err(|e| e.to_string())?;
            Ok((bf, back))
        })?;
        self.check(decoded == trace, || {
            "decoded trace differs from recorded".into()
        })?;
        self.tally.acc.add("blocktrace.decode_ms", took);
        self.block_counts(&bf)?;

        // put (repeated ingest), then a seeded byte-exact get
        let mut entry = String::new();
        for _ in 0..run.puts {
            let (out, took) = self.op("store", "put", |c| {
                c.store
                    .put_bytes(run.workload, run.seed, &bytes, rec.fingerprint, "")
                    .map_err(|e| e.to_string())
            })?;
            self.check(
                out.blocks_total == bf.index.len() as u64 && out.fingerprint == rec.fingerprint,
                || format!("put outcome {out:?}"),
            )?;
            self.sample("put", took);
            self.tally.acc.add("store.put_ms", took);
            self.tally
                .acc
                .add("store.blocks_new", out.blocks_new as f64);
            let dedup = out.blocks_total - out.blocks_new;
            self.tally.acc.add("store.blocks_deduped", dedup as f64);
            if self.shared.exact_dedup {
                self.ledger("store_blocks_new", out.blocks_new);
                self.ledger("store_blocks_deduped", dedup);
            }
            self.ledger("store_puts", 1);
            entry = out.entry;
        }
        if run.check_get {
            let (got, _) = self.op("store", "get", |c| {
                c.store.get_bytes(&entry).map_err(|e| e.to_string())
            })?;
            self.check(got == bytes, || "get_bytes is not byte-exact".into())?;
            self.ledger("store_gets", 1);
        }

        // the fleet ingest path: upload the same recording (dedups)
        let session = self.open_rpc(run.workload, run.seed)?;
        self.ingest(session, &bytes)?;
        self.close(session)?;

        // open out of the store
        let (stored, took) = self.op("store", "open", |c| {
            c.store.open_trace(&entry).map_err(|e| e.to_string())
        })?;
        self.check(
            stored.trace == trace && stored.boundaries == bf.boundaries(),
            || "open_trace differs from the recording".into(),
        )?;
        self.sample("open", took);
        self.tally.acc.add("store.open_ms", took);

        // replay the stored trace
        let ((rep, desyncs), outer) = self.op("djvm", "replay_run", |_| {
            Ok(replay_run(
                &spec,
                stored.trace.clone(),
                SymmetryConfig::full(),
            ))
        })?;
        self.check(desyncs.is_empty() && rep.matches(&rec), || {
            format!(
                "{} seed {}: replay fp {:x} vs record {:x}, {} desyncs",
                run.workload,
                run.seed,
                rep.fingerprint,
                rec.fingerprint,
                desyncs.len()
            )
        })?;
        self.sample("replay", outer);
        let wall = rep.wall_time.as_secs_f64() * 1e3;
        self.djvm_counts(&rep, "replay_run", wall, outer);

        // time travel: replay to the end on boundary checkpoints, then
        // seek backward to seeded mid-trace logical times
        let final_logical = rec.counters.yield_points;
        let (mut tt, _) = self.op("timetravel", "replay_to_end", |_| {
            let mut tt = TimeTravel::new_indexed(
                replay_vm(&spec),
                stored.trace,
                SymmetryConfig::full(),
                u64::MAX,
                stored.boundaries,
            );
            tt.seek_logical(u64::MAX);
            Ok(tt)
        })?;
        self.check(
            tt.vm().fingerprint.digest() == rec.fingerprint && tt.desyncs().is_empty(),
            || "time-travel replay to the end diverged".into(),
        )?;
        let mut at = final_logical;
        for &permille in &run.seeks {
            let target = final_logical * permille / 1000;
            let (st, took) = self.op("timetravel", "seek", |_| Ok(tt.seek_logical(target)))?;
            self.check(
                st.final_logical == target
                    && tt.desyncs().is_empty()
                    && st.events_replayed <= DEFAULT_BLOCK_BUDGET as u64
                    && (st.restored || target >= at),
                || format!("seek to {target}: {st:?}"),
            )?;
            at = target;
            self.sample("seek", took);
            self.tally.acc.add("timetravel.seek_ms", took);
            self.tally
                .acc
                .add("timetravel.events_replayed", st.events_replayed as f64);
            self.tally
                .acc
                .add("timetravel.steps_replayed", st.steps_replayed as f64);
            self.ledger("seek_events_replayed", st.events_replayed);
            self.ledger("seek_steps_replayed", st.steps_replayed);
        }
        self.tally
            .acc
            .add("timetravel.checkpoint_bytes", tt.storage_bytes() as f64);
        drop(tt);

        if let Some(permille) = run.serve {
            let e = Entry {
                id: entry,
                fingerprint: rec.fingerprint,
                state_digest: rec.state_digest,
                final_logical,
            };
            self.stored_session(&e, permille)?;
        }
        self.tally.pipelines += 1;
        Ok(())
    }

    fn djvm_counts(&mut self, rep: &RunReport, what: &str, wall: f64, outer: f64) {
        let acc = &mut self.tally.acc;
        acc.add(&format!("djvm.{what}_ms"), wall);
        acc.add("djvm.fixed_ms", outer - wall);
        acc.add("djvm.steps", rep.counters.steps as f64);
        acc.add("djvm.wall_ms", wall);
        acc.add("djvm.mega_iters", rep.mega.iters as f64);
        acc.add("djvm.mega_closed_iters", rep.mega.closed_iters as f64);
        acc.add("djvm.mega_deopts", rep.mega.deopts as f64);
    }

    fn block_counts(&mut self, bf: &BlockFile) -> Step<()> {
        let stats = bf.stats();
        self.tally
            .acc
            .add("blocktrace.raw_bytes", stats.payload_raw_bytes as f64);
        self.tally
            .acc
            .add("blocktrace.coded_bytes", stats.payload_comp_bytes as f64);
        for i in 0..bf.index.len() {
            let method = bf
                .block_compressor(i)
                .map_err(|e| self.fail(e.to_string()))?;
            let info = &bf.index[i];
            self.tally
                .acc
                .add(&format!("blocktrace.blocks_{method}"), 1.0);
            self.ledger(&format!("raw_bytes_{method}"), info.raw_len as u64);
            self.ledger(&format!("coded_bytes_{method}"), info.comp_len as u64);
            self.ledger(&format!("blocks_{method}"), 1);
        }
        Ok(())
    }

    /// One fleet round trip, timed as `fleet.<name>.client_ms`.
    fn rpc(&mut self, name: &'static str, req: Request) -> Step<Response> {
        let (resp, took) = self.op("fleet", name, |c| {
            c.conn.call(&req).map_err(|e| e.to_string())
        })?;
        self.tally.acc.add(&format!("fleet.{name}.client_ms"), took);
        self.tally.acc.add("fleet.requests", 1.0);
        self.ledger("rpc_requests", 1);
        if let Response::Error { code, message } = &resp {
            return Err(self.fail(format!("fleet.{name}: error {code}: {message}")));
        }
        Ok(resp)
    }

    fn close(&mut self, session: u64) -> Step<()> {
        match self.rpc("close", Request::Close { session })? {
            Response::Closed { session: s } if s == session => Ok(()),
            other => Err(self.fail(format!("close: {other:?}"))),
        }
    }

    fn replay_rpc(&mut self, session: u64, fp: u64, digest: u64) -> Step<()> {
        let fp = match self.fault {
            Fault::WrongFingerprint => fp ^ 1,
            _ => fp,
        };
        match self.rpc("replay", Request::Replay { session })? {
            Response::Replayed {
                fingerprint,
                state_digest,
                clean,
                ..
            } => self.check(clean && fingerprint == fp && state_digest == digest, || {
                format!("fleet replay fp {fingerprint:x} vs {fp:x}, clean {clean}")
            }),
            other => Err(self.fail(format!("replay: {other:?}"))),
        }
    }

    fn ingest(&mut self, session: u64, bytes: &[u8]) -> Step<()> {
        let chunks: Vec<&[u8]> = bytes.chunks(fleet::client::INGEST_CHUNK).collect();
        let last = chunks.len().saturating_sub(1);
        for (i, chunk) in chunks.into_iter().enumerate() {
            let req = Request::IngestBlocks {
                session,
                chunk: chunk.to_vec(),
                done: i == last,
            };
            match self.rpc("ingest", req)? {
                Response::Ingested { bytes: n, .. } if i < last || n == bytes.len() as u64 => {}
                other => return Err(self.fail(format!("ingest: {other:?}"))),
            }
        }
        self.ledger("uploaded_bytes", bytes.len() as u64);
        Ok(())
    }

    /// `OpenStored → Replay → SeekLogical → Close`.
    fn stored_session(&mut self, e: &Entry, seek_permille: u64) -> Step<()> {
        let t0 = Instant::now();
        let session = match self.rpc(
            "open_stored",
            Request::OpenStored {
                entry: e.id.clone(),
            },
        )? {
            Response::Opened { session } => session,
            other => return Err(self.fail(format!("open_stored: {other:?}"))),
        };
        let r = self.stored_body(session, e, seek_permille);
        if r.is_err() {
            let _ = self.conn.call(&Request::Close { session });
            return r;
        }
        self.close(session)?;
        self.sample("session", ms(t0));
        self.tally.sessions += 1;
        Ok(())
    }

    fn stored_body(&mut self, session: u64, e: &Entry, seek_permille: u64) -> Step<()> {
        self.replay_rpc(session, e.fingerprint, e.state_digest)?;
        let target = e.final_logical * seek_permille / 1000;
        match self.rpc(
            "seek",
            Request::SeekLogical {
                session,
                logical: target,
            },
        )? {
            Response::Sought {
                final_logical,
                steps_replayed,
                ..
            } => {
                self.check(final_logical == target, || {
                    format!("fleet seek to {target} landed at {final_logical}")
                })?;
                self.ledger("fleet_seek_steps_replayed", steps_replayed);
                Ok(())
            }
            other => Err(self.fail(format!("seek: {other:?}"))),
        }
    }

    /// `Open → IngestBlocks → Replay → Close` of a pre-recorded trace.
    fn upload_session(&mut self, u: &Upload) -> Step<()> {
        let t0 = Instant::now();
        let session = self.open_rpc(u.workload, u.seed)?;
        let r = self
            .ingest(session, &u.bytes)
            .and_then(|_| self.replay_rpc(session, u.fingerprint, u.state_digest));
        if r.is_err() {
            let _ = self.conn.call(&Request::Close { session });
            return r;
        }
        self.close(session)?;
        self.sample("session", ms(t0));
        self.tally.sessions += 1;
        Ok(())
    }

    fn open_rpc(&mut self, workload: &str, seed: u64) -> Step<u64> {
        match self.rpc(
            "open",
            Request::Open {
                workload: workload.to_string(),
                seed,
            },
        )? {
            Response::Opened { session } => Ok(session),
            other => Err(self.fail(format!("open: {other:?}"))),
        }
    }

    /// Untimed `OpenStored → Close` of a corpus entry: fills the store's
    /// decoded-block cache during set-up.
    pub fn warm_entry(&mut self, entry: &str) -> Result<(), String> {
        let req = Request::OpenStored {
            entry: entry.to_string(),
        };
        match self.call(&req)? {
            Response::Opened { session } => match self.call(&Request::Close { session })? {
                Response::Closed { .. } => Ok(()),
                other => Err(format!("close: {other:?}")),
            },
            other => Err(format!("open_stored: {other:?}")),
        }
    }

    /// Untimed request on this client's connection (set-up and stats).
    pub fn call(&mut self, req: &Request) -> Result<Response, String> {
        self.conn.call(req).map_err(|e| e.to_string())
    }
}
