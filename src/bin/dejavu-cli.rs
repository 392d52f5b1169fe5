//! dejavu-cli — drive the replay platform from the command line.
//!
//! ```text
//! dejavu-cli list
//! dejavu-cli run <workload> [seed]
//! dejavu-cli record <workload> <seed> <trace-file> [--trace-format flat|block]
//!                                                  [--metrics-out <file>]
//! dejavu-cli replay <workload> <seed> <trace-file> [--metrics-out <file>]
//! dejavu-cli profile <workload> <seed> <trace-file> [--out <dir>]
//!                    [--format chrome|folded|both] [--top <n>]
//! dejavu-cli trace inspect <trace-file>... [--dedup]  # block index, canonical JSON
//! dejavu-cli stats <workload> [seed]             # record+replay metrics JSON
//! dejavu-cli store put <dir> <workload> <seed> <trace-file>
//!                   [--policy <p>] [--no-verify] # ingest (verified by default)
//! dejavu-cli store get <dir> <entry-id> <out>    # byte-exact reconstruction
//! dejavu-cli store ls <dir>                      # catalog summary, one JSON/line
//! dejavu-cli store gc <dir>                      # drop unreferenced blocks
//! dejavu-cli store compact <dir> [--cold <n>]    # heat-driven tier migration
//! dejavu-cli store stats <dir>                   # content-deterministic shape JSON
//! dejavu-cli neutrality <workload> [seed]        # telemetry on == off proof
//! dejavu-cli checkjson <file>                    # validate via crates/codec
//! dejavu-cli check <corpus-dir>                  # replay corpus vs policies
//! dejavu-cli corpus record <corpus-dir>          # (re)record the corpus
//! dejavu-cli dis <workload> [method-name]
//! dejavu-cli serve <workload> <seed> <port>      # debugger tier over TCP
//!                   [--workers <n>]              # concurrent JSON-line clients
//! dejavu-cli fleet-serve <port> [--workers <n>]  # multi-session fleet server
//!                   [--fleet-token <t>] [--port-file <f>] [--store <dir>]
//! dejavu-cli fleet-bench <addr> [workload]       # drive N concurrent sessions
//!                   [--sessions <n>] [--workers <n>]
//! dejavu-cli fleet-shutdown <addr> <token>       # token-gated graceful stop
//! dejavu-cli stats --fleet <addr>                # live fleet metrics JSON
//! ```
//!
//! `fleet-serve` hosts ≥64 concurrent record/replay sessions behind one
//! framed binary RPC endpoint (`crates/fleet`, DESIGN.md §9); `serve` now
//! accepts any number of simultaneous JSON-line clients via the fleet
//! compatibility adapter (same wire format as before). `fleet-bench`
//! exits 2 if any concurrently-hosted fingerprint differs from its
//! single-session ground truth.
//!
//! Traces written by `record` are [`dejavu::Trace::encoded`] (flat, the
//! default) or the block-structured compressed format of
//! [`dejavu::encode_trace`] (`--trace-format block`); `replay` sniffs the
//! format from the magic and accepts either, then verifies accuracy
//! against a fresh record of the same seed. `--metrics-out` writes the
//! run's canonical (sorted-key, timestamp-free, byte-deterministic)
//! metrics JSON — identical bytes whichever trace format was used, which
//! is how the verify script proves the writer is a pure observer.
//!
//! `--no-quicken` (any run-like subcommand) disables the quickened
//! dispatch engine — runs are bit-identical, only slower. `--no-mega`
//! keeps quickening but disables tier-2 megablock execution of hot loops
//! (the `DJVM_NO_MEGA` env var is the same ablation). `dis --quick`
//! prints the quickened `QOp` stream with fusion pc ranges; `dis --mega`
//! prints each loop's compiled megablock — entry guards, constituent ops
//! with original pc ranges, and the side-exit (deopt) table.
//!
//! Exit codes (uniform across every subcommand): `0` success / accurate
//! replay / corpus pass, `1` usage, I/O, or corrupt-input error, `2`
//! replay divergence (desync), corpus policy violation, or neutrality
//! violation.
//!
//! `check` replays every `<stem>.djvb` + `<stem>.policy.json` pair in the
//! corpus directory ([`dejavu_repro::corpus`]); on a divergence it
//! minimizes the failing workload spec with the qc tape shrinker and
//! prints a canonical-JSON repro blob.
//!
//! `store` subcommands drive the content-addressed trace store
//! (`crates/store`, DESIGN.md §11). `store put` replays the trace before
//! cataloging and records the verified fingerprint (exit 2 if it
//! diverges from a fresh record); `--no-verify` ingests with fingerprint
//! 0, the fleet-ingest semantics. `trace inspect --dedup` keys blocks
//! exactly as the store does — [`codec::digest128`] over the raw
//! pre-compression payload — so its unique-block accounting predicts
//! store dedup byte-for-byte.

use dejavu::{
    decode_any, encode_trace, passthrough_run, record_replay_forensic, record_run, replay_run,
    run_metrics_json, sniff_format, BlockFile, ExecSpec, SymmetryConfig, Trace, TraceFormat,
    DEFAULT_BLOCK_BUDGET,
};
use std::process::ExitCode;

/// Exit code distinguishing "the replay diverged" from ordinary failures.
const EXIT_DIVERGED: u8 = 2;

fn find(name: &str) -> Option<workloads::Workload> {
    workloads::registry().into_iter().find(|w| w.name == name)
}

/// The CLI's execution environment is the corpus's: a trace recorded by
/// `record` and one recorded by `corpus record` must have identical
/// fingerprints, or the corpus gate would disagree with ad-hoc use.
fn spec_of(w: &workloads::Workload, seed: u64) -> ExecSpec {
    dejavu_repro::corpus::corpus_spec(w, seed)
}

/// Extract a boolean flag from the arg list (removing it if present).
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Extract `<opt> <value>` from the arg list (removing both tokens).
fn take_value(args: &mut Vec<String>, opt: &str) -> Result<Option<String>, ()> {
    let Some(i) = args.iter().position(|a| a == opt) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        eprintln!("{opt} requires a value argument");
        return Err(());
    }
    let value = args.remove(i + 1);
    args.remove(i);
    Ok(Some(value))
}

/// Write canonical metrics JSON (newline-terminated) to `path`.
fn write_metrics(path: &str, json: &codec::Json) -> Result<(), ExitCode> {
    let mut s = json.to_string();
    s.push('\n');
    std::fs::write(path, s).map_err(|e| {
        eprintln!("write {path}: {e}");
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let usage = || {
        eprintln!(
            "usage: dejavu-cli <list|run|record|replay|profile|trace|stats|neutrality|checkjson|check|corpus|store|dis|serve|fleet-serve|fleet-bench|fleet-shutdown> [args...]\n\
             see the module docs for details"
        );
        ExitCode::FAILURE
    };
    let metrics_out = match take_value(&mut args, "--metrics-out") {
        Ok(m) => m,
        Err(()) => return usage(),
    };
    let out_dir = match take_value(&mut args, "--out") {
        Ok(m) => m,
        Err(()) => return usage(),
    };
    let prof_format = match take_value(&mut args, "--format") {
        Ok(m) => m,
        Err(()) => return usage(),
    };
    let top: usize = match take_value(&mut args, "--top") {
        Ok(None) => 10,
        Ok(Some(s)) => match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--top requires an integer, got \"{s}\"");
                return ExitCode::FAILURE;
            }
        },
        Err(()) => return usage(),
    };
    let trace_format = match take_value(&mut args, "--trace-format") {
        Ok(None) => TraceFormat::Flat,
        Ok(Some(name)) => match TraceFormat::from_name(&name) {
            Some(f) => f,
            None => {
                eprintln!("--trace-format must be \"flat\" or \"block\", got \"{name}\"");
                return ExitCode::FAILURE;
            }
        },
        Err(()) => return usage(),
    };
    let workers: usize = match take_value(&mut args, "--workers") {
        Ok(None) => 8,
        Ok(Some(s)) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--workers requires a positive integer, got \"{s}\"");
                return ExitCode::FAILURE;
            }
        },
        Err(()) => return usage(),
    };
    let sessions: usize = match take_value(&mut args, "--sessions") {
        Ok(None) => 64,
        Ok(Some(s)) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("--sessions requires a positive integer, got \"{s}\"");
                return ExitCode::FAILURE;
            }
        },
        Err(()) => return usage(),
    };
    let fleet_addr = match take_value(&mut args, "--fleet") {
        Ok(m) => m,
        Err(()) => return usage(),
    };
    let fleet_token = match take_value(&mut args, "--fleet-token") {
        Ok(m) => m.unwrap_or_else(|| "dejavu".to_string()),
        Err(()) => return usage(),
    };
    let port_file = match take_value(&mut args, "--port-file") {
        Ok(m) => m,
        Err(()) => return usage(),
    };
    let store_root = match take_value(&mut args, "--store") {
        Ok(m) => m,
        Err(()) => return usage(),
    };
    // `--no-quicken` runs the generic dispatch loop instead of the
    // quickened QOp stream — a speed ablation, observationally identical.
    // `--no-mega` keeps quickening but disables tier-2 megablock execution
    // of hot loops (same contract: bit-identical observables, only slower).
    let quicken = !take_flag(&mut args, "--no-quicken");
    let mega = !take_flag(&mut args, "--no-mega");
    let quick_dis = take_flag(&mut args, "--quick");
    let mega_dis = take_flag(&mut args, "--mega");
    let dedup = take_flag(&mut args, "--dedup");
    let no_verify = take_flag(&mut args, "--no-verify");
    let policy = match take_value(&mut args, "--policy") {
        Ok(m) => m.unwrap_or_default(),
        Err(()) => return usage(),
    };
    let cold: u64 = match take_value(&mut args, "--cold") {
        Ok(None) => store::DEFAULT_COLD_THRESHOLD,
        Ok(Some(s)) => match s.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("--cold requires an integer, got \"{s}\"");
                return ExitCode::FAILURE;
            }
        },
        Err(()) => return usage(),
    };
    // Only force the knobs when a flag was given: the defaults must stay
    // env-driven so `DJVM_NO_QUICKEN=1` / `DJVM_NO_MEGA=1` work through
    // the CLI too.
    let spec_of = move |w: &workloads::Workload, seed: u64| {
        let mut s = spec_of(w, seed);
        if !quicken {
            s = s.with_quicken(false);
        }
        if !mega {
            s = s.with_mega(false);
        }
        s
    };
    match args.first().map(String::as_str) {
        Some("list") => {
            for w in workloads::registry() {
                println!("{:22} {}", w.name, w.description);
            }
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(w) = args.get(1).and_then(|n| find(n)) else {
                return usage();
            };
            let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
            let r = passthrough_run(&spec_of(&w, seed), w.natives);
            print!("{}", r.output);
            eprintln!(
                "[{} steps, {} switches, status {:?}]",
                r.counters.steps, r.counters.thread_switches, r.status
            );
            ExitCode::SUCCESS
        }
        Some("record") => {
            let (Some(w), Some(seed), Some(path)) = (
                args.get(1).and_then(|n| find(n)),
                args.get(2).and_then(|s| s.parse::<u64>().ok()),
                args.get(3),
            ) else {
                return usage();
            };
            let mut spec = spec_of(&w, seed);
            if metrics_out.is_some() {
                spec = spec.with_telemetry();
            }
            let (rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
            let bytes = encode_trace(&trace, trace_format, DEFAULT_BLOCK_BUDGET);
            if let Err(e) = std::fs::write(path, &bytes) {
                eprintln!("write {path}: {e}");
                return ExitCode::FAILURE;
            }
            print!("{}", rec.output);
            let st = trace.stats();
            // The metrics JSON is deliberately format-independent: the
            // same record must produce byte-identical metrics whether it
            // was stored flat or block (the writer is a pure observer).
            if let Some(out) = metrics_out {
                if let Err(code) = write_metrics(&out, &run_metrics_json(&rec, Some(&st))) {
                    return code;
                }
            }
            match trace_format {
                TraceFormat::Flat => eprintln!(
                    "[trace {path}: flat, {} bytes, {} switches, {} clock reads, {} native outcomes]",
                    st.total_bytes, st.switch_count, st.clock_count, st.native_count
                ),
                TraceFormat::Block => {
                    // Even the just-encoded case goes through the typed
                    // error path: a panic here would break the exit-code
                    // contract if the encoder ever regressed.
                    let bst = match BlockFile::parse(bytes) {
                        Ok(bf) => bf.stats(),
                        Err(e) => {
                            eprintln!("{path}: encoder produced unparseable block trace: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    eprintln!(
                        "[trace {path}: block, {} bytes ({} flat), {} blocks, compression {}‰, {} events]",
                        bst.file_bytes, st.total_bytes, bst.blocks,
                        bst.compression_permille(), bst.events
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Some("replay") => {
            let (Some(w), Some(seed), Some(path)) = (
                args.get(1).and_then(|n| find(n)),
                args.get(2).and_then(|s| s.parse::<u64>().ok()),
                args.get(3),
            ) else {
                return usage();
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (trace, format) = match decode_any(&bytes) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("[{path}: {} format]", format.name());
            // Telemetry is always on here: it is proven perturbation-free,
            // and the rings let a divergence be localized to an event.
            let spec = spec_of(&w, seed).with_telemetry();
            let (rep, desyncs) = replay_run(&spec, trace, SymmetryConfig::full());
            print!("{}", rep.output);
            if let Some(out) = metrics_out {
                if let Err(code) = write_metrics(&out, &run_metrics_json(&rep, None)) {
                    return code;
                }
            }
            // verify against a fresh record of the same seed
            let (rec, _) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
            let accurate = rec.matches(&rep) && desyncs.is_empty();
            // Every desync, named with all its fields.
            for d in &desyncs {
                eprintln!("desync: {}", d.describe());
            }
            if !accurate {
                let report = dejavu::DivergenceReport::build(&rec, &rep, desyncs.clone());
                eprintln!("{}", report.describe());
            }
            eprintln!(
                "[replay {}: {} desyncs]",
                if accurate { "ACCURATE" } else { "DIVERGED" },
                desyncs.len()
            );
            if accurate {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_DIVERGED)
            }
        }
        Some("profile") => {
            // Replay the trace with the flight recorder armed, emit the
            // Chrome-trace / folded-stacks artifacts, and print the
            // canonical-JSON summary. The profiler is a pure observer, so
            // the profiled replay is also checked for neutrality against
            // an unprofiled replay of the same trace (exit 2 on any
            // fingerprint drift, same class as a divergence).
            let (Some(w), Some(seed), Some(path)) = (
                args.get(1).and_then(|n| find(n)),
                args.get(2).and_then(|s| s.parse::<u64>().ok()),
                args.get(3),
            ) else {
                return usage();
            };
            let format = match prof_format.as_deref() {
                None | Some("both") => "both",
                Some(f @ ("chrome" | "folded")) => f,
                Some(f) => {
                    eprintln!("--format must be \"chrome\", \"folded\" or \"both\", got \"{f}\"");
                    return ExitCode::FAILURE;
                }
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (trace, fmt) = match decode_any(&bytes) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!("[{path}: {} format]", fmt.name());
            let spec = spec_of(&w, seed);
            let (prof, report, desyncs) =
                dejavu::profile_replay(&spec, trace.clone(), SymmetryConfig::full());
            for d in &desyncs {
                eprintln!("desync: {}", d.describe());
            }
            let (plain, _) = replay_run(&spec, trace, SymmetryConfig::full());
            let neutral = report.fingerprint == plain.fingerprint
                && report.state_digest == plain.state_digest;
            if !neutral {
                eprintln!(
                    "profiler neutrality VIOLATED: profiled fingerprint {:016x} vs \
                     unprofiled {:016x}",
                    report.fingerprint, plain.fingerprint
                );
            }
            if let Some(dir) = out_dir {
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    eprintln!("mkdir {dir}: {e}");
                    return ExitCode::FAILURE;
                }
                if format != "folded" {
                    let p = format!("{dir}/profile.chrome.json");
                    let mut s = prof.chrome_json().to_string();
                    s.push('\n');
                    if let Err(e) = std::fs::write(&p, s) {
                        eprintln!("write {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("[wrote {p}]");
                }
                if format != "chrome" {
                    let p = format!("{dir}/profile.folded");
                    if let Err(e) = std::fs::write(&p, prof.folded()) {
                        eprintln!("write {p}: {e}");
                        return ExitCode::FAILURE;
                    }
                    eprintln!("[wrote {p}]");
                }
            }
            println!("{}", prof.summary_json(top));
            if let Some(hot) = prof.hottest_method() {
                eprintln!("[hottest method: {hot}]");
            }
            if neutral && desyncs.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_DIVERGED)
            }
        }
        Some("trace") => {
            // trace inspect <file>...: the block index as canonical JSON —
            // diffable, and a deterministic function of the file bytes.
            // Each block carries its content digest (digest128 of the raw
            // pre-compression payload — the store's dedup key, computed
            // over the same bytes), and `--dedup` appends a summary of
            // unique vs total blocks across all the named files: what a
            // `store put` of this set would share.
            let Some("inspect") = args.get(1).map(String::as_str) else {
                return usage();
            };
            let paths: Vec<String> = args.iter().skip(2).cloned().collect();
            if paths.is_empty() {
                return usage();
            }
            use codec::Json;
            use std::collections::BTreeMap;
            // digest hex → raw payload length, across all files.
            let mut seen: BTreeMap<String, u64> = BTreeMap::new();
            let mut total_blocks = 0u64;
            let mut total_raw = 0u64;
            for path in &paths {
                let bytes = match std::fs::read(path) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("read {path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let mut doc = match sniff_format(&bytes) {
                    Ok(TraceFormat::Flat) => {
                        let Some(trace) = Trace::decode(&bytes) else {
                            eprintln!("{path}: corrupt trace: flat trace rejected by decoder");
                            return ExitCode::FAILURE;
                        };
                        if dedup {
                            // Key flat sources exactly as the store does:
                            // blockified at the default budget first.
                            let enc = dejavu::blocktrace::encode_block(
                                &trace,
                                DEFAULT_BLOCK_BUDGET,
                            );
                            let raws = match BlockFile::parse(enc).and_then(|bf| bf.raw_blocks())
                            {
                                Ok(r) => r,
                                Err(e) => {
                                    eprintln!("{path}: blockify for dedup: {e}");
                                    return ExitCode::FAILURE;
                                }
                            };
                            for rb in &raws {
                                total_blocks += 1;
                                total_raw += rb.raw.len() as u64;
                                seen.insert(
                                    codec::digest128(&rb.raw).hex(),
                                    rb.raw.len() as u64,
                                );
                            }
                        }
                        Json::obj(vec![
                            ("format", Json::Str("flat".into())),
                            ("stats", trace.stats().to_json()),
                        ])
                    }
                    Ok(TraceFormat::Block) => {
                        let bf = match BlockFile::parse(bytes) {
                            Ok(bf) => bf,
                            Err(e) => {
                                eprintln!("{path}: {e}");
                                return ExitCode::FAILURE;
                            }
                        };
                        let crc_ok = bf.crc_status();
                        let blocks: Vec<Json> = bf
                            .index
                            .iter()
                            .enumerate()
                            .zip(&crc_ok)
                            .map(|((i, b), &ok)| {
                                // Per-block compression accounting: how well the
                                // block squeezed and which compressor won its
                                // encode-time race (corrupt method bytes keep the
                                // inspection total, like `crc_ok: false` does).
                                let permille = if b.raw_len == 0 {
                                    1000
                                } else {
                                    b.comp_len as u64 * 1000 / b.raw_len as u64
                                };
                                let compressor = bf.block_compressor(i).unwrap_or("corrupt");
                                // The store's content key; corrupt payloads
                                // keep the inspection total like crc_ok does.
                                let digest = match bf.block_raw(i) {
                                    Ok(raw) => {
                                        if dedup && ok {
                                            total_blocks += 1;
                                            total_raw += raw.len() as u64;
                                            seen.insert(
                                                codec::digest128(&raw).hex(),
                                                raw.len() as u64,
                                            );
                                        }
                                        codec::digest128(&raw).hex()
                                    }
                                    Err(_) => "corrupt".into(),
                                };
                                Json::obj(vec![
                                    ("comp_len", Json::UInt(b.comp_len as u64)),
                                    ("compression_permille", Json::UInt(permille)),
                                    ("compressor", Json::Str(compressor.into())),
                                    ("crc_ok", Json::Bool(ok)),
                                    ("digest", Json::Str(digest)),
                                    ("event_count", Json::UInt(b.event_count as u64)),
                                    ("first_logical_time", Json::UInt(b.first_logical_time)),
                                    ("first_seq", Json::UInt(b.first_seq)),
                                    ("offset", Json::UInt(b.offset)),
                                    ("raw_len", Json::UInt(b.raw_len as u64)),
                                    ("switch_count", Json::UInt(b.switch_count as u64)),
                                ])
                            })
                            .collect();
                        Json::obj(vec![
                            ("format", Json::Str("block".into())),
                            ("budget", Json::UInt(bf.budget as u64)),
                            ("paranoid", Json::Bool(bf.paranoid)),
                            ("blocks", Json::Arr(blocks)),
                            ("stats", bf.stats().to_json()),
                        ])
                    }
                    Err(e) => {
                        eprintln!("{path}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                doc.canonicalize();
                println!("{doc}");
            }
            if dedup {
                let unique_raw: u64 = seen.values().sum();
                let ratio = if unique_raw == 0 {
                    0
                } else {
                    total_raw * 1000 / unique_raw
                };
                let mut summary = Json::obj(vec![
                    ("blocks", Json::UInt(total_blocks)),
                    ("dedup_ratio_milli", Json::UInt(ratio)),
                    ("files", Json::UInt(paths.len() as u64)),
                    ("raw_bytes", Json::UInt(total_raw)),
                    ("unique_blocks", Json::UInt(seen.len() as u64)),
                    ("unique_raw_bytes", Json::UInt(unique_raw)),
                ]);
                summary.canonicalize();
                println!("{summary}");
            }
            ExitCode::SUCCESS
        }
        Some("stats") if fleet_addr.is_some() => {
            // `stats --fleet <addr>`: live fleet-server metrics. Stdout is
            // the canonical (sorted-key, byte-deterministic) JSON snapshot;
            // the human latency digest goes to stderr like workload stats.
            let addr = fleet_addr.unwrap();
            let mut client = match fleet::FleetClient::connect(&addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("connect {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let json = match client.stats() {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("stats rpc: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let Ok(doc) = codec::Json::parse(&json) else {
                eprintln!("stats rpc returned unparseable json");
                return ExitCode::FAILURE;
            };
            println!("{doc}");
            if let Some(codec::Json::Obj(sessions)) = doc.get("sessions") {
                let field = |k: &str| {
                    sessions
                        .iter()
                        .find(|(n, _)| n == k)
                        .and_then(|(_, v)| v.as_u64().ok())
                        .unwrap_or(0)
                };
                eprintln!(
                    "[sessions: active={} peak={} opened={} closed={} evicted={}]",
                    field("active"),
                    field("peak"),
                    field("opened"),
                    field("closed"),
                    field("evicted"),
                );
            }
            if let Some(codec::Json::Obj(hists)) = doc.get("rpc").and_then(|r| r.get("histograms"))
            {
                for (name, h) in hists {
                    let q = |k: &str| h.get(k).and_then(|v| v.as_u64().ok()).unwrap_or(0);
                    if q("count") == 0 {
                        continue;
                    }
                    eprintln!(
                        "[{name}: n={} p50={}ns p95={}ns p99={}ns max={}ns]",
                        q("count"),
                        q("p50"),
                        q("p95"),
                        q("p99"),
                        q("max"),
                    );
                }
            }
            ExitCode::SUCCESS
        }
        Some("stats") => {
            let Some(w) = args.get(1).and_then(|n| find(n)) else {
                return usage();
            };
            let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
            let spec = spec_of(&w, seed).with_telemetry();
            let out = record_replay_forensic(&spec, w.natives, SymmetryConfig::full());
            // Tier-2 stats are observer-side (excluded from the byte-compared
            // run metrics) but worth surfacing here: tier_ups is deterministic
            // across record/replay, the entry/iteration split is not required
            // to be (it depends on each side's quiet-yield horizon).
            let mut doc = codec::Json::obj(vec![
                ("accurate", codec::Json::Bool(out.accurate)),
                (
                    "mega",
                    codec::Json::obj(vec![
                        ("record", out.record.mega.to_json()),
                        ("replay", out.replay.mega.to_json()),
                    ]),
                ),
                (
                    "record",
                    run_metrics_json(&out.record, Some(&out.trace_stats)),
                ),
                ("replay", run_metrics_json(&out.replay, None)),
            ]);
            doc.canonicalize();
            println!("{doc}");
            // Human-readable latency digest of the record-side histograms:
            // the log2-bucket quantile estimates (exact min/max, p50/p95/p99
            // interpolated within a bucket).
            if let Some(t) = &out.record.telemetry {
                for (name, h) in [
                    ("alloc_words", &t.alloc_words),
                    ("compile_words", &t.compile_words),
                    ("timer_intervals", &t.timer_intervals),
                ] {
                    if h.count() == 0 {
                        continue;
                    }
                    eprintln!(
                        "[{name}: n={} min={} p50={} p95={} p99={} max={}]",
                        h.count(),
                        h.min().unwrap_or(0),
                        h.quantile(500).unwrap_or(0),
                        h.quantile(950).unwrap_or(0),
                        h.quantile(990).unwrap_or(0),
                        h.max().unwrap_or(0),
                    );
                }
            }
            if let Some(report) = &out.report {
                eprintln!("{}", report.describe());
                return ExitCode::from(EXIT_DIVERGED);
            }
            ExitCode::SUCCESS
        }
        Some("neutrality") => {
            // Prove perturbation-freedom for this workload+seed: the
            // fingerprint, state digest and output of record and replay
            // must be bit-identical with the telemetry sink on vs. off.
            let Some(w) = args.get(1).and_then(|n| find(n)) else {
                return usage();
            };
            let seed = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(1);
            let spec_off = spec_of(&w, seed);
            let spec_on = spec_of(&w, seed).with_telemetry();
            let off = record_replay_forensic(&spec_off, w.natives, SymmetryConfig::full());
            let on = record_replay_forensic(&spec_on, w.natives, SymmetryConfig::full());
            let neutral = off.record.matches(&on.record) && off.replay.matches(&on.replay);
            println!(
                "record fingerprint off={:016x} on={:016x}\n\
                 replay fingerprint off={:016x} on={:016x}\n\
                 neutrality: {}",
                off.record.fingerprint,
                on.record.fingerprint,
                off.replay.fingerprint,
                on.replay.fingerprint,
                if neutral { "HOLDS" } else { "VIOLATED" }
            );
            if neutral {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_DIVERGED)
            }
        }
        Some("checkjson") => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match codec::Json::parse(text.trim()) {
                Ok(j) => {
                    let canon = j.to_canonical_string();
                    if canon != text.trim() {
                        eprintln!("{path}: valid JSON but not in canonical (sorted-key) form");
                        return ExitCode::FAILURE;
                    }
                    println!("{path}: canonical JSON OK");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("{path}: invalid JSON: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("check") => {
            let Some(dir) = args.get(1) else {
                return usage();
            };
            let report = match dejavu_repro::corpus::check_corpus(std::path::Path::new(dir)) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("check {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            for c in &report.checks {
                let verdict = if let Some(msg) = &c.corrupt {
                    format!("CORRUPT  {msg}")
                } else if !c.violations.is_empty() {
                    format!("VIOLATED {}", c.violations.join("; "))
                } else {
                    format!(
                        "ok       {} events, {} bytes{}, {} ms",
                        c.events,
                        c.bytes,
                        c.seek_events
                            .map(|e| format!(", seek {e} ev"))
                            .unwrap_or_default(),
                        c.check_ms
                    )
                };
                println!("{:28} {verdict}", c.name);
                for w in &c.warnings {
                    println!("{:28}   lenient: {w}", "");
                }
            }
            // Divergences get the full treatment: minimize the failing
            // workload spec and print a replayable repro blob.
            for c in report.checks.iter().filter(|c| c.diverged) {
                let Ok(policy_text) =
                    std::fs::read_to_string(format!("{dir}/{}.policy.json", c.name))
                else {
                    continue;
                };
                let Ok(policy) = dejavu_repro::corpus::Policy::parse(&policy_text) else {
                    continue;
                };
                let start = dejavu_repro::corpus::ReproSpec {
                    workload: policy.workload,
                    seed: policy.seed,
                    timer_base: 211,
                    timer_jitter: 60,
                    clock_noise: 3,
                };
                match dejavu_repro::corpus::shrink_divergence(&start, SymmetryConfig::full()) {
                    Some(repro) => eprintln!("repro[{}]: {}", c.name, repro.to_blob()),
                    None => eprintln!(
                        "repro[{}]: divergence did not reproduce from a fresh record \
                         (trace/policy drift, not a platform bug)",
                        c.name
                    ),
                }
            }
            println!(
                "[corpus {}: {}/{} passed]",
                dir,
                report.passed(),
                report.checks.len()
            );
            ExitCode::from(report.exit_class())
        }
        Some("corpus") => {
            let (Some("record"), Some(dir)) = (args.get(1).map(String::as_str), args.get(2)) else {
                return usage();
            };
            match dejavu_repro::corpus::record_corpus(std::path::Path::new(dir)) {
                Ok(stems) => {
                    for s in &stems {
                        println!("recorded {dir}/{s}.djvb");
                    }
                    eprintln!("[corpus {dir}: {} traces recorded]", stems.len());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("corpus record {dir}: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("dis") => {
            let Some(w) = args.get(1).and_then(|n| find(n)) else {
                return usage();
            };
            let p = (w.build)();
            match args.get(2) {
                Some(mname) => match p.method_id_by_name(mname) {
                    Some(m) if mega_dis => {
                        println!("{}", djvm::dis::disassemble_mega(&p, m))
                    }
                    Some(m) if quick_dis => {
                        println!("{}", djvm::dis::disassemble_quickened(&p, m))
                    }
                    Some(m) => println!("{}", djvm::dis::disassemble(&p, m)),
                    None => {
                        eprintln!("no method {mname}");
                        return ExitCode::FAILURE;
                    }
                },
                None if mega_dis => println!("{}", djvm::dis::disassemble_mega_all(&p)),
                None if quick_dis => println!("{}", djvm::dis::disassemble_quickened_all(&p)),
                None => println!("{}", djvm::dis::disassemble_all(&p)),
            }
            ExitCode::SUCCESS
        }
        Some("store") => {
            // Content-addressed trace store (crates/store). Uniform exit
            // codes: StoreError::code() maps corruption/IO to 1 and
            // fingerprint divergence to 2, same classes as `replay`.
            let fail = |e: store::StoreError| {
                eprintln!("store: {e}");
                ExitCode::from(e.code())
            };
            let Some(dir) = args.get(2) else {
                return usage();
            };
            let st = match store::Store::open(std::path::Path::new(dir)) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("store open {dir}: {e}");
                    return ExitCode::from(e.code());
                }
            };
            match args.get(1).map(String::as_str) {
                Some("put") => {
                    let (Some(w), Some(seed), Some(path)) = (
                        args.get(3).and_then(|n| find(n)),
                        args.get(4).and_then(|s| s.parse::<u64>().ok()),
                        args.get(5),
                    ) else {
                        return usage();
                    };
                    let bytes = match std::fs::read(path) {
                        Ok(b) => b,
                        Err(e) => {
                            eprintln!("read {path}: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                    // Verified by default: the fingerprint cataloged with a
                    // run is one an actual replay produced, cross-checked
                    // against a fresh record — never taken on faith.
                    let mut fingerprint = 0u64;
                    if !no_verify {
                        let trace = match decode_any(&bytes) {
                            Ok((t, _)) => t,
                            Err(e) => {
                                eprintln!("{path}: {e}");
                                return ExitCode::FAILURE;
                            }
                        };
                        let spec = spec_of(&w, seed);
                        let (rep, desyncs) = replay_run(&spec, trace, SymmetryConfig::full());
                        let (rec, _) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
                        if !(rec.matches(&rep) && desyncs.is_empty()) {
                            eprintln!(
                                "store put: {path} does not replay accurately as {}/{seed} \
                                 ({} desyncs) — refusing to catalog a verified fingerprint",
                                w.name,
                                desyncs.len()
                            );
                            return ExitCode::from(EXIT_DIVERGED);
                        }
                        fingerprint = rep.fingerprint;
                    }
                    match st.put_bytes(&w.name, seed, &bytes, fingerprint, &policy) {
                        Ok(out) => {
                            let mut doc = out.to_json();
                            doc.canonicalize();
                            println!("{doc}");
                            eprintln!(
                                "[store put {}: {} blocks ({} new), {}]",
                                out.entry,
                                out.blocks_total,
                                out.blocks_new,
                                if no_verify { "unverified" } else { "verified" }
                            );
                            ExitCode::SUCCESS
                        }
                        Err(e) => fail(e),
                    }
                }
                Some("get") => {
                    let (Some(id), Some(out)) = (args.get(3), args.get(4)) else {
                        return usage();
                    };
                    match st.get_bytes(id) {
                        Ok(bytes) => {
                            if let Err(e) = std::fs::write(out, &bytes) {
                                eprintln!("write {out}: {e}");
                                return ExitCode::FAILURE;
                            }
                            eprintln!("[store get {id}: {} bytes]", bytes.len());
                            ExitCode::SUCCESS
                        }
                        Err(e) => fail(e),
                    }
                }
                Some("ls") => match st.entries() {
                    Ok(entries) => {
                        for e in entries {
                            let mut line = codec::Json::obj(vec![
                                ("blocks", codec::Json::UInt(e.blocks.len() as u64)),
                                ("file_bytes", codec::Json::UInt(e.file_bytes)),
                                ("fingerprint", codec::Json::UInt(e.fingerprint)),
                                ("id", codec::Json::Str(e.identity())),
                                ("puts", codec::Json::UInt(e.puts)),
                                ("seed", codec::Json::UInt(e.seed)),
                                ("workload", codec::Json::Str(e.workload)),
                            ]);
                            line.canonicalize();
                            println!("{line}");
                        }
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(e),
                },
                Some("gc") => match st.gc() {
                    Ok(report) => {
                        let mut doc = report.to_json();
                        doc.canonicalize();
                        println!("{doc}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(e),
                },
                Some("compact") => match st.compact(cold) {
                    Ok(report) => {
                        let mut doc = report.to_json();
                        doc.canonicalize();
                        println!("{doc}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(e),
                },
                Some("stats") => match st.disk_stats() {
                    Ok(stats) => {
                        let mut doc = stats;
                        doc.canonicalize();
                        println!("{doc}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => fail(e),
                },
                _ => usage(),
            }
        }
        Some("serve") => {
            let (Some(w), Some(seed), Some(port)) = (
                args.get(1).and_then(|n| find(n)),
                args.get(2).and_then(|s| s.parse::<u64>().ok()),
                args.get(3).and_then(|s| s.parse::<u16>().ok()),
            ) else {
                return usage();
            };
            let spec = spec_of(&w, seed);
            let (_rec, trace) = record_run(&spec, w.natives, SymmetryConfig::full(), true);
            let session = debugger::DebugSession::new(
                spec.program.clone(),
                spec.vm.clone(),
                trace,
                debugger::DEFAULT_CHECKPOINT_INTERVAL,
            );
            let listener = match std::net::TcpListener::bind(("127.0.0.1", port)) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("bind port {port}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            eprintln!(
                "debugger tier listening on 127.0.0.1:{port} \
                 (JSON-line protocol, {workers} workers, concurrent clients ok)"
            );
            match fleet::compat::serve_debug(session, listener, workers) {
                Ok(_) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("serve: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("fleet-serve") => {
            let Some(port) = args.get(1).and_then(|s| s.parse::<u16>().ok()) else {
                return usage();
            };
            let config = fleet::FleetConfig {
                workers,
                shutdown_token: fleet_token,
                store_root: store_root.map(std::path::PathBuf::from),
                ..fleet::FleetConfig::default()
            };
            let server = match fleet::FleetServer::start(&format!("127.0.0.1:{port}"), config) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("bind port {port}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let addr = server.addr();
            // `--port-file` lets scripts bind port 0 and learn the pick.
            if let Some(path) = port_file {
                if let Err(e) = std::fs::write(&path, format!("{}\n", addr.port())) {
                    eprintln!("write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            eprintln!("fleet server listening on {addr} ({workers} workers, framed RPC)");
            server.join(); // returns when a Shutdown RPC is accepted
            eprintln!("fleet server: clean shutdown");
            ExitCode::SUCCESS
        }
        Some("fleet-bench") => {
            let Some(addr) = args.get(1) else {
                return usage();
            };
            let workload = args.get(2).map(String::as_str).unwrap_or("fig1_ab");
            let threads = workers.min(sessions);
            let report = match fleet::bench::drive(addr, sessions, workload, threads) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("fleet-bench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let secs = report.elapsed.as_secs_f64();
            let mut doc = codec::Json::obj(vec![
                ("sessions", codec::Json::UInt(report.sessions as u64)),
                ("requests", codec::Json::UInt(report.requests)),
                (
                    "elapsed_ns",
                    codec::Json::UInt(report.elapsed.as_nanos() as u64),
                ),
                (
                    "sessions_per_sec",
                    codec::Json::UInt((report.sessions as f64 / secs.max(1e-9)) as u64),
                ),
                (
                    "p50_request_ns",
                    codec::Json::UInt(report.latency.quantile(500).unwrap_or(0)),
                ),
                (
                    "p99_request_ns",
                    codec::Json::UInt(report.latency.quantile(990).unwrap_or(0)),
                ),
                (
                    "fingerprints_match",
                    codec::Json::Bool(report.fingerprints_match),
                ),
                ("resident_peak", codec::Json::UInt(report.resident_peak)),
            ]);
            doc.canonicalize();
            println!("{doc}");
            for m in &report.mismatches {
                eprintln!("MISMATCH: {m}");
            }
            if report.fingerprints_match {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(EXIT_DIVERGED)
            }
        }
        Some("fleet-shutdown") => {
            let (Some(addr), Some(token)) = (args.get(1), args.get(2)) else {
                return usage();
            };
            let mut client = match fleet::FleetClient::connect(addr) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("connect {addr}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match client.shutdown(token) {
                Ok(true) => {
                    eprintln!("fleet server at {addr}: shutting down");
                    ExitCode::SUCCESS
                }
                Ok(false) => {
                    eprintln!("fleet server at {addr}: shutdown denied (bad ctrl token)");
                    ExitCode::FAILURE
                }
                Err(e) => {
                    eprintln!("shutdown rpc: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => usage(),
    }
}
