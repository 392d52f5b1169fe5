//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable report (thread counts, sample counts, the
//! exact work ledger, per-layer self time) and, as the last line of
//! standard output, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics untraced, or with `--trace 1`
//! the per-layer metrics of a separate traced phase.

use codec::Json;
use perfbench::engine::Fault;
use perfbench::plan::Workload;
use perfbench::run::{self, Budget, Options, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <pipeline_hot|pipeline_mix|fleet_stored> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let get = |flag: &str| -> Result<Option<String>, String> {
        match args.iter().position(|a| a == flag) {
            Some(i) => args
                .get(i + 1)
                .cloned()
                .map(Some)
                .ok_or_else(|| format!("{flag} needs a value")),
            None => Ok(None),
        }
    };
    let need = |v: Option<String>, flag: &str| v.ok_or_else(|| format!("missing {flag}"));
    let name = need(get("--workload")?, "--workload")?;
    let workload = Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = need(get("--seed")?, "--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = need(get("--seconds")?, "--seconds")?
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match need(get("--trace")?, "--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other}")),
    };
    let here = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    Ok(Options {
        workload,
        seed,
        budget: Budget::Seconds(seconds),
        trace,
        setups: 3,
        work_dir: here.join("work"),
        out_dir: Some(here.join("out")),
        fault: Fault::None,
    })
}

fn report(opts: &Options, o: &Outcome) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let clients = opts.workload.clients();
    println!(
        "perfbench {} seed={} trace={} nproc={nproc} client_threads={clients} \
         connections={clients} server_workers={} closed_loop=1",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        fleet::FleetConfig::default().workers,
    );
    let phases: Vec<(&str, &run::Phase)> = std::iter::once(("untraced", &o.untraced))
        .chain(o.traced.as_ref().map(|p| ("traced", p)))
        .collect();
    for (label, p) in &phases {
        let t = &p.tally;
        let counts: Vec<String> = t
            .samples
            .keys()
            .map(|k| format!("{k}={}", t.samples[k].len()))
            .collect();
        println!(
            "{label}: {:.2}s items={} pipelines={} sessions={} attempted={} failed={} \
             fail_ratio={:.6} samples: {}",
            p.wall_s,
            t.items,
            t.pipelines,
            t.sessions,
            t.attempted,
            t.failed,
            t.failed as f64 / t.attempted.max(1) as f64,
            counts.join(" ")
        );
        for (k, v) in &t.samples {
            println!(
                "{label}: {k:<8} n={:<6} p50={:.4} p90={:.4} p99={:.4} max={:.4} ms",
                v.len(),
                run::quantile(v, 0.5),
                run::quantile(v, 0.9),
                run::quantile(v, 0.99),
                run::quantile(v, 1.0),
            );
        }
        for e in &t.errors {
            println!("{label}: error: {e}");
        }
    }
    println!(
        "setup_s per set-up: {}",
        o.setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    for (i, ledger) in o.untraced.per_client_ledger.iter().enumerate() {
        let line: Vec<String> = ledger.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!(
            "ledger client {i} (first {} items): {}",
            perfbench::engine::LEDGER_ITEMS,
            line.join(" ")
        );
    }
    let metrics: Vec<(String, &str, f64)> = if opts.trace {
        let m = run::per_layer(o);
        if let Some(f) = &o.trace_file {
            println!("spans written to {}", f.display());
        }
        m
    } else {
        run::end_to_end(o)
            .into_iter()
            .map(|(k, u, v)| (k.to_string(), u, v))
            .collect()
    };
    for (k, u, v) in &metrics {
        println!("  {k:<32} {v:>14.4} {u}");
    }
    let (attempted, failed) = phases.iter().fold((0, 0), |(a, f), (_, p)| {
        (a + p.tally.attempted, f + p.tally.failed)
    });
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::UInt(attempted)),
        ("failed", Json::UInt(failed)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, u, v)| {
                        (
                            k,
                            Json::obj(vec![("value", Json::Num(v)), ("unit", Json::Str(u.into()))]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// glibc `mallopt` parameters (`<malloc.h>`).
const M_TRIM_THRESHOLD: i32 = -1;
const M_MMAP_THRESHOLD: i32 = -3;
const M_ARENA_MAX: i32 = -8;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pin the allocator's policy for 8 MiB VM heaps and heap snapshots. By
/// default glibc serves them with fresh `mmap`s until the first large free
/// raises its threshold; after that they come from per-thread arenas,
/// and which arena still holds freed memory depends on thread timing.
/// Identical runs then land in different modes, up to 2.5× apart in
/// fleet session latency. Fixed thresholds keep every run in one mode:
/// large blocks are reused from the arenas and never returned.
fn pin_allocator() {
    // SAFETY: `mallopt` only sets allocator tunables; it is called before
    // any other thread exists, with parameters glibc documents.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_ARENA_MAX, 1);
    }
}

fn main() -> ExitCode {
    pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run::run(&opts) {
        Ok(outcome) => {
            let line = report(&opts, &outcome);
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
