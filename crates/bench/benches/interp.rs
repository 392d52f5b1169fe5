//! Interpreter dispatch bench: the full three-tier matrix — generic
//! dispatch, quickened (superinstruction / devirtualized QOp stream), and
//! tier-2 megablock execution of hot loops — side by side on the Figure-1
//! hot-loop workload, all under the default `Full` fingerprint. Reports
//! steps/sec via the `work_units` hint plus record and replay overhead per
//! tier, so `BENCH_interp.json` captures the whole tiering story in one
//! file; the `meta` block records the tier-up and closed-form counts and
//! tier-over-tier speedups so a silent failure to promote shows up in CI.
//!
//! Mega and quickened record/replay are measured as interleaved pairs
//! (`Group::bench_pair`): `speedups.record_mega_over_quickened_mx` and
//! `speedups.replay_mega_over_quickened_mx` are the median per-pair
//! ratios, the figures `scripts/verify.sh` gates, and
//! `meta.record_pairs` / `meta.replay_pairs` carry their quartiles.
//!
//! The attached TELEMETRY document comes from *environment-default*
//! quickening with tier-2 pinned off: running this bench under
//! `DJVM_NO_QUICKEN=1` (or `DJVM_NO_MEGA=1`) and again without it must
//! produce byte-identical telemetry (fingerprints, counters, trace stats)
//! — `scripts/verify.sh` cmp's the files to enforce neutrality in CI.
//! (Tier-2 is pinned off for this document only because the `compile.mega`
//! ring event — itself an observer artifact — would legitimately differ
//! across the ablation.)

use bench::bench_spec;
use bench::harness::{black_box, Group};
use dejavu::SymmetryConfig;

const WORKLOAD: &str = "fig1_hot";

fn main() {
    let mut g = Group::new("interp");
    g.sample_size(10);

    let (spec, natives) = bench_spec(WORKLOAD, 1);
    let spec_m = spec.clone().with_quicken(true).with_mega(true);
    let spec_q = spec.clone().with_quicken(true).with_mega(false);
    let spec_g = spec.clone().with_quicken(false).with_mega(false);

    // The step count is deterministic and tier-independent (the
    // cycle-accounting invariant); it is the work_units hint that turns
    // median ns into steps/sec.
    let rep_m = dejavu::passthrough_run(&spec_m, natives);
    let steps_m = rep_m.counters.steps;
    let steps_q = dejavu::passthrough_run(&spec_q, natives).counters.steps;
    let steps_g = dejavu::passthrough_run(&spec_g, natives).counters.steps;
    assert_eq!(
        steps_q, steps_g,
        "quickening changed the step count — the invariant is broken"
    );
    assert_eq!(
        steps_m, steps_q,
        "megablocks changed the step count — the invariant is broken"
    );
    assert!(
        rep_m.mega.tier_ups > 0,
        "fig1_hot never tiered up — the mega bench rows would measure tier 1"
    );

    // Raw dispatch speed, per tier (Full fingerprint, no recorder).
    for (tier, s, steps) in [
        ("mega", &spec_m, steps_m),
        ("quickened", &spec_q, steps_q),
        ("generic", &spec_g, steps_g),
    ] {
        g.bench_units(&format!("steps_{tier}/{WORKLOAD}"), steps, || {
            black_box(dejavu::passthrough_run(s, natives));
        });
    }

    // Record overhead, all tiers (the real pipeline); mega and quickened
    // interleaved, since their ratio is the tier-2 bar.
    let record = |s: &dejavu::ExecSpec| {
        black_box(dejavu::record_run(
            s,
            natives,
            SymmetryConfig::full(),
            false,
        ));
    };
    let record_pairs = g.bench_pair(
        &format!("record_quickened/{WORKLOAD}"),
        &format!("record_mega/{WORKLOAD}"),
        steps_m,
        || record(&spec_q),
        || record(&spec_m),
    );
    g.bench_units(&format!("record_generic/{WORKLOAD}"), steps_g, || {
        record(&spec_g)
    });

    // Replay overhead, all tiers (trace decode + forced switches). Each
    // tier replays its own recording; the traces are byte-identical anyway.
    let (_, trace_m) = dejavu::record_run(&spec_m, natives, SymmetryConfig::full(), true);
    let (_, trace_q) = dejavu::record_run(&spec_q, natives, SymmetryConfig::full(), true);
    let (_, trace_g) = dejavu::record_run(&spec_g, natives, SymmetryConfig::full(), true);
    let replay = |s: &dejavu::ExecSpec, trace: &dejavu::Trace| {
        black_box(dejavu::replay_run(s, trace.clone(), SymmetryConfig::full()));
    };
    let replay_pairs = g.bench_pair(
        &format!("replay_quickened/{WORKLOAD}"),
        &format!("replay_mega/{WORKLOAD}"),
        steps_m,
        || replay(&spec_q, &trace_q),
        || replay(&spec_m, &trace_m),
    );
    g.bench_units(&format!("replay_generic/{WORKLOAD}"), steps_g, || {
        replay(&spec_g, &trace_g)
    });

    // Tier-up evidence plus derived speedups for the sidecar, in milli-x
    // fixed point so the JSON stays integer-only.
    let ratio_mx = |a: &str, b: &str| match (
        g.median_ns(&format!("{a}/{WORKLOAD}")),
        g.median_ns(&format!("{b}/{WORKLOAD}")),
    ) {
        (Some(x), Some(y)) if y > 0 => codec::Json::UInt(x * 1000 / y),
        _ => codec::Json::UInt(0),
    };
    let speedups = codec::Json::obj(vec![
        (
            "mega_over_quickened_mx",
            ratio_mx("steps_quickened", "steps_mega"),
        ),
        (
            "quickened_over_generic_mx",
            ratio_mx("steps_generic", "steps_quickened"),
        ),
        (
            "record_mega_over_quickened_mx",
            codec::Json::UInt(record_pairs.median_mx()),
        ),
        (
            "replay_mega_over_quickened_mx",
            codec::Json::UInt(replay_pairs.median_mx()),
        ),
    ]);
    // The closed-form stepper carries fig1_hot's batches on the default
    // path: the sidecar proves the fast path ran rather than the
    // step-by-step fallback.
    assert!(
        rep_m.mega.closed_iters > 0,
        "fig1_hot never hit the closed form: {:?}",
        rep_m.mega
    );
    g.meta(&format!("mega_{WORKLOAD}"), rep_m.mega.to_json());
    g.meta("speedups", speedups);
    g.meta("record_pairs", record_pairs.to_json());
    g.meta("replay_pairs", replay_pairs.to_json());

    // Telemetry from an env-default-quicken record with tier-2 pinned off:
    // verify.sh runs this bench under DJVM_NO_QUICKEN=1 / DJVM_NO_MEGA=1
    // and byte-compares the resulting files against the default run.
    let tspec = spec.clone().with_telemetry().with_mega(false);
    let (rec, trace) = dejavu::record_run(&tspec, natives, SymmetryConfig::full(), true);
    g.attach_telemetry(
        WORKLOAD,
        dejavu::run_metrics_json(&rec, Some(&trace.stats())),
    );

    g.finish();
}
