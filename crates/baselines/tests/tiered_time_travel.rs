//! Time travel replays forward on the tiered dispatch loop, in chunks cut
//! by a step budget and a logical-time stop. This pins it to the
//! reference it replaced — one `step_once` at a time — for every
//! registry workload under generic, quickened, and quickened+megablock
//! dispatch: every `SeekStats` field, the step counter, the checkpoint
//! list, the fingerprint and the state digest must agree after every
//! seek, forward and backward, by logical time and by step.

use baselines::{SeekStats, TimeTravel};
use dejavu::{
    encode_trace, ingest_bytes, DejaVuReplayer, ExecSpec, SymmetryConfig, Trace, TraceFormat,
};
use djvm::hook::YieldAction;
use djvm::native::NativeOutcome;
use djvm::{interp, CycleClock, ExecHook, FixedTimer, NativeId, Vm, VmConfig};
use std::sync::Arc;

/// Small blocks so every workload has many block-boundary checkpoints.
const BLOCK_BUDGET: u32 = 48;
/// Steps between interval checkpoints (chunks end on these too).
const INTERVAL: u64 = 1_500;

fn modes() -> [(&'static str, VmConfig); 3] {
    let base = VmConfig::default();
    [
        (
            "generic",
            VmConfig {
                quicken: false,
                mega: false,
                ..base.clone()
            },
        ),
        (
            "quickened",
            VmConfig {
                quicken: true,
                mega: false,
                ..base.clone()
            },
        ),
        (
            "quickened+mega",
            VmConfig {
                quicken: true,
                mega: true,
                ..base
            },
        ),
    ]
}

fn boot(spec: &ExecSpec, cfg: &VmConfig) -> Vm {
    Vm::boot(
        Arc::clone(&spec.program),
        cfg.clone(),
        Box::new(FixedTimer::new(1 << 30)),
        Box::new(CycleClock::new(0, 100)),
    )
    .unwrap()
}

/// Reference logical seek: restore exactly the checkpoint `seek_logical`
/// would pick (a step seek to its own step replays nothing), then step.
fn reference_seek_logical(tt: &mut TimeTravel, target: u64) -> SeekStats {
    let mut st = SeekStats {
        target_logical: target,
        ..SeekStats::default()
    };
    if target < tt.logical_time() {
        let idx = tt
            .checkpoints
            .partition_point(|c| c.at_logical <= target)
            .saturating_sub(1);
        tt.seek(tt.checkpoints[idx].at_step);
        st.restored = true;
    }
    st.checkpoint_step = tt.step;
    st.checkpoint_logical = tt.logical_time();
    let (step0, events0) = (tt.step, tt.events_consumed());
    while tt.logical_time() < target && tt.status().is_running() {
        tt.step_once();
    }
    if st.restored {
        tt.reexecuted += tt.step - step0;
    }
    st.steps_replayed = tt.step - step0;
    st.events_replayed = tt.events_consumed() - events0;
    st.final_step = tt.step;
    st.final_logical = tt.logical_time();
    st
}

/// Reference step seek, built the same way.
fn reference_seek(tt: &mut TimeTravel, target: u64) {
    let mut restored = false;
    if target < tt.step {
        let idx = tt
            .checkpoints
            .partition_point(|c| c.at_step <= target)
            .saturating_sub(1);
        tt.seek(tt.checkpoints[idx].at_step);
        restored = true;
    }
    let step0 = tt.step;
    while tt.step < target && tt.status().is_running() {
        tt.step_once();
    }
    if restored {
        tt.reexecuted += tt.step - step0;
    }
}

fn assert_same(tiered: &TimeTravel, reference: &TimeTravel, ctx: &str) {
    assert_eq!(tiered.step, reference.step, "{ctx}: step");
    assert_eq!(
        tiered.logical_time(),
        reference.logical_time(),
        "{ctx}: logical time"
    );
    let keys = |tt: &TimeTravel| -> Vec<(u64, u64)> {
        tt.checkpoints
            .iter()
            .map(|c| (c.at_step, c.at_logical))
            .collect()
    };
    assert_eq!(keys(tiered), keys(reference), "{ctx}: checkpoint list");
    let (a, b) = (tiered.vm(), reference.vm());
    assert_eq!(
        a.fingerprint.digest(),
        b.fingerprint.digest(),
        "{ctx}: fingerprint"
    );
    assert_eq!(a.state_digest(), b.state_digest(), "{ctx}: state digest");
    assert_eq!(a.status, b.status, "{ctx}: status");
    assert_eq!(tiered.restores, reference.restores, "{ctx}: restores");
    assert_eq!(tiered.reexecuted, reference.reexecuted, "{ctx}: reexecuted");
    assert!(tiered.desyncs().is_empty(), "{ctx}: tiered replay desynced");
}

/// Wraps the replayer to log every batch of yield points tier-2 credits
/// at once: `(clock before, count)`. A stop strictly inside such a batch
/// must split it.
struct BatchLog {
    inner: DejaVuReplayer,
    clock: u64,
    batches: Vec<(u64, u64)>,
}

impl ExecHook for BatchLog {
    fn on_init(&mut self, vm: &mut Vm) {
        self.inner.on_init(vm)
    }
    fn on_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        self.clock += 1;
        self.inner.on_yield_point(vm)
    }
    fn on_instr_yield_point(&mut self, vm: &mut Vm) -> YieldAction {
        self.inner.on_instr_yield_point(vm)
    }
    fn quiet_yield_horizon(&self, vm: &Vm) -> u64 {
        self.inner.quiet_yield_horizon(vm)
    }
    fn on_yield_points_skipped(&mut self, k: u64) {
        self.batches.push((self.clock, k));
        self.clock += k;
        self.inner.on_yield_points_skipped(k)
    }
    fn on_clock_read(&mut self, vm: &mut Vm) -> i64 {
        self.inner.on_clock_read(vm)
    }
    fn on_native_call(&mut self, vm: &mut Vm, native: NativeId, args: &[i64]) -> NativeOutcome {
        self.inner.on_native_call(vm, native, args)
    }
}

/// Logical times strictly inside a megablock batch of an unstopped
/// tier-2 replay.
fn batch_splitting_targets(spec: &ExecSpec, trace: &Trace) -> Vec<u64> {
    let mut vm = boot(spec, &modes()[2].1);
    let mut log = BatchLog {
        inner: DejaVuReplayer::new(trace.clone(), SymmetryConfig::full()),
        clock: 0,
        batches: Vec::new(),
    };
    log.on_init(&mut vm);
    interp::run_to_completion(&mut vm, &mut log);
    assert_eq!(log.clock, vm.counters.yield_points);
    log.batches
        .iter()
        .filter(|&&(_, k)| k >= 2)
        .flat_map(|&(at, k)| [at + 1, at + k / 2])
        .collect()
}

#[test]
fn tiered_time_travel_matches_stepping() {
    let mut split_targets_seen = 0;
    for w in workloads::registry() {
        let mut spec = ExecSpec::new((w.build)()).with_seed(3);
        spec.timer_base = 211;
        spec.timer_jitter = 60;
        let (rec, trace) = dejavu::record_run(&spec, w.natives, SymmetryConfig::full(), true);
        let ingested =
            ingest_bytes(encode_trace(&trace, TraceFormat::Block, BLOCK_BUDGET)).unwrap();
        let (trace, boundaries) = (ingested.trace, ingested.boundaries);
        let end = rec.counters.yield_points;

        // Logical targets: every block boundary and its neighbours, batch
        // splitters, the end, and past the end.
        let splits = batch_splitting_targets(&spec, &trace);
        split_targets_seen += splits.len();
        let mut logical: Vec<u64> = boundaries
            .iter()
            .flat_map(|&b| [b.saturating_sub(1), b, b + 1])
            .chain(splits.iter().copied().take(64))
            .chain([0, 1, end, end + 5])
            .collect();
        logical.sort_unstable();
        logical.dedup();
        let steps = [
            0,
            1,
            7,
            INTERVAL - 1,
            INTERVAL,
            INTERVAL + 1,
            rec.counters.steps / 3,
        ];

        for (mode, cfg) in modes() {
            let make = || {
                TimeTravel::new_indexed(
                    boot(&spec, &cfg),
                    trace.clone(),
                    SymmetryConfig::full(),
                    INTERVAL,
                    boundaries.clone(),
                )
            };
            let (mut tiered, mut reference) = (make(), make());
            let ctx = |what: &str, t: u64| format!("{} [{mode}] {what} {t}", w.name);

            // Forward through every logical target, then back down a
            // subset of them (restores + catch-up).
            let backward = logical.iter().rev().step_by(3).copied();
            for t in logical.iter().copied().chain(backward) {
                let got = tiered.seek_logical(t);
                let want = reference_seek_logical(&mut reference, t);
                assert_eq!(got, want, "{}", ctx("seek_logical", t));
                assert_same(&tiered, &reference, &ctx("seek_logical", t));
            }
            // Step targets, backward from the end and then forward again.
            for t in steps.iter().rev().chain(steps.iter()).copied() {
                tiered.seek(t);
                reference_seek(&mut reference, t);
                assert_same(&tiered, &reference, &ctx("seek", t));
            }
            // Run out to the end by step count.
            tiered.advance(u64::MAX);
            while reference.status().is_running() {
                reference.step_once();
            }
            assert_same(&tiered, &reference, &ctx("advance", u64::MAX));
            assert_eq!(
                tiered.vm().fingerprint.digest(),
                rec.fingerprint,
                "{}",
                w.name
            );
        }
    }
    assert!(
        split_targets_seen > 0,
        "no workload ran a megablock batch for the stop to split"
    );
}
