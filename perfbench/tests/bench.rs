//! The benchmark's own checks: schedules are a pure function of the
//! seed, the exact work ledger repeats at one seed, and the output checks
//! count damaged input as failed instead of passing it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::engine::{Fault, LEDGER_ITEMS};
use perfbench::plan::{Plan, Workload};
use perfbench::run::{self, Budget, Options, Outcome};
use std::path::PathBuf;

fn options(workload: Workload, seed: u64, items: u64, fault: Fault) -> Options {
    Options {
        workload,
        seed,
        budget: Budget::Items(items),
        trace: false,
        setups: 1,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tests"),
        out_dir: None,
        fault,
    }
}

fn run(workload: Workload, seed: u64, items: u64, fault: Fault) -> Outcome {
    run::run(&options(workload, seed, items, fault)).expect("benchmark run")
}

#[test]
fn plans_are_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        for client in 0..w.clients() {
            let a: Vec<_> = Plan::new(w, 11, client).take(64).collect();
            let b: Vec<_> = Plan::new(w, 11, client).take(64).collect();
            let c: Vec<_> = Plan::new(w, 12, client).take(64).collect();
            assert_eq!(a, b, "{} client {client}", w.name());
            assert_ne!(a, c, "{} client {client}", w.name());
        }
    }
}

#[test]
fn ledger_repeats_exactly_at_one_seed() {
    for w in Workload::ALL {
        let a = run(w, 5, LEDGER_ITEMS, Fault::None);
        let b = run(w, 5, LEDGER_ITEMS, Fault::None);
        assert_eq!(
            a.untraced.tally.failed,
            0,
            "{}: {:?}",
            w.name(),
            a.untraced.tally.errors
        );
        assert!(a.untraced.per_client_ledger.iter().all(|l| !l.is_empty()));
        assert_eq!(
            a.untraced.per_client_ledger,
            b.untraced.per_client_ledger,
            "{}",
            w.name()
        );
    }
}

#[test]
fn corrupted_trace_counts_as_failed() {
    let o = run(Workload::PipelineMix, 3, 6, Fault::CorruptTrace);
    let t = &o.untraced.tally;
    assert_eq!(t.failed, 6, "every item's decode must fail: {:?}", t.errors);
    assert_eq!(t.pipelines, 0);
    assert!(t.attempted > t.failed);
}

#[test]
fn wrong_fingerprint_counts_as_failed() {
    let o = run(Workload::FleetStored, 3, 4, Fault::WrongFingerprint);
    let t = &o.untraced.tally;
    assert_eq!(t.sessions, 0, "no fleet replay may pass");
    assert_eq!(t.failed + t.pipelines, t.items, "{:?}", t.errors);
    assert!(t.failed > 0);
    assert!(
        t.errors.iter().all(|e| e.contains("fleet replay fp")),
        "{:?}",
        t.errors
    );
}
