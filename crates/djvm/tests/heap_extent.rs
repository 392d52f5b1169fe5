//! The heap-extent invariant behind O(live heap) checkpoints: every word
//! at or above `Heap::extent` is zero, so a snapshot of `mem[..extent]`
//! plus a zero fill on restore reproduces the whole heap exactly. Both
//! collectors are covered — the copying collector's semispace flips move
//! the extent, and its old semispace keeps stale words in release builds.

use djvm::{interp, CycleClock, GcKind, JitteredTimer, Passthrough, Vm, VmConfig};
use std::sync::Arc;

/// A heap small enough that the allocation-heavy workloads collect.
const HEAP_WORDS: usize = 1 << 13;
/// Step budgets at which the invariant is checked and a snapshot taken.
const BUDGETS: [u64; 5] = [1, 300, 2_000, 9_000, 40_000];
/// How far each snapshot's future runs before it is restored.
const FURTHER: u64 = 6_000;

fn assert_zero_above_extent(vm: &Vm, ctx: &str) {
    let mem = vm.heap.mem_snapshot();
    let extent = vm.heap.extent();
    assert!(extent <= mem.len(), "{ctx}: extent past the heap");
    if let Some(i) = mem[extent..].iter().position(|&w| w != 0) {
        panic!(
            "{ctx}: word {} is {:#x}, at or above extent {extent}",
            extent + i,
            mem[extent + i]
        );
    }
}

#[test]
fn words_above_the_extent_are_zero_and_restore_is_exact() {
    for gc in [GcKind::MarkSweep, GcKind::Copying] {
        let mut collected_in_future = false;
        for w in workloads::registry() {
            let cfg = VmConfig {
                gc,
                heap_words: HEAP_WORDS,
                ..VmConfig::default()
            };
            let mut vm = Vm::boot(
                Arc::new((w.build)()),
                cfg,
                Box::new(JitteredTimer::new(7, 211, 60)),
                Box::new(CycleClock::new(0, 100)),
            )
            .unwrap();
            (w.natives)(&mut vm);
            let mut hook = Passthrough;
            let mut done = 0;
            for budget in BUDGETS {
                let ctx = format!("{} under {gc:?} at step {budget}", w.name);
                interp::run(&mut vm, &mut hook, budget - done);
                done = budget;
                assert_zero_above_extent(&vm, &ctx);

                let snap = vm.snapshot();
                let full = vm.heap.mem_snapshot();
                let extent = vm.heap.extent();
                let digest = vm.state_digest();
                let collections = vm.heap.stats.collections;
                interp::run(&mut vm, &mut hook, FURTHER);
                assert_zero_above_extent(&vm, &ctx);
                collected_in_future |= vm.heap.stats.collections > collections;

                vm.restore(&snap);
                assert_eq!(vm.heap.extent(), extent, "{ctx}");
                assert!(
                    vm.heap.mem_snapshot() == full,
                    "{ctx}: restored heap differs"
                );
                assert_eq!(vm.state_digest(), digest, "{ctx}: state digest");
                assert_zero_above_extent(&vm, &ctx);
            }
        }
        assert!(
            collected_in_future,
            "no snapshot's future crossed a {gc:?} collection"
        );
    }
}
