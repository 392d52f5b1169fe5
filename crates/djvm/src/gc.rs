//! Type-accurate garbage collection (paper §1).
//!
//! "To avoid memory leaks associated with conservative garbage collection
//! and to allow copying garbage collection, all of Jalapeño's garbage
//! collectors are type-accurate. This means that every reference to a live
//! object must be identified during garbage collection. Identifying such
//! references in the frames of a thread's activation stack is particularly
//! problematic" — which the per-pc **reference maps** of [`crate::compile`]
//! solve. GC can only trigger at allocation sites, and every thread that is
//! not running is stopped at a safe point (a yield point, a blocked
//! operation, or a call site), so a valid reference map exists for every
//! frame of every thread.
//!
//! Two collectors are provided, selected by [`crate::heap::GcKind`]:
//!
//! * **mark-sweep**: non-moving, address-ordered first-fit free list;
//! * **semispace copying**: moves objects (Cheney scan). Frame slots inside
//!   activation-stack arrays are forwarded precisely via reference maps,
//!   and the frame-pointer chain is rebased. Identity hashes survive moves
//!   because they are allocation serials.
//!
//! Both collectors are fully deterministic, which is load-bearing for the
//! paper's replay strategy: "the archetypical Java runtime service —
//! automatic memory management — is completely deterministic in Jalapeño."

use crate::heap::{forward_target, forward_word, is_forwarded, Addr, GcKind, Header, RESERVED};
use crate::thread::ThreadStatus;
use crate::vm::Vm;

/// Collect garbage. Called by the VM when an allocation fails.
pub fn collect(vm: &mut Vm) {
    // Occupancy peaks immediately before a collection; sample it here.
    vm.heap.note_peak();
    let words_before = vm.heap.stats.words_copied_or_swept;
    if let Some(p) = vm.telem.profile.as_deref_mut() {
        p.phase_begin(
            vm.sched.current,
            telemetry::profile::PHASE_GC,
            vm.heap.stats.collections + 1,
            vm.cycles,
        );
    }
    match vm.heap.kind() {
        GcKind::MarkSweep => mark_sweep(vm),
        GcKind::Copying => copying(vm),
    }
    vm.heap.stats.collections += 1;
    vm.fingerprint.event(0x6C, vm.heap.stats.collections, 0);
    let tid = vm.sched.current;
    vm.telem.event(
        tid,
        telemetry::EventKind::Gc {
            collection: vm.heap.stats.collections,
        },
    );
    if let Some(p) = vm.telem.profile.as_deref_mut() {
        // Zero-width in logical time (GC runs between guest instructions);
        // the work done is carried in the arg instead.
        p.phase_end(
            tid,
            telemetry::profile::PHASE_GC,
            vm.heap.stats.words_copied_or_swept - words_before,
            vm.cycles,
        );
    }
}

/// Every root *slot address-independent value* in the VM. Used by mark;
/// the copying collector instead updates slots in place.
fn root_values(vm: &Vm) -> Vec<Addr> {
    let mut roots = Vec::new();
    for t in &vm.threads {
        if t.thread_obj != 0 {
            roots.push(t.thread_obj);
        }
        if t.stack_obj != 0 {
            roots.push(t.stack_obj);
        }
        match t.status {
            ThreadStatus::BlockedMonitor(a)
            | ThreadStatus::Waiting(a)
            | ThreadStatus::TimedWaiting(a) => roots.push(a),
            _ => {}
        }
    }
    for slot in vm.class_objects.iter().flatten() {
        roots.push(*slot);
    }
    roots.extend(vm.string_objects.iter().copied());
    for slot in vm.code_objects.iter().flatten() {
        roots.push(*slot);
    }
    if let Some(a) = vm.io_write_buf {
        roots.push(a);
    }
    if let Some(a) = vm.io_read_buf {
        roots.push(a);
    }
    if let Some(a) = vm.io_read_scratch {
        roots.push(a);
    }
    if vm.boot_image.method_table != 0 {
        roots.push(vm.boot_image.method_table);
    }
    for &a in vm.sched.monitors.keys() {
        roots.push(a);
    }
    for s in &vm.sched.sleepers {
        if let Some(a) = s.monitor {
            roots.push(a);
        }
    }
    roots.extend(vm.extra_roots.iter().copied().filter(|&a| a != 0));
    roots.extend(vm.temp_roots.iter().copied().filter(|&a| a != 0));
    roots
}

/// Push every reference held in the frames of every thread.
fn frame_refs(vm: &Vm, out: &mut Vec<Addr>) {
    for tid in 0..vm.threads.len() {
        for f in vm.frames(tid as u32) {
            let Some(rm) = vm.program.compiled(f.method).ref_maps[f.ref_pc as usize].as_ref()
            else {
                continue;
            };
            let locals_base = f.fp + 3;
            for i in rm.locals.iter_ones() {
                if i < f.nlocals as usize {
                    let v = vm.heap.mem[locals_base as usize + i];
                    if v != 0 {
                        out.push(v);
                    }
                }
            }
            let stack_base = locals_base + f.nlocals as u64;
            for i in rm.stack.iter_ones() {
                if i < f.depth {
                    let v = vm.heap.mem[stack_base as usize + i];
                    if v != 0 {
                        out.push(v);
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Mark-sweep
// ---------------------------------------------------------------------

fn mark_sweep(vm: &mut Vm) {
    let mut worklist = root_values(vm);
    frame_refs(vm, &mut worklist);

    // Mark.
    while let Some(a) = worklist.pop() {
        let raw = vm.heap.raw_header(a);
        debug_assert!(!is_forwarded(raw));
        let h = Header::decode(raw);
        if h.marked {
            continue;
        }
        vm.heap
            .set_raw_header(a, Header { marked: true, ..h }.encode());
        push_children(vm, a, &h, &mut worklist);
    }

    // Sweep: linear heap parse, skipping known-free blocks.
    let total = vm.heap.total_words();
    let old_free = std::mem::take(&mut vm.heap.free);
    let mut new_free: Vec<(usize, usize)> = Vec::new();
    let mut fi = 0;
    let mut pos = RESERVED;
    let mut swept = 0u64;
    let add_free = |new_free: &mut Vec<(usize, usize)>, start: usize, len: usize| {
        if let Some(last) = new_free.last_mut() {
            if last.0 + last.1 == start {
                last.1 += len;
                return;
            }
        }
        new_free.push((start, len));
    };
    while pos < total {
        if fi < old_free.len() && old_free[fi].0 == pos {
            add_free(&mut new_free, pos, old_free[fi].1);
            pos += old_free[fi].1;
            fi += 1;
            continue;
        }
        let raw = vm.heap.raw_header(pos as Addr);
        let h = Header::decode(raw);
        let words = vm.heap.object_words(
            pos as Addr,
            &vm.program.field_layouts,
            &vm.program.static_layouts,
        );
        if h.marked {
            vm.heap
                .set_raw_header(pos as Addr, Header { marked: false, ..h }.encode());
        } else {
            add_free(&mut new_free, pos, words);
            swept += words as u64;
        }
        pos += words;
    }
    vm.heap.free = new_free;
    vm.heap.stats.words_copied_or_swept += swept;
}

fn push_children(vm: &Vm, a: Addr, h: &Header, out: &mut Vec<Addr>) {
    if h.is_stack {
        return; // scanned precisely via frames
    }
    if h.is_array {
        if h.ref_elems {
            let len = vm.heap.array_len(a);
            for i in 0..len {
                let v = vm.heap.get_elem(a, i);
                if v != 0 {
                    out.push(v);
                }
            }
        }
        return;
    }
    let layout = if h.is_classobj {
        &vm.program.static_layouts[h.class_id as usize]
    } else {
        &vm.program.field_layouts[h.class_id as usize]
    };
    for (i, ty) in layout.iter().enumerate() {
        if *ty == crate::bytecode::Ty::Ref {
            let v = vm.heap.get_field(a, i);
            if v != 0 {
                out.push(v);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Semispace copying
// ---------------------------------------------------------------------

fn copying(vm: &mut Vm) {
    let half = vm.heap.half;
    let from_base = vm.heap.active_base;
    let to_base = if from_base == RESERVED {
        RESERVED + half
    } else {
        RESERVED
    };
    let mut to_bump = to_base;

    // Forward one object: copy to to-space if not already, return new addr.
    fn forward(vm: &mut Vm, to_bump: &mut usize, a: Addr) -> Addr {
        if a == 0 {
            return 0;
        }
        let raw = vm.heap.raw_header(a);
        if is_forwarded(raw) {
            return forward_target(raw);
        }
        let words = vm
            .heap
            .object_words(a, &vm.program.field_layouts, &vm.program.static_layouts);
        let new = *to_bump as Addr;
        for i in 0..words {
            vm.heap.mem[*to_bump + i] = vm.heap.mem[a as usize + i];
        }
        *to_bump += words;
        vm.heap.set_raw_header(a, forward_word(new));
        vm.heap.stats.words_copied_or_swept += words as u64;
        new
    }

    // Phase 1: forward every root slot, updating the slots in place.
    for ti in 0..vm.threads.len() {
        let tobj = vm.threads[ti].thread_obj;
        let new_tobj = forward(vm, &mut to_bump, tobj);
        vm.threads[ti].thread_obj = new_tobj;
        let sobj = vm.threads[ti].stack_obj;
        if sobj != 0 {
            let new_sobj = forward(vm, &mut to_bump, sobj);
            let delta = new_sobj.wrapping_sub(sobj);
            let t = &mut vm.threads[ti];
            t.stack_obj = new_sobj;
            t.fp = t.fp.wrapping_add(delta);
            t.sp = t.sp.wrapping_add(delta);
            // Rebase the saved-fp chain inside the *new* copy.
            let mut fp = t.fp;
            loop {
                let sfp = vm.heap.mem[fp as usize];
                if sfp == 0 {
                    break;
                }
                let moved = sfp.wrapping_add(delta);
                vm.heap.mem[fp as usize] = moved;
                fp = moved;
            }
        }
        let st = vm.threads[ti].status;
        vm.threads[ti].status = match st {
            ThreadStatus::BlockedMonitor(a) => {
                ThreadStatus::BlockedMonitor(forward(vm, &mut to_bump, a))
            }
            ThreadStatus::Waiting(a) => ThreadStatus::Waiting(forward(vm, &mut to_bump, a)),
            ThreadStatus::TimedWaiting(a) => {
                ThreadStatus::TimedWaiting(forward(vm, &mut to_bump, a))
            }
            other => other,
        };
    }
    for ci in 0..vm.class_objects.len() {
        if let Some(a) = vm.class_objects[ci] {
            let new = forward(vm, &mut to_bump, a);
            vm.class_objects[ci] = Some(new);
        }
    }
    for si in 0..vm.string_objects.len() {
        let a = vm.string_objects[si];
        vm.string_objects[si] = forward(vm, &mut to_bump, a);
    }
    for mi in 0..vm.code_objects.len() {
        if let Some(a) = vm.code_objects[mi] {
            let new = forward(vm, &mut to_bump, a);
            vm.code_objects[mi] = Some(new);
        }
    }
    if let Some(a) = vm.io_write_buf {
        vm.io_write_buf = Some(forward(vm, &mut to_bump, a));
    }
    if let Some(a) = vm.io_read_buf {
        vm.io_read_buf = Some(forward(vm, &mut to_bump, a));
    }
    if let Some(a) = vm.io_read_scratch {
        vm.io_read_scratch = Some(forward(vm, &mut to_bump, a));
    }
    if vm.boot_image.method_table != 0 {
        let a = vm.boot_image.method_table;
        vm.boot_image.method_table = forward(vm, &mut to_bump, a);
    }
    for ri in 0..vm.extra_roots.len() {
        let a = vm.extra_roots[ri];
        if a != 0 {
            vm.extra_roots[ri] = forward(vm, &mut to_bump, a);
        }
    }
    for ri in 0..vm.temp_roots.len() {
        let a = vm.temp_roots[ri];
        if a != 0 {
            vm.temp_roots[ri] = forward(vm, &mut to_bump, a);
        }
    }
    // Monitors: rebuild the map with forwarded keys; sleeper monitors too.
    let monitors = std::mem::take(&mut vm.sched.monitors);
    let mut new_monitors = std::collections::BTreeMap::new();
    for (a, m) in monitors {
        let new = forward(vm, &mut to_bump, a);
        new_monitors.insert(new, m);
    }
    vm.sched.monitors = new_monitors;
    for si in 0..vm.sched.sleepers.len() {
        if let Some(a) = vm.sched.sleepers[si].monitor {
            let new = forward(vm, &mut to_bump, a);
            vm.sched.sleepers[si].monitor = Some(new);
        }
    }

    // Phase 2: forward every reference slot in every frame (the stacks
    // themselves have been copied; their payload still holds from-space
    // references).
    for tid in 0..vm.threads.len() as u32 {
        let frames = vm.frames(tid);
        for f in frames {
            let rm = vm.program.compiled(f.method).ref_maps[f.ref_pc as usize]
                .clone()
                .expect("paused frame at unreachable pc");
            let locals_base = f.fp + 3;
            for i in rm.locals.iter_ones() {
                if i < f.nlocals as usize {
                    let v = vm.heap.mem[locals_base as usize + i];
                    if v != 0 {
                        let new = forward(vm, &mut to_bump, v);
                        vm.heap.mem[locals_base as usize + i] = new;
                    }
                }
            }
            let stack_base = locals_base + f.nlocals as u64;
            for i in rm.stack.iter_ones() {
                if i < f.depth {
                    let v = vm.heap.mem[stack_base as usize + i];
                    if v != 0 {
                        let new = forward(vm, &mut to_bump, v);
                        vm.heap.mem[stack_base as usize + i] = new;
                    }
                }
            }
        }
    }

    // Phase 3: Cheney scan of to-space.
    let mut scan = to_base;
    while scan < to_bump {
        let a = scan as Addr;
        let h = vm.heap.header(a);
        let words = vm
            .heap
            .object_words(a, &vm.program.field_layouts, &vm.program.static_layouts);
        if !h.is_stack {
            if h.is_array {
                if h.ref_elems {
                    let len = vm.heap.array_len(a);
                    for i in 0..len {
                        let v = vm.heap.get_elem(a, i);
                        if v != 0 {
                            let new = forward(vm, &mut to_bump, v);
                            vm.heap.set_elem(a, i, new);
                        }
                    }
                }
            } else {
                let layout: Vec<crate::bytecode::Ty> = if h.is_classobj {
                    vm.program.static_layouts[h.class_id as usize].clone()
                } else {
                    vm.program.field_layouts[h.class_id as usize].clone()
                };
                for (i, ty) in layout.iter().enumerate() {
                    if *ty == crate::bytecode::Ty::Ref {
                        let v = vm.heap.get_field(a, i);
                        if v != 0 {
                            let new = forward(vm, &mut to_bump, v);
                            vm.heap.set_field(a, i, new);
                        }
                    }
                }
            }
        }
        scan += words;
    }

    // Flip. The to-space bump counts toward the heap extent like any
    // allocation.
    let from_bump = vm.heap.bump;
    vm.heap.active_base = to_base;
    vm.heap.bump = to_bump;
    vm.heap.extent = vm.heap.extent.max(to_bump);
    // Scrub the old semispace's used part in debug builds to catch stale
    // pointers (only below its bump, so words past the extent stay zero).
    #[cfg(debug_assertions)]
    {
        for w in &mut vm.heap.mem[from_base..from_bump] {
            *w = 0xDEAD_DEAD_DEAD_DEAD;
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (from_base, from_bump);
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;
    use crate::bytecode::Ty;
    use crate::clock::{CycleClock, FixedTimer};
    use crate::heap::GcKind;
    use crate::hook::Passthrough;
    use crate::interp::run;
    use crate::vm::{Vm, VmConfig, VmStatus};
    use std::sync::Arc;

    /// A program that allocates garbage in a loop while keeping a linked
    /// list alive, then checks the list — exercising the collector hard.
    fn churn_program() -> crate::program::Program {
        let mut pb = ProgramBuilder::new();
        let node = pb
            .class("Node")
            .field("v", Ty::Int)
            .field("next", Ty::Ref)
            .build();
        let m = pb.method("main", 0, 4).code(|a| {
            // Build a 50-node list: local0 = head.
            a.null().store(0);
            a.iconst(0).store(1);
            a.label("build");
            a.load(1).iconst(50).ge().if_nz("churn_init");
            a.new(node).store(2);
            a.load(2).load(1).put_field(0);
            a.load(2).load(0).put_field_ref(1);
            a.load(2).store(0);
            a.load(1).iconst(1).add().store(1);
            a.goto("build");
            // Allocate 2000 garbage arrays.
            a.label("churn_init");
            a.iconst(0).store(1);
            a.label("churn");
            a.load(1).iconst(2000).ge().if_nz("check");
            a.iconst(20).new_array_int().pop();
            a.load(1).iconst(1).add().store(1);
            a.goto("churn");
            // Sum the list: should be 0+1+...+49 = 1225.
            a.label("check");
            a.iconst(0).store(3);
            a.load(0).store(2);
            a.label("sum");
            a.load(2).null().ref_eq().if_nz("done");
            a.load(3).load(2).get_field(0).add().store(3);
            a.load(2).get_field_ref(1).store(2);
            a.goto("sum");
            a.label("done");
            a.load(3).print();
            a.halt();
        });
        pb.finish(m).unwrap()
    }

    fn run_churn(gc: GcKind) -> Vm {
        let p = churn_program();
        let mut vm = Vm::boot(
            Arc::new(p),
            VmConfig {
                heap_words: 16 * 1024, // small: forces many collections
                gc,
                ..VmConfig::default()
            },
            Box::new(FixedTimer::new(1000)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap();
        let mut hook = Passthrough;
        let st = run(&mut vm, &mut hook, 50_000_000);
        assert_eq!(st, VmStatus::Halted, "status: {:?}", vm.status);
        vm
    }

    #[test]
    fn mark_sweep_collects_and_preserves_liveness() {
        let vm = run_churn(GcKind::MarkSweep);
        assert_eq!(vm.output, "1225\n");
        assert!(vm.heap.stats.collections > 0, "GC must have run");
    }

    #[test]
    fn copying_collects_and_preserves_liveness() {
        let vm = run_churn(GcKind::Copying);
        assert_eq!(vm.output, "1225\n");
        assert!(vm.heap.stats.collections > 0, "GC must have run");
    }

    #[test]
    fn both_collectors_agree_on_program_behaviour() {
        let a = run_churn(GcKind::MarkSweep);
        let b = run_churn(GcKind::Copying);
        assert_eq!(a.output, b.output);
        // Identity (serial) based digests agree even though addresses moved.
        assert_eq!(a.state_digest(), b.state_digest());
    }

    #[test]
    fn identity_hash_stable_under_copying() {
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("O").field("x", Ty::Int).build();
        let m = pb.method("main", 0, 2).code(|a| {
            a.new(cls).store(0);
            a.load(0).identity_hash().store(1);
            // churn to force at least one copy
            a.iconst(0).put_static(cls, 0); // hmm no statics; use loop below
            a.halt();
        });
        // simpler: build program with statics-free churn
        let _ = m;
        let mut pb = ProgramBuilder::new();
        let cls = pb.class("O").field("x", Ty::Int).build();
        let m = pb.method("main", 0, 3).code(|a| {
            a.new(cls).store(0);
            a.load(0).identity_hash().store(1);
            a.iconst(0).store(2);
            a.label("churn");
            a.load(2).iconst(500).ge().if_nz("check");
            a.iconst(30).new_array_int().pop();
            a.load(2).iconst(1).add().store(2);
            a.goto("churn");
            a.label("check");
            a.load(0).identity_hash().load(1).sub().print(); // 0 if stable
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        let mut vm = Vm::boot(
            Arc::new(p),
            VmConfig {
                heap_words: 8 * 1024,
                gc: GcKind::Copying,
                ..VmConfig::default()
            },
            Box::new(FixedTimer::new(1000)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap();
        let mut hook = Passthrough;
        run(&mut vm, &mut hook, 10_000_000);
        assert!(vm.heap.stats.collections > 0);
        assert_eq!(vm.output, "0\n");
        let _ = cls;
    }

    #[test]
    fn oom_is_a_clean_error() {
        let mut pb = ProgramBuilder::new();
        let node = pb
            .class("Node")
            .field("v", Ty::Int)
            .field("next", Ty::Ref)
            .build();
        // Endless live list: must eventually OOM.
        let m = pb.method("main", 0, 2).code(|a| {
            a.null().store(0);
            a.label("top");
            a.new(node).store(1);
            a.load(1).load(0).put_field_ref(1);
            a.load(1).store(0);
            a.goto("top");
        });
        let p = pb.finish(m).unwrap();
        let mut vm = Vm::boot(
            Arc::new(p),
            VmConfig {
                heap_words: 4096,
                ..VmConfig::default()
            },
            Box::new(FixedTimer::new(1000)),
            Box::new(CycleClock::new(0, 100)),
        )
        .unwrap();
        let mut hook = Passthrough;
        let st = run(&mut vm, &mut hook, 10_000_000);
        assert!(
            matches!(st, VmStatus::Error(e) if e.kind == crate::vm::ErrKind::OutOfMemory),
            "got {st:?}"
        );
        let _ = node;
    }

    #[test]
    fn gc_with_multiple_threads_and_monitors() {
        let mut pb = ProgramBuilder::new();
        let g = pb
            .class("G")
            .static_field("lock", Ty::Ref)
            .static_field("sum", Ty::Int)
            .build();
        let lock_cls = pb.class("Lock").build();
        let worker = pb.method("worker", 0, 2).code(|a| {
            a.iconst(0).store(0);
            a.label("top");
            a.load(0).iconst(200).ge().if_nz("done");
            a.iconst(40).new_array_int().store(1); // garbage
            a.get_static(g, 0).monitor_enter();
            a.get_static(g, 1).iconst(1).add().put_static(g, 1);
            a.get_static(g, 0).monitor_exit();
            a.load(0).iconst(1).add().store(0);
            a.goto("top");
            a.label("done");
            a.ret();
        });
        let m = pb.method("main", 0, 2).code(|a| {
            a.new(lock_cls).put_static(g, 0);
            a.spawn(worker, 0).store(0);
            a.spawn(worker, 0).store(1);
            a.load(0).join();
            a.load(1).join();
            a.get_static(g, 1).print();
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        for gc in [GcKind::MarkSweep, GcKind::Copying] {
            let mut vm = Vm::boot(
                Arc::new(p.clone()),
                VmConfig {
                    heap_words: 16 * 1024,
                    gc,
                    ..VmConfig::default()
                },
                Box::new(FixedTimer::new(13)),
                Box::new(CycleClock::new(0, 100)),
            )
            .unwrap();
            let mut hook = Passthrough;
            let st = run(&mut vm, &mut hook, 50_000_000);
            assert_eq!(st, VmStatus::Halted);
            assert_eq!(vm.output, "400\n");
            assert!(vm.heap.stats.collections > 0);
        }
    }

    /// A hook that injects `helper` as an instrumentation frame at the
    /// first yield point of `target` — its method prologue, pc 0 — so the
    /// caller frame saves pc `0 − 1` and resumes at pc 0.
    struct HelperAtPrologue {
        target: crate::bytecode::MethodId,
        helper: crate::bytecode::MethodId,
        fired: bool,
    }

    impl crate::hook::ExecHook for HelperAtPrologue {
        fn on_yield_point(&mut self, vm: &mut Vm) -> crate::hook::YieldAction {
            let t = &vm.threads[vm.sched.current as usize];
            if !self.fired && t.method == self.target && t.pc == 0 {
                self.fired = true;
                return crate::hook::YieldAction {
                    switch_now: false,
                    run_helper: Some((self.helper, 0)),
                };
            }
            crate::hook::YieldAction::NONE
        }

        fn on_clock_read(&mut self, vm: &mut Vm) -> i64 {
            vm.read_live_clock()
        }

        fn on_native_call(
            &mut self,
            vm: &mut Vm,
            native: crate::bytecode::NativeId,
            args: &[i64],
        ) -> crate::native::NativeOutcome {
            vm.call_native_live(native, args)
        }
    }

    #[test]
    fn gc_inside_a_helper_injected_at_a_prologue_keeps_the_callers_refs() {
        let mut pb = ProgramBuilder::new();
        let node = pb.class("Node").field("v", Ty::Int).build();
        // The helper allocates enough garbage to collect several times.
        let helper = pb.method("helper", 1, 2).code(|a| {
            a.iconst(0).store(1);
            a.label("top");
            a.load(1).iconst(400).ge().if_nz("done");
            a.iconst(30).new_array_int().pop();
            a.load(1).iconst(1).add().store(1);
            a.goto("top");
            a.label("done");
            a.ret();
        });
        // The helper runs at `worker`'s pc 0, while its only reference —
        // the argument — is live in a frame that has executed nothing.
        let worker = pb.method_typed("worker", vec![Ty::Ref], 1, None).code(|a| {
            a.load(0).get_field(0).print();
            a.ret();
        });
        let m = pb.method("main", 0, 1).code(|a| {
            a.new(node).store(0);
            a.load(0).iconst(42).put_field(0);
            a.load(0).call(worker);
            a.halt();
        });
        let p = pb.finish(m).unwrap();
        for gc in [GcKind::MarkSweep, GcKind::Copying] {
            for quicken in [false, true] {
                let mut vm = Vm::boot(
                    Arc::new(p.clone()),
                    VmConfig {
                        heap_words: 8 * 1024,
                        gc,
                        quicken,
                        ..VmConfig::default()
                    },
                    Box::new(FixedTimer::new(1_000_000)),
                    Box::new(CycleClock::new(0, 100)),
                )
                .unwrap();
                let mut hook = HelperAtPrologue {
                    target: worker,
                    helper,
                    fired: false,
                };
                let st = run(&mut vm, &mut hook, 10_000_000);
                assert!(hook.fired, "the helper was never injected");
                assert_eq!(st, VmStatus::Halted, "{gc:?}: {:?}", vm.status);
                assert!(vm.heap.stats.collections > 0, "{gc:?}: no GC ran");
                assert_eq!(vm.output, "42\n", "{gc:?}, quicken {quicken}");
            }
        }
    }
}
