//! The acceptance gate for zero-allocation candidate generation: a
//! steady-state batched sweep must perform **zero** heap allocations per
//! candidate. A counting `GlobalAlloc` wrapper measures the whole sweep;
//! the scalar path (one `Vec<u8>` digest per candidate) is measured too,
//! as a positive control that the counter actually counts.
//!
//! The workspace denies `unsafe_code`; this test crate is the one
//! deliberate exception — a `GlobalAlloc` impl cannot be written without
//! `unsafe`, and the allocator below only forwards to `System`.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::AtomicBool;

use eks_cracker::batch::{crack_interval_batched, Lanes};
use eks_cracker::TargetSet;
use eks_hashes::HashAlgo;
use eks_keyspace::{Charset, Interval, KeySpace, Order};
use eks_telemetry::Telemetry;

thread_local! {
    // Count only while the measuring thread says so, and into that
    // thread's own counter: libtest runs the tests in parallel and its
    // channel machinery allocates on other threads, and neither may
    // pollute a measurement. `const` init so the TLS access itself
    // never allocates.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation on this thread if it is measuring.
fn count_alloc() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

struct CountingAlloc;

// SAFETY: pure pass-through to the system allocator; the counter is a
// thread-local increment with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get) - before
}

#[test]
fn steady_state_batch_loop_does_not_allocate() {
    // No possible hit, so no `key_at` / hit bookkeeping: pure steady state.
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(HashAlgo::Md5, &[vec![0u8; 16]]);
    let stop = AtomicBool::new(false);
    // 32_000 is a multiple of both lane widths: no scalar tail, which
    // (deliberately) still allocates one digest per candidate.
    let interval = Interval::new(0, 32_000);

    for lanes in [Lanes::L8, Lanes::L16] {
        let allocs = allocs_during(|| {
            let out = crack_interval_batched(
                &space, &impossible, interval, &stop, false, lanes, &Telemetry::disabled(),
            );
            assert_eq!(out.tested, 32_000);
            assert!(out.hits.is_empty());
        });
        assert_eq!(allocs, 0, "lanes {lanes}: {allocs} heap allocations in 32k candidates");
    }
}

#[test]
fn reversed_md5_batch_loop_does_not_allocate() {
    // Single MD5 target on FirstCharFastest engages the memoized
    // reversed path; rebuilding the `Md5PrefixSearch` per epoch must not
    // touch the heap either.
    let space =
        KeySpace::new(Charset::lowercase(), 5, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(HashAlgo::Md5, &[vec![0u8; 16]]);
    let stop = AtomicBool::new(false);
    let allocs = allocs_during(|| {
        let out = crack_interval_batched(
            &space,
            &impossible,
            Interval::new(0, 32_000),
            &stop,
            false,
            Lanes::L8,
            &Telemetry::disabled(),
        );
        assert_eq!(out.tested, 32_000);
    });
    assert_eq!(allocs, 0, "reversed path: {allocs} heap allocations in 32k candidates");
}

#[test]
fn scalar_path_allocates_so_the_counter_is_live() {
    // Positive control: the scalar engine heap-allocates a digest per
    // candidate, so the counter must see plenty of traffic.
    let space =
        KeySpace::new(Charset::lowercase(), 1, 8, Order::FirstCharFastest).expect("space");
    let impossible = TargetSet::new(HashAlgo::Md5, &[vec![0u8; 16]]);
    let stop = AtomicBool::new(false);
    let allocs = allocs_during(|| {
        crack_interval_batched(
            &space,
            &impossible,
            Interval::new(0, 1_000),
            &stop,
            false,
            Lanes::Scalar,
            &Telemetry::disabled(),
        );
    });
    assert!(allocs >= 1_000, "scalar control only saw {allocs} allocations");
}
