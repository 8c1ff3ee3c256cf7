//! A steady-state count round on one worker allocates nothing.
//!
//! The test binary installs a global allocator that counts the calls made
//! on the test's own thread, warms a run up until every scratch buffer has
//! reached its working size, and then requires the next rounds to make no
//! call at all. It is its own test crate so that the allocator sees no
//! other test.

// A `GlobalAlloc` implementation is `unsafe` by definition; it only
// forwards to the system allocator.
#![allow(unsafe_code)]

use slb_core::engine::count::{ClassCountState, CountSim};
use slb_core::model::SpeedVector;
use slb_core::protocol::{Alpha, MigrationRule};
use slb_graphs::generators;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations and reallocations of
/// every thread whose `COUNTING` flag is set.
struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn count_call() {
    if COUNTING.with(Cell::get) {
        CALLS.with(|calls| calls.set(calls.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only
// const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_call();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls on this thread while `f` runs.
fn calls_during(f: impl FnOnce()) -> u64 {
    let before = CALLS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    CALLS.with(Cell::get) - before
}

#[test]
fn steady_state_round_on_one_worker_allocates_nothing() {
    // Both rules on torus:16x16 from a hot start: unit tasks under the
    // relaxed rule, two classes under the own-weight rule (the per-class
    // filtered rows). After 1,000 rounds the runs are still migrating.
    let graph = generators::torus(16, 16);
    let n = graph.node_count();
    let speeds = SpeedVector::integer((0..n as u64).map(|v| 1 + v % 2).collect()).unwrap();
    let mut two_classes = vec![0u64; 2 * n];
    two_classes[..2].copy_from_slice(&[4096, 4096]);
    for (rule, state) in [
        (
            MigrationRule::Relaxed,
            ClassCountState::all_on_node(n, 0, 8192),
        ),
        (
            MigrationRule::OwnWeight,
            ClassCountState::node_major(vec![0.25, 1.0], two_classes),
        ),
    ] {
        let mut sim = CountSim::new(&graph, &speeds, rule, Alpha::Approximate, state, 7);
        for _ in 0..1_000 {
            sim.step();
        }
        let mut migrations = 0;
        let calls = calls_during(|| {
            for _ in 0..200 {
                migrations += sim.step().migrations;
            }
        });
        assert!(
            migrations > 0,
            "{rule:?}: the measured rounds must be active"
        );
        assert_eq!(
            calls, 0,
            "{rule:?}: 200 rounds made {calls} allocator calls"
        );
    }
}
