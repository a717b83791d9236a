//! Heap-allocation budget of one matrix cell.
//!
//! The engine's per-event cost bounds how large a packet-level campaign
//! can run, and heap traffic is a large part of it: a scheduler that
//! allocates per bucket, or an ACK that allocates its SACK blocks, shows up
//! here long before it shows up in wall time. A counting global allocator
//! (which is why this test sits alone in its binary) counts every
//! allocation made while one Fig. 17 cell runs and divides by the events
//! the engine dispatched.

use cc_algos::CcKind;
use experiments::runner::run_flow;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use workload::{LastHop, PathScenario, ServerSite, MB};

/// Heap allocations (`alloc`, `alloc_zeroed` and `realloc` calls) per
/// dispatched event that one cell may make.
const MAX_ALLOCS_PER_EVENT: f64 = 0.25;

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn matrix_cell_stays_within_the_allocation_budget() {
    // google-us-east/wired at fig17's 0.5-BDP buffer, 6 MB, seed 1. One
    // test runs both controllers in turn, so no other test thread's
    // allocations are counted.
    let mut scn = PathScenario::new(ServerSite::GoogleUsEast, LastHop::Wired);
    scn.buffer_bdp = 0.5;
    for kind in [CcKind::CubicSuss, CcKind::Bbr] {
        let before = ALLOCS.load(Ordering::Relaxed);
        let out = run_flow(&scn, kind, 6 * MB, 1, false);
        let allocs = ALLOCS.load(Ordering::Relaxed) - before;
        assert!(out.fct_receiver.is_some(), "{kind:?} cell did not complete");
        let events = out
            .counters
            .get(simtrace::names::NET_EVENTS)
            .expect("event counter");
        let per_event = allocs as f64 / events as f64;
        assert!(
            per_event <= MAX_ALLOCS_PER_EVENT,
            "{kind:?}: {allocs} allocations over {events} events = {per_event:.3} per event \
             (budget {MAX_ALLOCS_PER_EVENT})"
        );
    }
}
