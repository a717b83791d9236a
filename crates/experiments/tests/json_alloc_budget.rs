//! Heap-allocation budget of the warm cache path.
//!
//! Re-rendering a figure from a warm cache is one `Cache::load` per cell,
//! and its cost was dominated by heap traffic: building, walking and
//! freeing a JSON tree per entry. A counting global allocator (which is
//! why this test sits alone in its binary) counts the allocations of one
//! load of a real Fig. 18 entry and of one render of its value. What is
//! left is the path and the file buffer, the decoded value itself
//! (`FlowStats` holds a `Vec` of named counters) and the output string's
//! growth.

use experiments::campaigns::FlowStats;
use simrunner::{Cache, CellIdentity};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations one `Cache::load` of the entry may make.
const MAX_LOAD_ALLOCS: u64 = 40;
/// Allocations one `serde::to_string` of its value may make.
const MAX_RENDER_ALLOCS: u64 = 16;

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

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (out, ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn warm_load_and_render_stay_within_the_allocation_budget() {
    let dir = std::env::temp_dir().join(format!("json-alloc-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = Cache::open(&dir, "fct_sweep").unwrap();
    let id = CellIdentity {
        experiment: "fct_sweep",
        version: "v2",
        params: "site=oracle-sydney hop=wifi bw_bps=80000000 ow_ns=24000000 \
                 jstd_ns=2500000 jcorr=0.3 buf_bdp=1.5 cc=bbr size=4000000",
        seed: 2,
    };
    std::fs::write(cache.entry_path(&id), include_str!("json/fig18_entry.json")).unwrap();

    let (stats, load_allocs) = counted(|| cache.load::<FlowStats>(&id));
    let stats = stats.expect("recorded entry is a hit");
    let (text, render_allocs) = counted(|| serde::to_string(&stats));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(text.starts_with("{\"fct_secs\":0.728213808,"), "{text}");
    assert!(
        load_allocs <= MAX_LOAD_ALLOCS,
        "Cache::load made {load_allocs} allocations (budget {MAX_LOAD_ALLOCS})"
    );
    assert!(
        render_allocs <= MAX_RENDER_ALLOCS,
        "serde::to_string made {render_allocs} allocations (budget {MAX_RENDER_ALLOCS})"
    );
    eprintln!("allocations: load {load_allocs}, render {render_allocs}");
}
