//! Leak and footprint regression: a dropped cluster frees its memory, and
//! a partial-replication run stays within its recorded heap peak.
//!
//! A counting global allocator tracks live heap bytes and their high-water
//! mark. Building, running and dropping a cluster must return the live
//! total to within [`SLACK`] of where it stood before the build — nothing
//! the run scheduled, queued or captured may outlive the last `Cluster`
//! handle. The two runs must also never hold more live bytes above that
//! starting point than their recorded peaks allow: [`FULL_PEAK_BOUND`] for
//! the 3-site full-replication run, [`PARTIAL_PEAK_BOUND`] for the 6-site
//! rf-2 partial one. The file holds a single test so that no concurrent
//! test moves the count.

use dbsm_testbed::core::{Cluster, CommitPath, ExperimentConfig, FaultPlan};
use dbsm_testbed::sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::time::Duration;

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

/// Adds `delta` to the live bytes and raises the high-water mark to match.
fn grow(delta: isize) {
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with its caller's arguments and
// returns `System`'s result; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grow(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            grow(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live bytes a dropped cluster may leave behind: thread-local and lazily
/// initialised runtime state, not the cluster's own.
const SLACK: isize = 64 * 1024;

/// Most live bytes the 3-site full-replication run below may hold at once:
/// its measured peak of 1 093 243 bytes plus 10 %. A change that keeps more
/// state per commit fails here.
const FULL_PEAK_BOUND: isize = 1_202_567;

/// Most live bytes the 6-site rf-2 partial run below may hold at once: its
/// measured peak of 1 590 377 bytes plus 10 %. A change that keeps more
/// state per commit or per site fails here.
const PARTIAL_PEAK_BOUND: isize = 1_749_414;

/// Runs `body` and returns the live bytes it left behind and the most it
/// held at once, both counted from where the live total stood before.
fn retained(body: impl FnOnce()) -> (isize, isize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    body();
    (LIVE.load(Relaxed) - before, PEAK.load(Relaxed) - before)
}

#[test]
fn a_dropped_cluster_frees_its_memory() {
    let mut full = ExperimentConfig::replicated(3, 200).with_target(600).with_seed(42);
    full.max_sim = Duration::from_secs(30);

    let mut partial = ExperimentConfig::replicated(6, 600)
        .with_replication_factor(2)
        .with_commit_path(CommitPath::Pipelined)
        .with_target(600)
        .with_seed(42)
        .with_faults(FaultPlan::crash_restart(2, SimTime::from_secs(2), SimTime::from_secs(4)));
    partial.history_window = 1 << 17;
    partial.max_sim = Duration::from_secs(30);

    let (left, peak) = retained(|| assert!(Cluster::build(full).run().committed() > 0));
    assert!(left <= SLACK, "3-site full replication: {left} bytes outlived the cluster");
    println!("leak check: 3-site full peak {peak} live bytes (bound {FULL_PEAK_BOUND})");
    assert!(peak <= FULL_PEAK_BOUND, "3-site full replication: peak {peak} live bytes");

    let (left, peak) = retained(|| assert_eq!(Cluster::build(partial).run().rejoins[2].len(), 1));
    assert!(left <= SLACK, "6-site rf-2 partial with a rejoin: {left} bytes outlived the cluster");
    println!("leak check: 6-site rf-2 partial peak {peak} live bytes (bound {PARTIAL_PEAK_BOUND})");
    assert!(peak <= PARTIAL_PEAK_BOUND, "6-site rf-2 partial: peak {peak} live bytes");

    let (left, _) = retained(|| drop(Cluster::build(ExperimentConfig::replicated(3, 200))));
    assert!(left <= SLACK, "a cluster never run: {left} bytes outlived it");
}
