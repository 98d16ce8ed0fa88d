//! Leak regression: a dropped cluster frees its memory.
//!
//! A counting global allocator tracks live heap bytes. Building, running
//! and dropping a cluster must return the live total to within
//! [`SLACK`] of where it stood before the build — nothing the run
//! scheduled, queued or captured may outlive the last `Cluster` handle.
//! The file holds a single test so that no concurrent test moves the
//! count.

use dbsm_testbed::core::{Cluster, CommitPath, ExperimentConfig, FaultPlan};
use dbsm_testbed::sim::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering::Relaxed};
use std::time::Duration;

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards to `System` with its caller's arguments and
// returns `System`'s result; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Relaxed);
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
            LIVE.fetch_add(new_size as isize - layout.size() as isize, Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Live bytes a dropped cluster may leave behind: thread-local and lazily
/// initialised runtime state, not the cluster's own.
const SLACK: isize = 64 * 1024;

/// Runs `body` and returns the live bytes it left behind.
fn retained(body: impl FnOnce()) -> isize {
    let before = LIVE.load(Relaxed);
    body();
    LIVE.load(Relaxed) - before
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

    let left = retained(|| assert!(Cluster::build(full).run().committed() > 0));
    assert!(left <= SLACK, "3-site full replication: {left} bytes outlived the cluster");

    let left = retained(|| assert_eq!(Cluster::build(partial).run().rejoins.len(), 1));
    assert!(left <= SLACK, "6-site rf-2 partial with a rejoin: {left} bytes outlived the cluster");

    let left = retained(|| drop(Cluster::build(ExperimentConfig::replicated(3, 200))));
    assert!(left <= SLACK, "a cluster never run: {left} bytes outlived it");
}
