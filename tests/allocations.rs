//! Allocation counts on the hot paths, pinned with a counting global
//! allocator. This file is its own test binary holding a single test,
//! so the counter sees nothing else: with several tests, the harness
//! allocates for one test's report while another is counting.
//!
//! * A tiny job costs its cell and its task record: ≤ 2 allocations
//!   per `submit` + `join`.
//! * A region task whose closure fits inline costs exactly its record;
//!   an oversized closure is boxed and costs one more.
//! * Under `AllocKind::MultiLevel`, recycled records make a task cost
//!   no allocation at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use xgomp::service::{ServerConfig, TaskServer};
use xgomp::{AllocKind, Runtime, RuntimeConfig, TraceLevel, INLINE_BODY_BYTES};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: forwards to the system allocator; the counter is a side note.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

fn server() -> TaskServer {
    let mut cfg = ServerConfig::new(2)
        .runtime(RuntimeConfig::xgomptb(2).trace(TraceLevel::Off))
        .adapt_every(0)
        .log_retunes(false);
    cfg.trace_dump = None;
    cfg.trace_stream = None;
    cfg.metrics_addr = None;
    TaskServer::start(cfg)
}

#[test]
fn allocation_counts() {
    a_tiny_job_costs_at_most_two_allocations();
    an_inline_region_task_costs_exactly_its_record();
    an_oversized_closure_runs_through_the_boxed_fallback();
    recycled_records_make_inline_tasks_allocation_free();
}

fn a_tiny_job_costs_at_most_two_allocations() {
    const JOBS: u64 = 20_000;
    let server = server();
    // Warm-up: thread handles, lazily built runtime state.
    for i in 0..2_000u64 {
        assert_eq!(
            server.submit(move |_| i + 1).unwrap().join().unwrap(),
            i + 1
        );
    }
    let a0 = allocs();
    for i in 0..JOBS {
        assert_eq!(
            server.submit(move |_| i ^ 7).unwrap().join().unwrap(),
            i ^ 7
        );
    }
    let per_job = (allocs() - a0) as f64 / JOBS as f64;
    let report = server.shutdown();
    assert_eq!(report.stats.completed, JOBS + 2_000);
    assert!(
        per_job <= 2.0,
        "a tiny submit + join allocated {per_job:.3} times (cell + task record = 2)"
    );
}

/// Allocations made while spawning and running `n` tasks from `spawn`
/// on a one-worker region (so no other thread allocates meanwhile).
fn region_allocs(kind: AllocKind, n: u64, spawn: fn(&xgomp::TaskCtx<'_>, u64, &AtomicU64)) -> u64 {
    let rt = Runtime::new(RuntimeConfig::xgomptb(1).allocator(kind));
    rt.parallel(|ctx| {
        let sum = AtomicU64::new(0);
        // One warm-up round, so recycling allocators start primed.
        spawn(ctx, n, &sum);
        let a0 = allocs();
        spawn(ctx, n, &sum);
        let spent = allocs() - a0;
        assert_eq!(
            sum.load(Ordering::Relaxed),
            2 * (0..n).sum::<u64>(),
            "every task ran once"
        );
        spent
    })
    .result
}

fn spawn_small(ctx: &xgomp::TaskCtx<'_>, n: u64, sum: &AtomicU64) {
    ctx.scope(|s| {
        for i in 0..n {
            s.spawn(move |_| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
        }
    });
}

fn spawn_oversized(ctx: &xgomp::TaskCtx<'_>, n: u64, sum: &AtomicU64) {
    ctx.scope(|s| {
        for i in 0..n {
            // Twice the inline capacity: this closure takes the boxed
            // fallback.
            let mut big = [0u64; INLINE_BODY_BYTES / 4];
            big[big.len() - 1] = i;
            s.spawn(move |_| {
                sum.fetch_add(big.iter().sum::<u64>(), Ordering::Relaxed);
            });
        }
    });
}

fn an_inline_region_task_costs_exactly_its_record() {
    const N: u64 = 5_000;
    assert_eq!(region_allocs(AllocKind::Malloc, N, spawn_small), N);
}

fn an_oversized_closure_runs_through_the_boxed_fallback() {
    const N: u64 = 5_000;
    assert_eq!(
        region_allocs(AllocKind::Malloc, N, spawn_oversized),
        2 * N,
        "record + box per task"
    );
}

fn recycled_records_make_inline_tasks_allocation_free() {
    // Below the multi-level allocator's local cache, so the warm-up
    // round's records are all recycled locally.
    assert_eq!(region_allocs(AllocKind::MultiLevel, 200, spawn_small), 0);
}
