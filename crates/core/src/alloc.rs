//! Task-record allocation policies.
//!
//! The paper's Fig. 4 analysis attributes the GOMP↔LOMP performance
//! crossover to *task allocation*: GOMP calls `malloc` for every task,
//! while LOMP uses a "fast multi-level allocator" that (i) serves from a
//! thread-local buffer, (ii) synchronously acquires buffer space from
//! other threads, or (iii) falls back to `malloc` (§VI-A). Both policies
//! are reproduced here and can be combined with any scheduler for
//! ablation studies.

use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::task::{Task, TaskBody};
use crate::util::PerWorker;

/// Allocation policy selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AllocKind {
    /// One heap allocation/deallocation per task (GOMP, XGOMP, XGOMPTB).
    Malloc,
    /// LOMP-style multi-level recycling: worker-local free list → locked
    /// global pool ("another thread's buffer") → heap.
    MultiLevel,
}

/// Cap on a worker-local free list; beyond it, half is spilled to the
/// global pool so idle workers' records remain reusable by busy ones.
const LOCAL_CACHE_MAX: usize = 256;
/// How many records a worker grabs from the global pool at once
/// (LOMP's chunked buffer acquisition).
const GLOBAL_CHUNK: usize = 32;

/// The team's task-record allocator.
pub(crate) struct TaskAllocator {
    kind: AllocKind,
    local: PerWorker<Vec<NonNull<Task>>>,
    global: Mutex<Vec<NonNull<Task>>>,
    allocated: AtomicU64,
    freed: AtomicU64,
}

// SAFETY: pooled pointers are owned records, movable across threads.
unsafe impl Send for TaskAllocator {}
unsafe impl Sync for TaskAllocator {}

impl TaskAllocator {
    pub fn new(kind: AllocKind, n_workers: usize) -> Self {
        TaskAllocator {
            kind,
            local: PerWorker::new(n_workers, |_| Vec::new()),
            global: Mutex::new(Vec::new()),
            allocated: AtomicU64::new(0),
            freed: AtomicU64::new(0),
        }
    }

    /// Allocates and initializes a task record on behalf of worker `w`.
    ///
    /// # Safety
    ///
    /// Caller must be the thread owning worker slot `w`.
    pub unsafe fn alloc(
        &self,
        w: usize,
        body: Option<TaskBody>,
        parent: Option<NonNull<Task>>,
        priority: i32,
    ) -> NonNull<Task> {
        self.allocated.fetch_add(1, Ordering::Relaxed);
        match self.kind {
            AllocKind::Malloc => {
                let boxed = Box::new(Task::new(body, parent, w as u32, priority));
                // Box never returns null.
                NonNull::new(Box::into_raw(boxed)).unwrap()
            }
            AllocKind::MultiLevel => {
                // Level 1: worker-local free list.
                // SAFETY: worker-ownership contract forwarded from caller;
                // leaf access (no reentrancy).
                let recycled = unsafe { self.local.with(w, |list| list.pop()) };
                let slot = recycled.or_else(|| {
                    // Level 2: locked global pool, grabbed in chunks.
                    let mut pool = self.global.lock();
                    let take = pool.len().min(GLOBAL_CHUNK);
                    if take == 0 {
                        return None;
                    }
                    let start = pool.len() - take;
                    let mut chunk: Vec<NonNull<Task>> = pool.drain(start..).collect();
                    drop(pool);
                    let first = chunk.pop();
                    if !chunk.is_empty() {
                        // SAFETY: as above.
                        unsafe { self.local.with(w, |list| list.extend(chunk)) };
                    }
                    first
                });
                match slot {
                    Some(ptr) => {
                        // SAFETY: records in pools are dead (refs == 0).
                        unsafe { Task::reinit(ptr, body, parent, w as u32, priority) };
                        ptr
                    }
                    // Level 3: the system allocator.
                    None => {
                        let boxed = Box::new(Task::new(body, parent, w as u32, priority));
                        NonNull::new(Box::into_raw(boxed)).unwrap()
                    }
                }
            }
        }
    }

    /// Returns a dead record (refcount already zero) to the pool.
    ///
    /// # Safety
    ///
    /// `ptr` must be a record from [`alloc`](Self::alloc) whose last
    /// reference was released; caller must own worker slot `w`.
    pub unsafe fn free(&self, w: usize, ptr: NonNull<Task>) {
        self.freed.fetch_add(1, Ordering::Relaxed);
        match self.kind {
            AllocKind::Malloc => {
                // SAFETY: exclusive dead record from Box::into_raw.
                drop(unsafe { Box::from_raw(ptr.as_ptr()) });
            }
            AllocKind::MultiLevel => {
                // Clear the body eagerly so captured environments are
                // released now, not when the record is recycled.
                // SAFETY: dead record ⇒ exclusive access.
                unsafe {
                    Task::reinit(ptr, None, None, 0, 0);
                    (*ptr.as_ptr()).release_ref();
                }
                // SAFETY: worker-ownership contract; leaf access.
                let spill = unsafe {
                    self.local.with(w, |list| {
                        list.push(ptr);
                        if list.len() > LOCAL_CACHE_MAX {
                            let keep = LOCAL_CACHE_MAX / 2;
                            Some(list.split_off(keep))
                        } else {
                            None
                        }
                    })
                };
                if let Some(extra) = spill {
                    self.global.lock().extend(extra);
                }
            }
        }
    }

    /// Records allocated minus records freed. Zero after a quiescent
    /// region has been torn down (leak check used by tests).
    pub fn outstanding(&self) -> u64 {
        self.allocated
            .load(Ordering::Relaxed)
            .saturating_sub(self.freed.load(Ordering::Relaxed))
    }

    /// Which policy this allocator implements.
    #[allow(dead_code)]
    pub fn kind(&self) -> AllocKind {
        self.kind
    }
}

impl Drop for TaskAllocator {
    fn drop(&mut self) {
        // Free pooled (dead) records. `&mut self` gives exclusivity.
        for list in self.local.iter_mut() {
            for ptr in list.drain(..) {
                // SAFETY: pooled records are dead and exclusively owned.
                drop(unsafe { Box::from_raw(ptr.as_ptr()) });
            }
        }
        for ptr in self.global.get_mut().drain(..) {
            // SAFETY: as above.
            drop(unsafe { Box::from_raw(ptr.as_ptr()) });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn release_and_free(a: &TaskAllocator, w: usize, ptr: NonNull<Task>) {
        unsafe {
            assert!(ptr.as_ref().release_ref());
            a.free(w, ptr);
        }
    }

    #[test]
    fn malloc_policy_roundtrip() {
        let a = TaskAllocator::new(AllocKind::Malloc, 2);
        let t = unsafe { a.alloc(0, None, None, 0) };
        assert_eq!(a.outstanding(), 1);
        release_and_free(&a, 0, t);
        assert_eq!(a.outstanding(), 0);
    }

    #[test]
    fn multilevel_recycles_locally() {
        let a = TaskAllocator::new(AllocKind::MultiLevel, 2);
        let t1 = unsafe { a.alloc(0, None, None, 0) };
        let addr1 = t1.as_ptr() as usize;
        release_and_free(&a, 0, t1);
        let t2 = unsafe { a.alloc(0, None, None, 7) };
        assert_eq!(
            t2.as_ptr() as usize,
            addr1,
            "local free list should recycle the record"
        );
        release_and_free(&a, 0, t2);
    }

    #[test]
    fn multilevel_peer_acquisition_via_global_pool() {
        let a = TaskAllocator::new(AllocKind::MultiLevel, 2);
        // Worker 0 allocates and frees enough to spill to the global pool.
        let mut ptrs = Vec::new();
        for _ in 0..(LOCAL_CACHE_MAX + 50) {
            ptrs.push(unsafe { a.alloc(0, None, None, 0) });
        }
        for p in ptrs {
            release_and_free(&a, 0, p);
        }
        assert!(
            !a.global.lock().is_empty(),
            "overflow should spill to the global pool"
        );
        // Worker 1 can now acquire recycled records without malloc.
        let before = a.global.lock().len();
        let t = unsafe { a.alloc(1, None, None, 0) };
        let after = a.global.lock().len();
        assert!(after < before, "worker 1 should take a global chunk");
        release_and_free(&a, 1, t);
    }

    #[test]
    fn bodies_are_dropped_on_free() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        for kind in [AllocKind::Malloc, AllocKind::MultiLevel] {
            DROPS.store(0, Ordering::SeqCst);
            let a = TaskAllocator::new(kind, 1);
            // One body stored inline, one too large for it (boxed).
            let canary = Canary;
            let inline = TaskBody::new(move |_| {
                let _keep = &canary;
            });
            let (canary, pad) = (Canary, [0u8; 2 * crate::task::INLINE_BODY_BYTES]);
            let boxed = TaskBody::new(move |_| {
                let _keep = (&canary, &pad);
            });
            for body in [inline, boxed] {
                let t = unsafe { a.alloc(0, Some(body), None, 0) };
                release_and_free(&a, 0, t);
            }
            // A recycled record must not drop a body twice.
            let t = unsafe { a.alloc(0, None, None, 0) };
            release_and_free(&a, 0, t);
            drop(a);
            assert_eq!(
                DROPS.load(Ordering::SeqCst),
                2,
                "{kind:?}: each unexecuted body must be dropped once on free"
            );
        }
    }
}
