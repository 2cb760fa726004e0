//! Team-barrier implementations (§III-B).
//!
//! A team barrier in this runtime plays two roles, exactly as in GOMP:
//! it is the *termination detector* for the tasking region (tracking
//! outstanding tasks) and the *rendezvous* at the end of the parallel
//! region. Three designs are provided:
//!
//! | Kind | Counting | Release | Models |
//! |------|----------|---------|--------|
//! | [`CentralizedBarrier`] | global mutex-guarded counter | flag under the same class of global lock | GOMP's team barrier (global task lock) |
//! | [`AtomicCountBarrier`] | shared atomic counter, acq-rel RMW | shared release flag | XGOMP (lock removed, counter kept atomic) |
//! | [`TreeBarrier`] | per-worker lock-less counters | hybrid: lock-free tree gather + lock-less tree release | XGOMPTB (§III-B) |
//!
//! Workers sit in the scheduling loop and call `TeamBarrier::try_release`
//! whenever they find no work; the barrier answers `true` once the region
//! has quiesced (all tasks executed *and* the master has arrived).

mod atomic_count;
mod centralized;
mod tree;

pub use atomic_count::AtomicCountBarrier;
pub use centralized::CentralizedBarrier;
pub use tree::TreeBarrier;

use serde::{Deserialize, Serialize};

/// Barrier implementation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BarrierKind {
    /// Mutex-guarded count and release check (GOMP model).
    Centralized,
    /// Shared atomic task counter with acquire-release RMW (XGOMP).
    AtomicCount,
    /// Hybrid lock-free-gather / lock-less-release distributed binary
    /// tree (XGOMPTB).
    Tree,
}

impl BarrierKind {
    /// Instantiates the barrier for a team of `n` workers.
    ///
    /// `parker` is the team's idle parker. Only the tree barrier uses
    /// it: its gather protocol needs *every* worker to report per round,
    /// so the bottom-up hand-off wakes a parked parent and a new round
    /// wakes everyone (see `tree.rs`). The shared-counter barriers
    /// detect release from any awake poller, which then performs the
    /// team-wide wake in the worker loop.
    pub(crate) fn build(
        self,
        n: usize,
        parker: std::sync::Arc<xgomp_xqueue::Parker>,
    ) -> Box<dyn TeamBarrier> {
        match self {
            BarrierKind::Centralized => Box::new(CentralizedBarrier::new(n)),
            BarrierKind::AtomicCount => Box::new(AtomicCountBarrier::new(n)),
            BarrierKind::Tree => Box::new(TreeBarrier::new(n).with_parker(parker)),
        }
    }
}

/// The barrier/termination-detection interface the worker loop drives.
///
/// Contract (shared by all implementations):
///
/// * [`task_created`](TeamBarrier::task_created) is called by the
///   spawning worker **before** the task becomes visible to any queue;
/// * [`task_finished`](TeamBarrier::task_finished) is called by the
///   executing worker **after** the task body has returned;
/// * [`arrive`](TeamBarrier::arrive) is called once per worker when it
///   reaches the end-of-region barrier (the master calls it after the
///   region closure returns; other workers on entry to their loop);
/// * [`try_release`](TeamBarrier::try_release) must be called only by an
///   *idle* worker (one holding no task), and returns `true` once the
///   barrier has released; after that the worker must leave the loop.
pub(crate) trait TeamBarrier: Send + Sync {
    /// Records that `worker` created a task (before it is published).
    fn task_created(&self, worker: usize);
    /// Records that `worker` finished executing a task.
    fn task_finished(&self, worker: usize);
    /// Worker has reached the region-end barrier construct.
    fn arrive(&self, worker: usize);
    /// Idle worker polls for release. `true` = region complete.
    fn try_release(&self, worker: usize) -> bool;
    /// Implementation name (reports, debugging).
    fn name(&self) -> &'static str;
}
