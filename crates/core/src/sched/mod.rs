//! Scheduler backends: who holds the task queues and how workers find
//! work.
//!
//! | Kind | Structure | Models |
//! |------|-----------|--------|
//! | [`GompScheduler`] | one global mutex-guarded priority queue | GNU OpenMP's global task lock + priority queue (§II-A) |
//! | [`LompScheduler`] | per-worker lock-free deques + random stealing | LLVM OpenMP's tasking path |
//! | [`XQueueScheduler`] | the XQueue lattice, static round-robin push, optional lock-less DLB | XGOMP/XGOMPTB (§III-A, §IV) |

mod gomp;
mod lomp;
mod xq;

pub use gomp::GompScheduler;
pub use lomp::LompScheduler;
pub use xq::XQueueScheduler;

use std::ptr::NonNull;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use xgomp_profiling::WorkerStats;
use xgomp_topology::Placement;
use xgomp_xqueue::Parker;

use crate::dlb::DlbTuning;
use crate::loops::LoopBalancer;
use crate::task::Task;

/// Scheduler implementation selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Global locked priority queue (GOMP model).
    Gomp,
    /// Per-worker lock-free work-stealing deques (LOMP model).
    Lomp,
    /// XQueue lattice with static round-robin balancing; pass a
    /// [`DlbConfig`](crate::DlbConfig) through `SchedulerKind::build` to enable NA-RP or
    /// NA-WS on top.
    XQueue,
}

impl SchedulerKind {
    /// Instantiates the scheduler for a team of `n` workers.
    ///
    /// `tuning` (hoisted by the team builder from the runtime's
    /// `DlbConfig` or supplied by a server) enables the DLB engine and
    /// stays shared with the caller, enabling hot re-tuning while the
    /// team runs (XQueue scheduler only). `parker` is the team's idle
    /// parker: schedulers wake the push target (or, for global queues, a
    /// zone-local sleeper) after publishing a task, so parked workers
    /// never miss work. `balancer` is the team's inter-socket loop
    /// balancer, probed from the DLB engine's idle hook.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build(
        self,
        n: usize,
        queue_capacity: usize,
        stats: Arc<Vec<WorkerStats>>,
        placement: Arc<Placement>,
        tuning: Option<Arc<DlbTuning>>,
        parker: Arc<Parker>,
        balancer: Arc<LoopBalancer>,
    ) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Gomp => Box::new(GompScheduler::new(stats, parker)),
            SchedulerKind::Lomp => Box::new(LompScheduler::new(n, stats, parker)),
            SchedulerKind::XQueue => Box::new(XQueueScheduler::new(
                n,
                queue_capacity,
                stats,
                placement,
                tuning,
                parker,
                balancer,
            )),
        }
    }
}

/// The scheduling-point interface the worker loop drives.
///
/// All methods take the worker index; methods touching per-worker state
/// carry the worker-ownership contract (the calling thread must be the
/// one running worker `w`), which the team enforces structurally.
pub(crate) trait Scheduler: Send + Sync {
    /// Publishes a freshly spawned task. `Err(task)` hands the task back
    /// for immediate execution (the XQueue overflow rule); unbounded
    /// schedulers never return `Err`.
    fn spawn(&self, w: usize, task: NonNull<Task>) -> Result<(), NonNull<Task>>;

    /// Publishes a task with a *placement target*: the caller wants
    /// `target` (a worker index) to execute it — the zone-affine initial
    /// placement of `parallel_for`'s per-worker loop-drain tasks. The
    /// default ignores the hint (schedulers without per-worker queues
    /// cannot honor it); the overflow rule is as for
    /// [`spawn`](Self::spawn).
    fn spawn_to(&self, w: usize, target: usize, task: NonNull<Task>) -> Result<(), NonNull<Task>> {
        let _ = target;
        self.spawn(w, task)
    }

    /// Fetches the next task for worker `w`, if any.
    fn next_task(&self, w: usize) -> Option<NonNull<Task>>;

    /// Scheduling-point hook fired after `next_task` succeeded, before
    /// execution (the DLB *victim* hook).
    fn pre_execute(&self, _w: usize) {}

    /// Hook fired when `next_task` returned `None` (the DLB *thief*
    /// hook).
    fn on_idle(&self, _w: usize) {}

    /// Racy hint that worker `w` could find a task right now — the
    /// pre-park re-check of the event-driven idle path. May report stale
    /// `true` (the worker cancels its park and re-probes, harmless); a
    /// `false` is only trusted because every producer wakes its push
    /// target *after* publishing, closing the race with a `SeqCst` fence
    /// pair (see `xgomp_xqueue::parker`).
    fn has_work_hint(&self, w: usize) -> bool;

    /// Removes every remaining task (teardown path; the region barrier
    /// guarantees emptiness, so anything drained here is a bug surfaced
    /// by the caller). Called single-threaded after all workers joined.
    fn drain_all(&self, f: &mut dyn FnMut(NonNull<Task>));

    /// Implementation name for reports.
    fn name(&self) -> &'static str;
}

/// A `Send` wrapper for task pointers stored inside scheduler containers.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TaskPtr(pub NonNull<Task>);
// SAFETY: `Task` is `Send`; the pointer is an owning handle moved between
// threads through the queues.
unsafe impl Send for TaskPtr {}
