//! The user-facing tasking API: [`TaskCtx`] (the current task's view of
//! the runtime) and [`Scope`] (structured, borrow-friendly spawning).
//!
//! The API mirrors how BOTS applications use OpenMP tasking:
//!
//! ```text
//! #pragma omp task shared(x)        →  scope.spawn(|ctx| …borrow x…)
//! #pragma omp taskwait              →  ctx.taskwait()  (implicit at scope end)
//! ```
//!
//! `scope` guarantees — even on unwinding — that every task spawned
//! within it completes before the scope returns, which is what makes
//! borrowing from the enclosing frame sound (the same reasoning as
//! `std::thread::scope`).

use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use xgomp_profiling::{clock, EventKind, WorkerStats};
use xgomp_xqueue::Backoff;

use crate::cancel::{raise_cancel, CancelToken};
use crate::task::{Task, TaskBody};
use crate::team::{execute, TeamShared};

/// A task's handle to the runtime: passed to every task body and to the
/// parallel-region closure.
pub struct TaskCtx<'t> {
    pub(crate) team: &'t TeamShared,
    pub(crate) worker: usize,
    pub(crate) task: NonNull<Task>,
}

impl<'t> TaskCtx<'t> {
    /// Index of the worker executing this task (0 = master).
    #[inline]
    pub fn worker_id(&self) -> usize {
        self.worker
    }

    /// Team size.
    #[inline]
    pub fn n_workers(&self) -> usize {
        self.team.n
    }

    /// Simulated NUMA zone of this worker (see `xgomp-topology`).
    #[inline]
    pub fn numa_zone(&self) -> usize {
        self.team.placement.zone_of(self.worker)
    }

    /// The team's worker placement (topology queries).
    #[inline]
    pub fn placement(&self) -> &xgomp_topology::Placement {
        &self.team.placement
    }

    /// Spawns a child task with default priority. The body must be
    /// `'static`; to borrow from the current frame use
    /// [`scope`](Self::scope).
    #[inline]
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'static,
    {
        self.spawn_impl(TaskBody::new(f), 0);
    }

    /// Spawns a child task with a GOMP-style priority (only the GOMP
    /// scheduler orders by it; the others ignore it, as XQueue is
    /// relaxed-order by design).
    #[inline]
    pub fn spawn_with_priority<F>(&self, priority: i32, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'static,
    {
        self.spawn_impl(TaskBody::new(f), priority);
    }

    /// Spawns an already-boxed body. The box is stored in the task
    /// record as is, without re-boxing.
    #[inline]
    pub fn spawn_boxed(&self, body: Box<dyn FnOnce(&TaskCtx<'_>) + Send + 'static>) {
        self.spawn(body);
    }

    /// Spawns a child into the *calling worker's own* queue, bypassing
    /// the round-robin cursor. This is the placement externally injected
    /// jobs need: a cross-pushed task lands in one peer's SPSC queue and
    /// is unreachable by anyone else until that peer next visits the
    /// scheduler — if the peer is stalled inside a long-running task
    /// body, the job is stranded even while other workers idle. A
    /// self-spawned task is popped by the very next scheduler visit of
    /// the worker that chose to take it.
    #[inline]
    pub fn spawn_local<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'static,
    {
        self.spawn_impl_placed(TaskBody::new(f), 0, Some(self.worker));
    }

    /// [`spawn_local`](Self::spawn_local) for an already-boxed body.
    #[inline]
    pub fn spawn_boxed_local(&self, body: Box<dyn FnOnce(&TaskCtx<'_>) + Send + 'static>) {
        self.spawn_local(body);
    }

    /// Like [`run_pending`](Self::run_pending), but when the scheduler
    /// is empty it also polls the team's ingress source (if any) and
    /// runs whatever that injected. This is the helping step a job must
    /// use while waiting on *another job* (`JobHandle::join_within` in
    /// `xgomp-service`): with every worker busy waiting, the awaited
    /// jobs may still be sitting in the ingress, reachable by no one
    /// else.
    pub fn help_pending(&self, max: usize) -> usize {
        let ran = self.run_pending(max);
        if ran > 0 {
            return ran;
        }
        let team = self.team;
        if let Some(src) = &team.source {
            if let Some(root) = NonNull::new(team.root.load(Ordering::Acquire)) {
                let root_ctx = TaskCtx {
                    team,
                    worker: self.worker,
                    task: root,
                };
                if src.poll(&root_ctx) > 0 {
                    return self.run_pending(max);
                }
            }
        }
        0
    }

    /// Whether the team has been poisoned by an un-isolated panic (the
    /// region is ending abnormally; cooperative loops should bail out).
    pub fn is_poisoned(&self) -> bool {
        self.team.poisoned.load(Ordering::Relaxed)
    }

    /// Installs a [`CancelToken`] on the current task. Every task spawned
    /// from here on (directly or transitively) inherits a clone, and the
    /// runtime's cancellation checkpoints — chunk claims in
    /// `parallel_for` drains, [`taskwait`](Self::taskwait) exits — poll
    /// it. The task server installs one per job; plain runtime users can
    /// install their own to make a task tree cancellable.
    pub fn set_cancel_token(&self, token: CancelToken) {
        // SAFETY: we are the executing worker of `self.task`.
        unsafe { Task::set_cancel(self.task, Some(token)) };
    }

    /// Removes the current task's [`CancelToken`]. Tasks already spawned
    /// keep their inherited clones; new spawns inherit nothing.
    pub fn clear_cancel_token(&self) {
        // SAFETY: we are the executing worker of `self.task`.
        unsafe { Task::set_cancel(self.task, None) };
    }

    /// The current task's cancellation token, if one is installed (on it
    /// or inherited from the task that spawned it).
    pub fn cancel_token(&self) -> Option<CancelToken> {
        // SAFETY: we are the executing worker of `self.task`.
        unsafe { Task::cancel_token(self.task) }
    }

    /// Whether the current task's cancellation token (if any) has fired.
    /// One relaxed load on the live path; long-running bodies that want
    /// tighter cancellation latency than the chunk/taskwait checkpoints
    /// give them poll this and return early.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.cancel_token().is_some_and(|t| t.poll().is_some())
    }

    /// Cancellation checkpoint: unwinds with a
    /// [`CancelUnwind`](crate::CancelUnwind) payload when the current
    /// task's token has fired. Only meaningful on panic-isolating teams
    /// (the task server), where the unwind is caught at the job boundary;
    /// elsewhere it is a no-op so a stray token cannot poison a team.
    #[inline]
    pub fn check_cancel(&self) {
        if !self.team.isolate_panics || std::thread::panicking() {
            return;
        }
        if let Some(token) = self.cancel_token() {
            if let Some(reason) = token.poll() {
                raise_cancel(reason);
            }
        }
    }

    /// The team's NUMA-aware idle parker.
    ///
    /// Custom master loops (a task server's serve loop) use it to park
    /// the calling worker with the same announce → re-check → commit
    /// protocol the worker loop uses, and submitters clone it as their
    /// doorbell. Whether the *scheduler's* idle arm parks is
    /// [`park_idle_enabled`](Self::park_idle_enabled); the parker itself
    /// always works.
    pub fn parker(&self) -> &Arc<xgomp_xqueue::Parker> {
        &self.team.parker
    }

    /// Whether this team runs event-driven idling
    /// (`RuntimeConfig::park_idle`).
    pub fn park_idle_enabled(&self) -> bool {
        self.team.park_idle
    }

    /// Racy hint that the scheduler could yield a task for this worker
    /// right now — the pre-park re-check for custom idle loops.
    pub fn has_local_work_hint(&self) -> bool {
        self.team.sched.has_work_hint(self.worker)
    }

    /// Whether the team's flight recorder is live at `min` or above
    /// (one relaxed load + branch; `false` when tracing is off).
    #[inline]
    pub fn trace_on(&self, min: xgomp_profiling::TraceLevel) -> bool {
        self.team.trace_on(min)
    }

    /// Emits one flight-recorder record into the calling worker's ring
    /// when the team's live trace level admits `min` (no-op otherwise —
    /// the cost of [`trace_on`](Self::trace_on)). This is the hook
    /// layered runtimes (the task server's job lifecycle) use to place
    /// their own events on the same timeline as the scheduler's.
    #[inline]
    pub fn trace_emit(
        &self,
        min: xgomp_profiling::TraceLevel,
        kind: EventKind,
        a: u32,
        b: u64,
        c: u64,
    ) {
        self.team.trace_emit(self.worker, min, kind, a, b, c);
    }

    /// Executes up to `max` already-queued tasks on the calling worker,
    /// returning how many ran. Unlike [`taskwait`](Self::taskwait) this
    /// never blocks: it is the cooperative scheduling point a server's
    /// master loop interleaves with ingress polling and controller work.
    pub fn run_pending(&self, max: usize) -> usize {
        let team = self.team;
        let w = self.worker;
        let mut ran = 0;
        while ran < max {
            if team.poisoned.load(Ordering::Relaxed) {
                break;
            }
            match team.sched.next_task(w) {
                Some(t) => {
                    team.sched.pre_execute(w);
                    execute(team, w, t);
                    ran += 1;
                }
                None => break,
            }
        }
        ran
    }

    /// Structured spawning: tasks created through the [`Scope`] may
    /// borrow from the enclosing frame; the scope taskwaits on exit
    /// (normal or unwinding), so no borrow can outlive its referent.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        /// Taskwait-on-drop so panics cannot leak borrowed tasks.
        struct WaitGuard<'a, 'b>(&'a TaskCtx<'b>);
        impl Drop for WaitGuard<'_, '_> {
            fn drop(&mut self) {
                self.0.taskwait();
            }
        }
        let guard = WaitGuard(self);
        let scope = Scope {
            ctx: self,
            _env: PhantomData,
        };
        let r = f(&scope);
        drop(guard); // the implicit taskwait
        r
    }

    /// Blocks (helpfully — executing other tasks meanwhile, as GOMP's
    /// taskwait scheduling point does) until every direct child of the
    /// current task has completed.
    pub fn taskwait(&self) {
        let team = self.team;
        let w = self.worker;
        // SAFETY: the record outlives execution (refcount held by us).
        let task = unsafe { self.task.as_ref() };
        if task.unfinished_children() == 0 {
            self.reraise_child_panic(task);
            self.check_cancel();
            return;
        }
        let mut backoff = Backoff::new();
        let mut wait_t0: Option<u64> = None;
        while task.unfinished_children() != 0 {
            if team.poisoned.load(Ordering::Relaxed) {
                return; // a sibling task panicked; bail out
            }
            if let Some(t) = team.sched.next_task(w) {
                if let Some(t0) = wait_t0.take() {
                    team.log_span(w, EventKind::TaskWait, t0);
                }
                team.sched.pre_execute(w);
                execute(team, w, t);
                backoff.reset();
                continue;
            }
            team.sched.on_idle(w);
            if team.profiling && wait_t0.is_none() {
                wait_t0 = Some(clock::now());
            }
            backoff.snooze();
        }
        if let Some(t0) = wait_t0 {
            team.log_span(w, EventKind::TaskWait, t0);
        }
        self.reraise_child_panic(task);
        // Cancellation checkpoint at the taskwait boundary: children are
        // quiescent (none left to leak), so this is a safe place for the
        // cooperative unwind.
        self.check_cancel();
    }

    /// Panic-isolating teams: a child that panicked left its payload on
    /// this task; quiescence reached, re-raise it here so the failure
    /// surfaces at the job boundary instead of poisoning the team. Never
    /// double-panics (scope's taskwait-on-drop runs during unwinds).
    fn reraise_child_panic(&self, task: &Task) {
        if !self.team.isolate_panics || std::thread::panicking() {
            return;
        }
        if let Some(payload) = task.take_child_panic() {
            std::panic::resume_unwind(payload);
        }
    }

    /// Core spawn path (§III-A): count for the barrier *before*
    /// publication, link the dependency atomically, allocate, then push —
    /// falling back to immediate execution when the target queue is full.
    pub(crate) fn spawn_impl(&self, body: TaskBody, priority: i32) {
        self.spawn_impl_placed(body, priority, None)
    }

    /// [`spawn_impl`](Self::spawn_impl) with an optional placement
    /// target: `Some(t)` asks the scheduler to hand the task to worker
    /// `t` (the zone-affine placement of loop-drain tasks; schedulers
    /// without per-worker queues ignore it).
    pub(crate) fn spawn_impl_placed(&self, body: TaskBody, priority: i32, target: Option<usize>) {
        let team = self.team;
        let w = self.worker;
        let t0 = if team.profiling { clock::now() } else { 0 };
        team.barrier.task_created(w);
        // SAFETY: parent record is alive (we are executing it).
        let parent = unsafe { self.task.as_ref() };
        parent.retain();
        parent.add_child();
        // SAFETY: this thread owns worker slot `w`.
        let ptr = unsafe { team.alloc.alloc(w, Some(body), Some(self.task), priority) };
        // Children inherit the parent's cancellation token, so a job's
        // whole task tree answers to one flag.
        // SAFETY: we execute the parent; the child is not yet published.
        unsafe {
            if let Some(token) = Task::cancel_token(self.task) {
                Task::set_cancel(ptr, Some(token));
            }
        }
        WorkerStats::inc(&team.stats[w].tasks_created);
        let pushed = match target {
            Some(t) => team.sched.spawn_to(w, t, ptr),
            None => team.sched.spawn(w, ptr),
        };
        match pushed {
            Ok(()) => {
                if team.profiling {
                    team.log_span(w, EventKind::TaskCreate, t0);
                }
            }
            Err(p) => {
                // Overflow rule: execute the task immediately (§II-B).
                WorkerStats::inc(&team.stats[w].ntasks_imm_exec);
                if team.profiling {
                    team.log_span(w, EventKind::TaskCreate, t0);
                }
                execute(team, w, p);
            }
        }
    }
}

/// Structured-spawn handle; see [`TaskCtx::scope`].
pub struct Scope<'ctx, 'env> {
    ctx: &'ctx TaskCtx<'ctx>,
    /// Invariant in `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'ctx, 'env> Scope<'ctx, 'env> {
    /// Spawns a task that may borrow anything outliving the scope.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'env,
    {
        // SAFETY: the scope's taskwait (WaitGuard, run even on unwind)
        // ensures this body finishes before any `'env` borrow ends, so
        // erasing the lifetime cannot let the body observe freed data.
        let body = unsafe { TaskBody::new_unchecked(f) };
        self.ctx.spawn_impl(body, 0);
    }

    /// Spawns a borrowing task with a GOMP priority.
    pub fn spawn_with_priority<F>(&self, priority: i32, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'env,
    {
        // SAFETY: as in `spawn`.
        let body = unsafe { TaskBody::new_unchecked(f) };
        self.ctx.spawn_impl(body, priority);
    }

    /// Spawns a borrowing task with a *placement target*: worker
    /// `target` gets the task in its own queue (best effort — a full
    /// queue falls back to immediate execution, and dynamic load
    /// balancing may still migrate it). This is how `parallel_for`
    /// places its per-worker loop-drain tasks zone-affinely.
    pub fn spawn_on<F>(&self, target: usize, f: F)
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'env,
    {
        // SAFETY: as in `spawn`.
        let body = unsafe { TaskBody::new_unchecked(f) };
        self.ctx.spawn_impl_placed(body, 0, Some(target));
    }

    /// The underlying context (worker id, topology queries).
    pub fn ctx(&self) -> &TaskCtx<'ctx> {
        self.ctx
    }
}
