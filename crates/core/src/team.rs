//! Team construction and the worker scheduling loop: the runtime's
//! equivalent of `gomp_team_start` / `gomp_thread_start` (§III-A).
//!
//! Two execution engines share the same region machinery:
//!
//! * [`Runtime::parallel`] opens a *one-shot* parallel region with
//!   scoped threads (the paper's per-region measurement methodology): it
//!   builds the team (scheduler, barrier, allocator, message cells,
//!   profiler), runs the region closure on the master as the *implicit
//!   task* (the BOTS `parallel` + `single` idiom), and lets every worker
//!   run the scheduling loop until the team barrier detects quiescence.
//! * [`PersistentTeam`] keeps its worker threads alive across regions:
//!   workers park on a generation-stamped [start gate](StartGate) between
//!   regions instead of being respawned, which is what a long-lived task
//!   server needs. Each `run` call opens one *generation* — a region with
//!   fresh barrier/scheduler state — and optionally wires in an
//!   [`IngressSource`] that idle workers poll for externally submitted
//!   work, plus a [`LiveTaskSampler`](xgomp_profiling::LiveTaskSampler) /
//!   [`DlbTuning`] pair for online Table-IV adaptation (`xgomp-service`
//!   builds on exactly this hook set).

use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use xgomp_profiling::{
    clock, EventKind, LiveTaskSampler, LoopTelemetry, PerfLog, TeamStats, TraceLevel, Tracer,
    WorkerStats,
};
use xgomp_topology::{CostModel, Placement};
use xgomp_xqueue::{Backoff, EventRing, Parker};

use crate::alloc::TaskAllocator;
use crate::barrier::TeamBarrier;
use crate::config::RuntimeConfig;
use crate::ctx::TaskCtx;
use crate::dlb::DlbTuning;
use crate::loops::{AutoSelector, LoopBalancer};
use crate::sched::Scheduler;
use crate::task::Task;
use crate::util::PerWorker;

/// Stack size for worker threads. The scheduling loops *help*: an
/// executing task that waits (taskwait, overflow → execute-immediately)
/// picks up further tasks in a nested `execute` frame, so recursion
/// depth scales with the task backlog, not with user recursion. 32 MiB
/// of (virtual, lazily-committed) stack keeps deep fine-grained
/// workloads like BOTS fib off the guard page.
const WORKER_STACK_BYTES: usize = 32 * 1024 * 1024;

/// External work feed polled by idle workers (the persistent executor's
/// job-injection hook).
///
/// `poll` runs on an idle worker with a context rooted at the region's
/// implicit task; it may spawn any number of tasks through `ctx` and
/// returns how many it spawned. Implementations must stop yielding work
/// once their shutdown drain has completed — after the region master has
/// arrived at the barrier *and* the team has quiesced, nothing may be
/// injected anymore (the runtime guarantees this is unreachable as long
/// as every accepted job is spawned before it is counted as drained).
pub trait IngressSource: Send + Sync {
    /// Polls for external work; returns the number of tasks spawned.
    fn poll(&self, ctx: &TaskCtx<'_>) -> usize;

    /// Racy hint that a `poll` right now could yield work — the
    /// pre-park re-check of the event-driven idle path. The default is
    /// deliberately conservative (`true`): a source that cannot answer
    /// keeps its workers spinning, never parked, preserving the old
    /// behavior. Implementations that *do* answer must wake a worker
    /// (ring the team's doorbell) after every enqueue, or a sleeping
    /// team will miss the work their `false` allowed it to sleep
    /// through.
    fn has_pending(&self) -> bool {
        true
    }
}

/// Optional per-region extensions (persistent-executor hook set).
#[derive(Default)]
pub(crate) struct TeamExtras {
    pub source: Option<Arc<dyn IngressSource>>,
    pub sampler: Option<Arc<LiveTaskSampler>>,
    pub tuning: Option<Arc<DlbTuning>>,
    /// Cross-generation loop-subsystem counters (`parallel_for` folds
    /// its per-loop totals in here when present).
    pub loop_stats: Option<Arc<LoopTelemetry>>,
    /// Inter-socket loop balancer shared across generations (a task
    /// server owns one for its whole life so live loops keep their
    /// registry across pause/resume); `None` builds a per-region one.
    pub balancer: Option<Arc<LoopBalancer>>,
    /// `Schedule::Auto` per-loop-site selector, server-owned so
    /// selection state (trial windows, converged picks) survives
    /// pause/resume; `None` makes `Auto` fall back to a fixed member.
    pub auto_select: Option<Arc<AutoSelector>>,
    /// Catch task-body panics instead of poisoning the team: the payload
    /// is carried to the parent's next `taskwait`, which re-raises it
    /// (per-job isolation in `xgomp-service`).
    pub isolate_panics: bool,
    /// Flight-recorder tracer shared across generations (a task server
    /// owns one for its whole life so the ring windows survive
    /// pause/resume reshaping); `None` falls back to
    /// [`RuntimeConfig::trace`] (which builds a per-team tracer when the
    /// level is not `Off`).
    pub tracer: Option<Arc<Tracer>>,
}

/// The team-generation view of the flight recorder: the shared
/// [`Tracer`] plus each worker's ring `Arc`, materialized once at
/// generation start so the emit path never touches the tracer's mutex.
pub(crate) struct TeamTracer {
    pub tracer: Arc<Tracer>,
    pub rings: Box<[Arc<EventRing>]>,
}

/// Everything a team of workers shares for one parallel region.
pub(crate) struct TeamShared {
    pub n: usize,
    pub sched: Box<dyn Scheduler>,
    pub barrier: Box<dyn TeamBarrier>,
    pub alloc: TaskAllocator,
    pub stats: Arc<Vec<WorkerStats>>,
    pub placement: Arc<Placement>,
    pub cost: CostModel,
    pub logs: PerWorker<PerfLog>,
    pub profiling: bool,
    /// Set when any task body panicked; workers drain out instead of
    /// spinning on a barrier that can no longer release.
    pub poisoned: AtomicBool,
    /// External work feed polled by idle workers (persistent executor).
    pub source: Option<Arc<dyn IngressSource>>,
    /// Online task-size sampling (always-on when present).
    pub sampler: Option<Arc<LiveTaskSampler>>,
    /// Cross-generation loop counters (see [`TeamExtras::loop_stats`]).
    pub loop_stats: Option<Arc<LoopTelemetry>>,
    /// Inter-socket loop balancer (coarse level of two-level loop
    /// balancing); probed by loop-drain tasks and the DLB idle hook.
    pub balancer: Arc<LoopBalancer>,
    /// `Schedule::Auto` selector (see [`TeamExtras::auto_select`]).
    pub auto_select: Option<Arc<AutoSelector>>,
    /// The region's implicit task, published by the master so idle
    /// workers can parent injected tasks to it; null outside a region.
    pub root: AtomicPtr<Task>,
    /// See [`TeamExtras::isolate_panics`].
    pub isolate_panics: bool,
    /// NUMA-aware idle parker (zone wake sets follow the placement).
    /// Always present; whether workers actually park is `park_idle`.
    pub parker: Arc<Parker>,
    /// Event-driven idling on/off (`RuntimeConfig::park_idle`).
    pub park_idle: bool,
    /// Flight recorder (`None` when tracing is off *by construction*;
    /// a live level flip to `Off` keeps the rings but mutes every
    /// site behind one relaxed load).
    pub tracer: Option<TeamTracer>,
}

/// Builds the shared state for one region of `cfg` with the given
/// extension hooks (used by both execution engines).
fn build_team(cfg: &RuntimeConfig, extras: TeamExtras) -> TeamShared {
    let n = cfg.threads;
    let placement = Arc::new(Placement::new(cfg.topology.clone(), n, cfg.affinity));
    let stats: Arc<Vec<WorkerStats>> = Arc::new((0..n).map(|_| WorkerStats::default()).collect());
    let parker = Arc::new(Parker::new(
        &(0..n).map(|w| placement.zone_of(w)).collect::<Vec<_>>(),
    ));
    // The tuning cell is hoisted here (instead of being created inside
    // the scheduler) so the loop balancer can ride its
    // `rebalance_interval` knob — hot-swappable exactly like the task
    // DLB knobs.
    let tuning = extras
        .tuning
        .or_else(|| cfg.dlb.map(|d| Arc::new(DlbTuning::new(d))));
    let balancer = extras
        .balancer
        .unwrap_or_else(|| Arc::new(LoopBalancer::new()));
    if let Some(t) = &tuning {
        balancer.bind_tuning(t);
    }
    let tracer = extras
        .tracer
        .or_else(|| (cfg.trace != TraceLevel::Off).then(|| Arc::new(Tracer::new(cfg.trace))))
        .map(|t| {
            let rings = (0..n).map(|w| t.ring(w)).collect();
            TeamTracer { tracer: t, rings }
        });
    TeamShared {
        n,
        sched: cfg.scheduler.build(
            n,
            cfg.queue_capacity,
            stats.clone(),
            placement.clone(),
            tuning,
            parker.clone(),
            balancer.clone(),
        ),
        barrier: cfg.barrier.build(n, parker.clone()),
        alloc: TaskAllocator::new(cfg.allocator, n),
        stats,
        placement,
        cost: cfg.cost_model,
        logs: PerWorker::new(n, |w| PerfLog::new(w, cfg.profiling)),
        profiling: cfg.profiling,
        poisoned: AtomicBool::new(false),
        source: extras.source,
        sampler: extras.sampler,
        loop_stats: extras.loop_stats,
        balancer,
        auto_select: extras.auto_select,
        root: AtomicPtr::new(std::ptr::null_mut()),
        isolate_panics: extras.isolate_panics,
        parker,
        park_idle: cfg.park_idle,
        tracer,
    }
}

/// Teardown checks + telemetry collection for a quiesced region.
fn finish_region<R>(team: TeamShared, result: R, wall: Duration) -> RegionOutput<R> {
    // Teardown sanity: a correct barrier leaves nothing queued.
    let mut leaked = 0usize;
    team.sched.drain_all(&mut |ptr| {
        leaked += 1;
        discard_task(&team, ptr);
    });
    assert_eq!(
        leaked,
        0,
        "scheduler `{}` retained {leaked} task(s) after `{}` released",
        team.sched.name(),
        team.barrier.name()
    );
    debug_assert_eq!(
        team.alloc.outstanding(),
        0,
        "task records leaked by the region"
    );

    let TeamShared { stats, logs, .. } = team;
    RegionOutput {
        result,
        stats: TeamStats::collect(&stats),
        logs: logs.into_values(),
        wall,
    }
}

impl TeamShared {
    /// Records a profiling span ending now (no-op when profiling is off).
    #[inline]
    pub(crate) fn log_span(&self, w: usize, kind: EventKind, t0: u64) {
        if self.profiling {
            // SAFETY: worker-ownership contract; leaf access.
            unsafe { self.logs.with(w, |l| l.push_span(kind, t0, clock::now())) };
        }
    }

    /// Marks the team poisoned and wakes every parked worker so the
    /// abort is observed — a sleeping worker cannot poll the flag.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        self.parker.unpark_all();
    }

    /// The Off-cost trace gate: `false` unless a tracer is attached
    /// *and* its live level admits `min` (one relaxed load + branch).
    #[inline]
    pub(crate) fn trace_on(&self, min: TraceLevel) -> bool {
        match &self.tracer {
            Some(t) => t.tracer.enabled(min),
            None => false,
        }
    }

    /// Emits one flight-recorder record from worker `w` when the live
    /// level admits `min`. The emit itself is four relaxed stores plus
    /// one release publish into `w`'s own SPSC ring — no RMW, no lock.
    #[inline]
    pub(crate) fn trace_emit(
        &self,
        w: usize,
        min: TraceLevel,
        kind: EventKind,
        a: u32,
        b: u64,
        c: u64,
    ) {
        if let Some(t) = &self.tracer {
            if t.tracer.enabled(min) {
                t.rings[w].emit(clock::now(), kind as u8, a, b, c);
            }
        }
    }
}

/// Executes one task on worker `w`: locality accounting, NUMA cost
/// model, the body itself, then completion (dependency updates, barrier
/// notification, record release) — which a drop guard performs even if
/// the body unwinds.
pub(crate) fn execute(team: &TeamShared, w: usize, task: NonNull<Task>) {
    // SAFETY: we hold the task's handle reference; the record is alive.
    let creator = unsafe { task.as_ref() }.creator();
    let locality = team.placement.locality(creator, w);
    team.stats[w].record_execution(locality);
    team.cost.apply(locality);

    let tracing_tasks = team.trace_on(TraceLevel::Full);
    let timed = team.profiling || team.sampler.is_some() || tracing_tasks;
    let t0 = if timed { clock::now() } else { 0 };

    struct CompletionGuard<'a> {
        team: &'a TeamShared,
        w: usize,
        task: NonNull<Task>,
    }
    impl Drop for CompletionGuard<'_> {
        fn drop(&mut self) {
            let team = self.team;
            let w = self.w;
            if std::thread::panicking() {
                team.poison();
            }
            // SAFETY: record alive until our release below.
            let t = unsafe { self.task.as_ref() };
            if let Some(parent) = t.parent() {
                // SAFETY: the child holds a reference to the parent, so
                // the parent record is alive here.
                let p = unsafe { parent.as_ref() };
                p.child_completed();
                if p.release_ref() {
                    // SAFETY: last reference gone; worker slot owned.
                    unsafe { team.alloc.free(w, parent) };
                }
            }
            team.barrier.task_finished(w);
            if t.release_ref() {
                // SAFETY: as above.
                unsafe { team.alloc.free(w, self.task) };
            }
        }
    }

    let guard = CompletionGuard { team, w, task };
    let ctx = TaskCtx {
        team,
        worker: w,
        task,
    };
    if team.isolate_panics {
        run_body_isolated(&ctx, task);
    } else {
        // SAFETY: single-executor discipline — the handle reference we
        // hold is the only execution claim on this task.
        unsafe { Task::run_body(task, &ctx) };
    }
    drop(guard);
    if timed {
        let t1 = clock::now();
        if let Some(sampler) = &team.sampler {
            sampler.record(w, t1.saturating_sub(t0));
        }
        if team.profiling {
            // SAFETY: worker-ownership contract; leaf access.
            unsafe { team.logs.with(w, |l| l.push_span(EventKind::Task, t0, t1)) };
        }
        if tracing_tasks {
            if let Some(t) = &team.tracer {
                // Emit with the measured end stamp (payload `c` carries
                // the start) so the trace span matches the sampled span.
                t.rings[w].emit(t1, EventKind::Task as u8, 0, 0, t0);
            }
        }
    }
}

/// Panic-isolating teams (the task server): a panicking body fails only
/// its own job. The payload travels to the parent, whose next `taskwait`
/// re-raises it; the completion guard then runs on the normal
/// (non-unwinding) path, so the team is not poisoned.
///
/// Kept out of [`execute`] (`inline(never)`) so the `catch_unwind`
/// landing-pad state doesn't enlarge the classic path's stack frame —
/// `execute` frames nest deeply under the immediate-execution overflow
/// rule, where every byte per frame counts.
#[inline(never)]
fn run_body_isolated(ctx: &TaskCtx<'_>, task: NonNull<Task>) {
    // SAFETY: as in `execute`, whose claim this call inherits.
    let run = || unsafe { Task::run_body(task, ctx) };
    if let Err(payload) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)) {
        // SAFETY: we hold a reference; the record is alive.
        if let Some(parent) = unsafe { task.as_ref() }.parent() {
            // SAFETY: the child retains its parent.
            unsafe { parent.as_ref() }.record_child_panic(payload);
        }
    }
}

/// The scheduling loop every worker runs inside the region-end barrier:
/// execute whatever the scheduler yields; when idle, fire the DLB thief
/// hook and poll the barrier.
///
/// ## The event-driven idle arm
///
/// With [`RuntimeConfig::park_idle`](crate::RuntimeConfig::park_idle) on
/// (the default), a worker that has exhausted its spin backoff parks on
/// the team's NUMA-aware [`Parker`] instead of yield-looping. Every
/// event that could end its idleness has a waker:
///
/// * a producer pushing into its lattice row (or any queue it can
///   reach) wakes it from the scheduler's `spawn`;
/// * a DLB victim migrating tasks into its row wakes it from the engine;
/// * an external submitter wakes it through the ingress doorbell
///   (`xgomp-service`);
/// * tree-barrier gather progress wakes it from the hand-off, so the
///   quiescence protocol counts parked workers correctly;
/// * region teardown and poison wake *everyone* — whichever worker
///   observes release or poisons the team calls
///   [`Parker::unpark_all`] before leaving its loop.
///
/// The announce → re-check → commit protocol (see `xgomp_xqueue::parker`)
/// makes the sleep race-free: the re-check below covers exactly the
/// conditions those wakers signal.
pub(crate) fn worker_loop(team: &TeamShared, w: usize) {
    let mut backoff = Backoff::new();
    // One merged span per idle period: closed as STALL when work shows
    // up, as BARRIER when the region ends (keeps logs bounded).
    let mut idle_t0: Option<u64> = None;
    // Set by a stay-awake park cancellation: skip the next park attempt
    // so the iteration after a cancel re-probes immediately (the hint
    // may be work we can take right now) but, if that probe comes up
    // empty, lands in the snooze below instead of hard-spinning the
    // announce/cancel counters while e.g. another worker holds the
    // drain claim the hint points at.
    let mut skip_park = false;
    // Flight-recorder baseline for this worker's own victim-side DLB
    // counters (single-writer, so deltas are exact): a grown
    // `nreq_has_steal` means a steal request we served moved tasks, a
    // grown `ntasks_stolen` counts the tasks migrated away. Sampling
    // our own counters here avoids threading the tracer through the
    // scheduler/engine call graph.
    let mut steal_base: Option<(u64, u64)> = None;
    loop {
        if team.poisoned.load(Ordering::Acquire) {
            team.parker.unpark_all();
            break;
        }
        if team.trace_on(TraceLevel::Full) {
            let stats = &team.stats[w];
            let served = stats.nreq_has_steal.load(Ordering::Relaxed);
            let stolen = stats.ntasks_stolen.load(Ordering::Relaxed);
            if let Some((served0, stolen0)) = steal_base {
                if served > served0 {
                    team.trace_emit(
                        w,
                        TraceLevel::Full,
                        EventKind::Steal,
                        0,
                        served - served0,
                        0,
                    );
                }
                if stolen > stolen0 {
                    team.trace_emit(
                        w,
                        TraceLevel::Full,
                        EventKind::Migrate,
                        0,
                        stolen - stolen0,
                        0,
                    );
                }
            }
            steal_base = Some((served, stolen));
        } else {
            steal_base = None;
        }
        if let Some(t) = team.sched.next_task(w) {
            if let Some(t0) = idle_t0.take() {
                team.log_span(w, EventKind::Stall, t0);
            }
            team.sched.pre_execute(w);
            execute(team, w, t);
            backoff.reset();
            skip_park = false;
            continue;
        }
        team.sched.on_idle(w);
        // Persistent-executor hook: before concluding the region might be
        // over, pull externally submitted work into the scheduler. The
        // injected tasks become children of the region's implicit task.
        if let Some(src) = &team.source {
            if let Some(root) = NonNull::new(team.root.load(Ordering::Acquire)) {
                let ctx = TaskCtx {
                    team,
                    worker: w,
                    task: root,
                };
                if src.poll(&ctx) > 0 {
                    if let Some(t0) = idle_t0.take() {
                        team.log_span(w, EventKind::Stall, t0);
                    }
                    backoff.reset();
                    skip_park = false;
                    continue;
                }
            }
        }
        if team.profiling && idle_t0.is_none() {
            idle_t0 = Some(clock::now());
        }
        if team.barrier.try_release(w) {
            if let Some(t0) = idle_t0.take() {
                team.log_span(w, EventKind::Barrier, t0);
            }
            // Wake the sleepers so they observe the release too; for the
            // tree barrier this also chases the broadcast down the tree
            // (each releasing ancestor re-wakes everyone after
            // propagating to its children).
            team.parker.unpark_all();
            break;
        }
        if team.park_idle
            && backoff.is_completed()
            && !std::mem::take(&mut skip_park)
            && team.parker.prepare_park(w)
        {
            // Announced. Re-check everything a waker could have
            // signalled between our last probes and the announcement.
            let stay_awake = team.poisoned.load(Ordering::Acquire)
                || team.sched.has_work_hint(w)
                || team.source.as_ref().is_some_and(|s| s.has_pending());
            // The release probe participates in the gather, so run it
            // even though we polled just above: a releaser may have
            // scanned the park set before our announcement.
            let released = !stay_awake && team.barrier.try_release(w);
            if stay_awake || released {
                team.parker.cancel_park(w);
                if released {
                    if let Some(t0) = idle_t0.take() {
                        team.log_span(w, EventKind::Barrier, t0);
                    }
                    team.parker.unpark_all();
                    break;
                }
                // Stay-awake cancel: re-probe immediately, but throttle
                // the next park attempt (see `skip_park`).
                skip_park = true;
            } else {
                team.trace_emit(w, TraceLevel::Lifecycle, EventKind::Park, 0, 0, 0);
                team.parker.park(w);
                team.trace_emit(w, TraceLevel::Lifecycle, EventKind::Wake, 0, 0, 0);
                // Woken for a reason: probe aggressively again.
                backoff.reset();
            }
            continue;
        }
        backoff.snooze();
    }
}

/// Master path: run the region closure as the implicit task, then join
/// the barrier loop like any other worker.
fn master_main<R>(team: &TeamShared, f: impl FnOnce(&TaskCtx<'_>) -> R) -> R {
    // The implicit (root) task anchoring the region's task tree,
    // published so idle workers can parent injected tasks to it.
    // SAFETY: master owns worker slot 0.
    let root = unsafe { team.alloc.alloc(0, None, None, 0) };
    team.root.store(root.as_ptr(), Ordering::Release);

    struct PoisonOnUnwind<'a>(&'a TeamShared);
    impl Drop for PoisonOnUnwind<'_> {
        fn drop(&mut self) {
            self.0.poison();
        }
    }

    let result = {
        let ctx = TaskCtx {
            team,
            worker: 0,
            task: root,
        };
        let bomb = PoisonOnUnwind(team);
        let r = f(&ctx);
        std::mem::forget(bomb);
        r
    };

    team.barrier.arrive(0);
    worker_loop(team, 0);

    // Region quiesced: retire the implicit task. The published pointer is
    // cleared first; released workers have already left their loops.
    team.root.store(std::ptr::null_mut(), Ordering::Release);
    // SAFETY: region quiesced; all children released their references.
    let root_ref = unsafe { root.as_ref() };
    if root_ref.release_ref() {
        // SAFETY: last reference; worker slot 0 owned.
        unsafe { team.alloc.free(0, root) };
    }
    result
}

/// A configured runtime; cheap to construct, owns no threads. Each
/// [`parallel`](Runtime::parallel) call creates a fresh team (matching
/// the paper's per-region measurement methodology).
pub struct Runtime {
    cfg: RuntimeConfig,
}

impl Runtime {
    /// Builds a runtime from `cfg` (validated).
    pub fn new(cfg: RuntimeConfig) -> Self {
        assert!(cfg.threads >= 1, "a team needs at least one worker");
        assert!(
            cfg.threads <= (1 << 24),
            "worker ids must fit the 24-bit message-cell field"
        );
        Runtime { cfg }
    }

    /// The configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// Opens a parallel region: `f` runs on the master as the implicit
    /// single task; the region returns when every transitively spawned
    /// task has completed (detected by the configured barrier).
    pub fn parallel<R>(&self, f: impl FnOnce(&TaskCtx<'_>) -> R) -> RegionOutput<R> {
        let team = build_team(&self.cfg, TeamExtras::default());
        let n = team.n;

        let started = Instant::now();
        let mut result: Option<R> = None;
        std::thread::scope(|s| {
            for w in 1..n {
                let team = &team;
                std::thread::Builder::new()
                    .name(format!("xgomp-region-{w}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn_scoped(s, move || {
                        team.barrier.arrive(w);
                        worker_loop(team, w);
                    })
                    .expect("spawn region worker");
            }
            result = Some(master_main(&team, f));
        });
        let wall = started.elapsed();

        finish_region(team, result.expect("master ran"), wall)
    }
}

/// The generation-stamped gate persistent workers park on between
/// regions.
struct StartGate {
    state: Mutex<GateState>,
    cv: Condvar,
}

struct GateState {
    /// Bumped once per opened region; workers run exactly the generations
    /// they observe.
    generation: u64,
    /// The open generation's team (present iff a region is running).
    team: Option<Arc<TeamShared>>,
    /// Workers that have finished the current generation.
    retired: usize,
    /// Set once, on drop: workers exit their park loop.
    shutdown: bool,
}

impl StartGate {
    fn new() -> Self {
        StartGate {
            state: Mutex::new(GateState {
                generation: 0,
                team: None,
                retired: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The park loop persistent workers run for their whole life: wait for a
/// generation to open, run its region, retire, repeat.
fn parked_worker(gate: Arc<StartGate>, w: usize) {
    let mut last_gen = 0u64;
    loop {
        let team = {
            let mut st = gate.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.generation > last_gen {
                    break;
                }
                st = gate
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            last_gen = st.generation;
            Arc::clone(st.team.as_ref().expect("open generation has a team"))
        };
        // A panicking task body must not kill the persistent worker: the
        // completion guard has already poisoned the team (ending the
        // region for everyone); catching here keeps the thread parkable
        // for the next generation.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.barrier.arrive(w);
            worker_loop(&team, w);
        }))
        .is_err();
        if unwound {
            team.poison();
        }
        drop(team);
        let mut st = gate.lock();
        st.retired += 1;
        gate.cv.notify_all();
    }
}

/// A team of workers that stays alive across parallel regions.
///
/// Construction spawns `threads - 1` OS threads which immediately park on
/// a start gate. Each [`run`](Self::run) call stamps a new
/// *generation*: fresh barrier/scheduler/allocator state is published
/// through the gate, the parked workers pick it up, run the region's
/// scheduling loop to quiescence, and park again — no thread is ever
/// respawned. The calling thread acts as worker 0 (the region master),
/// exactly as in [`Runtime::parallel`].
///
/// This is the execution engine behind `xgomp-service`'s persistent task
/// server; `run_with` additionally wires in the
/// ingress/sampling/tuning hook set.
pub struct PersistentTeam {
    cfg: RuntimeConfig,
    gate: Arc<StartGate>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PersistentTeam {
    /// Builds the team and parks `cfg.threads - 1` workers on the gate.
    pub fn new(cfg: RuntimeConfig) -> Self {
        assert!(cfg.threads >= 1, "a team needs at least one worker");
        assert!(
            cfg.threads <= (1 << 24),
            "worker ids must fit the 24-bit message-cell field"
        );
        let gate = Arc::new(StartGate::new());
        let workers = (1..cfg.threads)
            .map(|w| {
                let gate = gate.clone();
                std::thread::Builder::new()
                    .name(format!("xgomp-worker-{w}"))
                    .stack_size(WORKER_STACK_BYTES)
                    .spawn(move || parked_worker(gate, w))
                    .expect("spawn persistent worker")
            })
            .collect();
        PersistentTeam { cfg, gate, workers }
    }

    /// The configuration this team was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.cfg
    }

    /// The team size (workers, master included).
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// Replaces the team's configuration between generations (the next
    /// [`run`](Self::run) builds its region from `cfg`).
    ///
    /// When the worker count is unchanged the parked threads are reused
    /// as-is — scheduler, barrier, DLB and allocator settings all take
    /// effect at the next generation, since each generation builds fresh
    /// region state anyway. A changed worker count rebuilds the thread
    /// set: the old workers (idle on the start gate — `&mut self` proves
    /// no generation is open) are released and joined, and a new set is
    /// spawned parked. This is the growth/shrink path of a persistent
    /// server's config swap; it costs thread spawn/join once per resize,
    /// never per generation.
    pub fn reconfigure(&mut self, cfg: RuntimeConfig) {
        assert!(cfg.threads >= 1, "a team needs at least one worker");
        assert!(
            cfg.threads <= (1 << 24),
            "worker ids must fit the 24-bit message-cell field"
        );
        if cfg.threads == self.cfg.threads {
            self.cfg = cfg;
            return;
        }
        // Different shape: spawn the new team first, then drop (join) the
        // old one. The old workers are parked on their gate, so the join
        // is immediate.
        *self = PersistentTeam::new(cfg);
    }

    /// Runs one region on the persistent workers (see
    /// [`Runtime::parallel`] for region semantics).
    ///
    /// # Panics
    ///
    /// Panics when a task body panicked inside the region (mirroring the
    /// join-propagation of the scoped engine); the team itself survives
    /// and can run further generations.
    pub fn run<R>(&mut self, f: impl FnOnce(&TaskCtx<'_>) -> R) -> RegionOutput<R> {
        self.run_with(TeamExtras::default(), f)
    }

    /// Runs one region with an ingress source polled by idle workers and
    /// optional live sampling / DLB tuning hooks. Task-body panics are
    /// isolated (see `TeamExtras::isolate_panics`): they re-raise at
    /// the parent's next `taskwait` instead of poisoning the team.
    ///
    /// # Panics
    ///
    /// Panics when `sampler` has fewer lanes than the team has workers —
    /// aliased lanes would break its single-writer counters.
    #[allow(clippy::too_many_arguments)]
    pub fn run_serving<R>(
        &mut self,
        source: Arc<dyn IngressSource>,
        sampler: Option<Arc<LiveTaskSampler>>,
        tuning: Option<Arc<DlbTuning>>,
        loop_stats: Option<Arc<LoopTelemetry>>,
        balancer: Option<Arc<LoopBalancer>>,
        auto_select: Option<Arc<AutoSelector>>,
        tracer: Option<Arc<Tracer>>,
        f: impl FnOnce(&TaskCtx<'_>) -> R,
    ) -> RegionOutput<R> {
        if let Some(s) = &sampler {
            assert!(
                s.n_lanes() >= self.cfg.threads,
                "LiveTaskSampler has {} lanes for a team of {} workers \
                 (lanes would alias, racing their single-writer counters)",
                s.n_lanes(),
                self.cfg.threads
            );
        }
        self.run_with(
            TeamExtras {
                source: Some(source),
                sampler,
                tuning,
                loop_stats,
                balancer,
                auto_select,
                isolate_panics: true,
                tracer,
            },
            f,
        )
    }

    fn run_with<R>(
        &mut self,
        extras: TeamExtras,
        f: impl FnOnce(&TaskCtx<'_>) -> R,
    ) -> RegionOutput<R> {
        let n_aux = self.workers.len();
        {
            // A master that unwound out of a previous `run` may have left
            // that generation's workers mid-drain; wait for them to
            // retire before opening a new generation.
            let mut st = self.gate.lock();
            while st.generation > 0 && st.retired < n_aux {
                st = self
                    .gate
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }

        let team = Arc::new(build_team(&self.cfg, extras));
        {
            let mut st = self.gate.lock();
            st.team = Some(team.clone());
            st.retired = 0;
            st.generation += 1;
            self.gate.cv.notify_all();
        }

        let started = Instant::now();
        let result = master_main(&team, f);

        // Join phase: wait for every worker to retire this generation.
        {
            let mut st = self.gate.lock();
            while st.retired < n_aux {
                st = self
                    .gate
                    .cv
                    .wait(st)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.team = None;
        }
        let wall = started.elapsed();

        let team = Arc::into_inner(team).expect("workers retired their team handles");
        if team.poisoned.load(Ordering::Acquire) {
            panic!("a task body panicked inside the persistent region");
        }
        finish_region(team, result, wall)
    }
}

impl Drop for PersistentTeam {
    fn drop(&mut self) {
        {
            let mut st = self.gate.lock();
            st.shutdown = true;
            self.gate.cv.notify_all();
        }
        for h in self.workers.drain(..) {
            // A worker that unwound due to a bug would surface here; the
            // park loop itself never panics.
            let _ = h.join();
        }
    }
}

/// Drops an unexecuted task cleanly (teardown of aborted regions).
fn discard_task(team: &TeamShared, task: NonNull<Task>) {
    // SAFETY: drain handed us the only handle.
    let t = unsafe { task.as_ref() };
    if let Some(parent) = t.parent() {
        // SAFETY: child holds a parent reference.
        let p = unsafe { parent.as_ref() };
        p.child_completed();
        if p.release_ref() {
            // SAFETY: last reference; single-threaded teardown.
            unsafe { team.alloc.free(0, parent) };
        }
    }
    if t.release_ref() {
        // SAFETY: as above.
        unsafe { team.alloc.free(0, task) };
    }
}

/// What a parallel region returns: the closure's result plus the region's
/// telemetry.
#[derive(Debug)]
pub struct RegionOutput<R> {
    /// Value returned by the region closure.
    pub result: R,
    /// Per-worker counter snapshots (§V statistics).
    pub stats: TeamStats,
    /// Per-worker event logs (empty unless profiling was enabled).
    pub logs: Vec<PerfLog>,
    /// Wall-clock duration of the region (team start to last join).
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;

    fn smoke(cfg: RuntimeConfig) {
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| {
            let mut acc = vec![0u64; 64];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| {
                        *slot = (i as u64) * 2;
                    });
                }
            });
            acc.iter().sum::<u64>()
        });
        assert_eq!(out.result, (0..64u64).map(|i| i * 2).sum::<u64>());
        let total = out.stats.total();
        assert_eq!(total.tasks_created, 64);
        assert_eq!(total.tasks_executed, 64);
        out.stats.check_invariants().unwrap();
    }

    #[test]
    fn all_presets_run_a_region() {
        for threads in [1usize, 2, 4] {
            smoke(RuntimeConfig::gomp(threads));
            smoke(RuntimeConfig::lomp(threads));
            smoke(RuntimeConfig::xgomp(threads));
            smoke(RuntimeConfig::xgomptb(threads));
            smoke(RuntimeConfig::xlomp(threads));
        }
    }

    #[test]
    fn nested_scopes_and_taskwait() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(|ctx| {
            let mut outer = [0u64; 8];
            ctx.scope(|s| {
                for (i, o) in outer.iter_mut().enumerate() {
                    s.spawn(move |ctx| {
                        let mut inner = [0u64; 4];
                        ctx.scope(|s2| {
                            for (j, v) in inner.iter_mut().enumerate() {
                                s2.spawn(move |_| *v = (i * 10 + j) as u64);
                            }
                        });
                        *o = inner.iter().sum();
                    });
                }
            });
            outer.iter().sum::<u64>()
        });
        let expect: u64 = (0..8u64)
            .map(|i| (0..4u64).map(|j| i * 10 + j).sum::<u64>())
            .sum();
        assert_eq!(out.result, expect);
    }

    #[test]
    fn empty_region_terminates_immediately() {
        for cfg in [
            RuntimeConfig::gomp(3),
            RuntimeConfig::xgomp(3),
            RuntimeConfig::xgomptb(3),
        ] {
            let rt = Runtime::new(cfg);
            let out = rt.parallel(|_| 42);
            assert_eq!(out.result, 42);
            assert_eq!(out.stats.total().tasks_created, 0);
        }
    }

    #[test]
    fn detached_static_spawns_complete_before_region_ends() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = counter.clone();
        let out = rt.parallel(move |ctx| {
            for _ in 0..100 {
                let c = c2.clone();
                ctx.spawn(move |_| {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        drop(out);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn deep_recursion_via_immediate_execution() {
        // Tiny queues force the overflow → execute-immediately path.
        let cfg = RuntimeConfig::xgomptb(2).queue_capacity(2);
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| {
            fn fib(ctx: &TaskCtx<'_>, n: u64) -> u64 {
                if n < 2 {
                    return n;
                }
                let (mut a, mut b) = (0, 0);
                ctx.scope(|s| {
                    s.spawn(|ctx| a = fib(ctx, n - 1));
                    s.spawn(|ctx| b = fib(ctx, n - 2));
                });
                a + b
            }
            fib(ctx, 16)
        });
        assert_eq!(out.result, 987);
        assert!(out.stats.total().ntasks_imm_exec > 0);
    }

    #[test]
    fn profiling_collects_events() {
        let cfg = RuntimeConfig::xgomptb(2).profiling(true);
        let rt = Runtime::new(cfg);
        let out = rt.parallel(|ctx| {
            ctx.scope(|s| {
                for _ in 0..32 {
                    s.spawn(|_| std::hint::spin_loop());
                }
            });
        });
        assert_eq!(out.logs.len(), 2);
        let events: usize = out.logs.iter().map(|l| l.events().len()).sum();
        assert!(events > 0, "profiling produced no events");
    }

    #[test]
    fn dlb_configs_run_clean() {
        use crate::dlb::{DlbConfig, DlbStrategy};
        for strat in [DlbStrategy::WorkSteal, DlbStrategy::RedirectPush] {
            let cfg =
                RuntimeConfig::xgomptb(4).dlb(DlbConfig::new(strat).n_steal(4).t_interval(16));
            let rt = Runtime::new(cfg);
            let out = rt.parallel(|ctx| {
                let mut acc = vec![0u64; 256];
                ctx.scope(|s| {
                    for (i, slot) in acc.iter_mut().enumerate() {
                        s.spawn(move |_| {
                            // Unbalanced grains provoke stealing.
                            let spins = (i % 7) * 100;
                            for _ in 0..spins {
                                std::hint::spin_loop();
                            }
                            *slot = 1;
                        });
                    }
                });
                acc.iter().sum::<u64>()
            });
            assert_eq!(out.result, 256);
            out.stats.check_invariants().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "task body panicked")]
    fn task_panic_propagates_without_hanging() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(2));
        rt.parallel(|ctx| {
            ctx.spawn(|_| panic!("task body panicked"));
            // Give the panicking task a chance to run on either worker.
            ctx.taskwait();
        });
    }

    #[test]
    fn parked_workers_wake_for_late_work_and_release() {
        // The master stays busy (no spawns) long enough for every other
        // worker to exhaust its backoff and park; the late spawns must
        // wake them, and region teardown must release the sleepers.
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(|ctx| {
            std::thread::sleep(Duration::from_millis(100));
            let mut acc = vec![0u64; 64];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| *slot = i as u64 + 1);
                }
            });
            acc.iter().sum::<u64>()
        });
        assert_eq!(out.result, (1..=64u64).sum());
        out.stats.check_invariants().unwrap();
    }

    #[test]
    fn persistent_team_parks_between_and_inside_generations() {
        let mut team = PersistentTeam::new(RuntimeConfig::xgomptb(4));
        for round in 0..3u64 {
            let out = team.run(move |ctx| {
                // Idle phase: aux workers park mid-region.
                std::thread::sleep(Duration::from_millis(60));
                let mut acc = vec![0u64; 32];
                ctx.scope(|s| {
                    for (i, slot) in acc.iter_mut().enumerate() {
                        s.spawn(move |_| *slot = round * 100 + i as u64);
                    }
                });
                acc.iter().sum::<u64>()
            });
            let expect: u64 = (0..32u64).map(|i| round * 100 + i).sum();
            assert_eq!(out.result, expect);
        }
    }

    #[test]
    fn spin_mode_still_works_with_parking_disabled() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(4).park_idle(false));
        let out = rt.parallel(|ctx| {
            let mut acc = vec![0u64; 128];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| *slot = i as u64);
                }
            });
            acc.iter().sum::<u64>()
        });
        assert_eq!(out.result, (0..128u64).sum());
    }

    #[test]
    fn persistent_team_reuses_workers_across_generations() {
        use std::sync::atomic::AtomicUsize;

        let mut team = PersistentTeam::new(RuntimeConfig::xgomptb(4));
        for round in 0..16u64 {
            let hits = Arc::new(AtomicUsize::new(0));
            let h2 = hits.clone();
            let out = team.run(move |ctx| {
                ctx.scope(|s| {
                    for _ in 0..64 {
                        let h = h2.clone();
                        s.spawn(move |_| {
                            h.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
                round * 2
            });
            assert_eq!(out.result, round * 2);
            assert_eq!(hits.load(Ordering::Relaxed), 64);
            assert_eq!(out.stats.total().tasks_executed, 64);
            out.stats.check_invariants().unwrap();
        }
    }

    #[test]
    fn persistent_team_reconfigures_between_generations() {
        let mut team = PersistentTeam::new(RuntimeConfig::xgomptb(2));
        let run_sum = |team: &mut PersistentTeam, n: usize| {
            let out = team.run(move |ctx| {
                let mut acc = vec![0u64; n * 8];
                ctx.scope(|s| {
                    for (i, slot) in acc.iter_mut().enumerate() {
                        s.spawn(move |_| *slot = i as u64);
                    }
                });
                acc.iter().sum::<u64>()
            });
            out.result
        };
        assert_eq!(run_sum(&mut team, 2), (0..16u64).sum());
        // Grow: 2 → 4 workers, and swap the barrier kind with it.
        team.reconfigure(RuntimeConfig::xgomp(4));
        assert_eq!(team.threads(), 4);
        assert_eq!(run_sum(&mut team, 4), (0..32u64).sum());
        // Shrink back, same-size swap keeps the threads.
        team.reconfigure(RuntimeConfig::xgomptb(4).queue_capacity(16));
        assert_eq!(team.config().queue_capacity, 16);
        assert_eq!(run_sum(&mut team, 4), (0..32u64).sum());
        team.reconfigure(RuntimeConfig::xgomptb(1));
        assert_eq!(run_sum(&mut team, 1), (0..8u64).sum());
    }

    #[test]
    fn persistent_team_survives_a_panicked_generation() {
        let mut team = PersistentTeam::new(RuntimeConfig::xgomptb(2));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            team.run(|ctx| {
                ctx.spawn(|_| panic!("poisoned generation"));
                ctx.taskwait();
            })
        }))
        .is_err();
        assert!(unwound, "task panic must propagate out of run()");
        // The workers parked again; the next generation runs normally.
        let out = team.run(|ctx| {
            let mut acc = vec![0u64; 32];
            ctx.scope(|s| {
                for (i, slot) in acc.iter_mut().enumerate() {
                    s.spawn(move |_| *slot = i as u64);
                }
            });
            acc.iter().sum::<u64>()
        });
        assert_eq!(out.result, (0..32u64).sum());
    }

    #[test]
    fn idle_workers_drain_an_ingress_source() {
        use std::sync::atomic::AtomicUsize;

        const JOBS: usize = 500;

        struct CountSource {
            remaining: AtomicUsize,
            hits: Arc<AtomicUsize>,
        }
        impl IngressSource for CountSource {
            fn poll(&self, ctx: &TaskCtx<'_>) -> usize {
                let mut injected = 0;
                // Claim up to 8 pending jobs per poll.
                while injected < 8 {
                    let claimed = self
                        .remaining
                        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |r| r.checked_sub(1))
                        .is_ok();
                    if !claimed {
                        break;
                    }
                    let hits = self.hits.clone();
                    ctx.spawn_boxed(Box::new(move |_| {
                        hits.fetch_add(1, Ordering::Relaxed);
                    }));
                    injected += 1;
                }
                injected
            }
        }

        let hits = Arc::new(AtomicUsize::new(0));
        let source = Arc::new(CountSource {
            remaining: AtomicUsize::new(JOBS),
            hits: hits.clone(),
        });
        let sampler = Arc::new(xgomp_profiling::LiveTaskSampler::new(4));
        let mut team = PersistentTeam::new(RuntimeConfig::xgomptb(4));
        let h2 = hits.clone();
        let out = team.run_serving(
            source,
            Some(sampler.clone()),
            None,
            None,
            None,
            None,
            None,
            move |ctx| {
                // The master helps until every injected job has executed.
                while h2.load(Ordering::Relaxed) < JOBS {
                    ctx.run_pending(32);
                    std::hint::spin_loop();
                }
            },
        );
        assert_eq!(hits.load(Ordering::Relaxed), JOBS);
        assert_eq!(out.stats.total().tasks_executed as usize, JOBS);
        assert_eq!(sampler.tasks_observed() as usize, JOBS);
    }
}
