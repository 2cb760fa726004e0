//! Generations: the lifecycle state machine ([`TaskServer::pause`] /
//! [`resume`](TaskServer::resume) / [`resume_with`](TaskServer::resume_with)),
//! the master loop that runs one team region per generation, the serve
//! loop and drain hook inside it, and the job wrapper that starts, sheds
//! and accounts every job.

use std::ptr::NonNull;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use super::{ServerShared, TaskServer, CLOSING, DRAINING, PAUSED, SERVING};
use crate::controller::AdaptiveController;
use crate::handle::{JobCell, JobError, JobHeader, JobPanic, JobRef, PHASE_SHED_DEADLINE};
use crate::QosClass;
use xgomp_core::{
    clock, CancelReason, CancelToken, CancelUnwind, DlbConfig, DlbTuning, EventKind, IngressSource,
    LiveTaskSampler, PersistentTeam, RegionOutput, RuntimeConfig, TaskCtx, TraceLevel,
};
use xgomp_topology::Placement;
use xgomp_xqueue::Backoff;

/// Point-in-time lifecycle of a [`TaskServer`] (see the
/// `server` module docs for the state machine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lifecycle {
    /// A generation is open and executing jobs.
    Serving,
    /// A [`pause`](TaskServer::pause) is draining the in-team jobs.
    Draining,
    /// Parked between generations; submissions queue for the next one.
    Paused,
    /// Shut down (or shutting down); submissions are rejected.
    Closed,
}

/// Why [`TaskServer::pause`] / [`resume`](TaskServer::resume) /
/// [`resume_with`](TaskServer::resume_with) could not change the
/// lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleError {
    /// The server is closed (or closed while the request was waiting).
    Closed,
    /// `resume` was called on a server that is not paused.
    NotPaused,
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::Closed => write!(f, "task server is closed"),
            LifecycleError::NotPaused => write!(f, "task server is not paused"),
        }
    }
}

impl std::error::Error for LifecycleError {}

/// Command sent from a `resume`/`resume_with` caller to the master
/// control loop: open the next generation, optionally with a new
/// runtime configuration.
pub(super) struct ControlPlane {
    pub(super) resume: Option<Option<RuntimeConfig>>,
}

impl ServerShared {
    pub(super) fn lock_ctl(&self) -> std::sync::MutexGuard<'_, ControlPlane> {
        self.ctl.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The wrapper's start gate: claims `QUEUED → RUNNING`, unless a
    /// cancel or the deadline got there first — then the body never
    /// runs and the job is *shed* (the handle may already be resolved;
    /// `try_shed` is a no-op in that case). Stamps and traces the start.
    fn start_job(&self, ctx: &TaskCtx<'_>, job: &JobHeader, t_start: u64) -> bool {
        let started = match job.cancel.poll() {
            None => job.try_start(),
            Some(reason) => {
                job.try_shed(job_error(reason));
                false
            }
        };
        if started {
            // Lifecycle stamps feed both the flight recorder (one
            // `JobStart`..`JobEnd` async span per job id) and the
            // handle's `JobReport`; the completion's release store
            // publishes the relaxed stamp stores to `report()` readers.
            job.started.store(t_start, Ordering::Relaxed);
            ctx.trace_emit(
                TraceLevel::Lifecycle,
                EventKind::JobStart,
                0,
                job.id,
                job.submitted,
            );
        }
        started
    }

    /// Accounts a job whose body ran and ended with `err` (`None`:
    /// cleanly) — before the outcome is published.
    fn finish_job(&self, ctx: &TaskCtx<'_>, job: &JobHeader, t_start: u64, err: Option<&JobError>) {
        let t_end = clock::now();
        job.finished.store(t_end, Ordering::Relaxed);
        // JobEnd `a` is the outcome code: 0 clean, 1 panicked,
        // 2 cancelled, 3 deadline-cancelled.
        let code = match err {
            None => 0,
            Some(JobError::Panicked(_)) => 1,
            Some(JobError::Cancelled) => 2,
            Some(JobError::DeadlineExceeded) => 3,
        };
        ctx.trace_emit(
            TraceLevel::Lifecycle,
            EventKind::JobEnd,
            code,
            job.id,
            t_start,
        );
        let ws = &self.worker_side;
        let cs = &ws.class[job.qos.index()];
        cs.queued_hist
            .record_ticks(t_start.saturating_sub(job.submitted), &ws.hist_edges);
        cs.run_hist
            .record_ticks(t_end.saturating_sub(t_start), &ws.hist_edges);
        if code >= 2 {
            if code == 3 {
                emit_deadline_miss(ctx, job);
            }
            ctx.trace_emit(
                TraceLevel::Lifecycle,
                EventKind::Cancel,
                code - 2,
                job.id,
                0,
            );
            cs.cancelled.fetch_add(1, Ordering::Relaxed);
        } else {
            if code == 1 {
                // Dump *before* completing: the joiner's `JobPanic`
                // then implies the flight-recorder file already exists.
                self.dump_flight_recorder(&format!("panic-job-{}.trace.json", job.id));
            }
            cs.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Accounts a job shed before starting: the handle resolved when
    /// the shed was claimed (`cancel()`, a handle observer past the
    /// deadline, or the start gate); only the drain accounting remains.
    /// `Shed.a`: 0 cancel, 1 deadline.
    fn shed_job(&self, ctx: &TaskCtx<'_>, job: &JobHeader) {
        let by_deadline = job.phase.load(Ordering::Acquire) == PHASE_SHED_DEADLINE;
        if by_deadline {
            emit_deadline_miss(ctx, job);
        }
        ctx.trace_emit(
            TraceLevel::Lifecycle,
            EventKind::Shed,
            by_deadline as u32,
            job.id,
            job.submitted,
        );
        self.worker_side.class[job.qos.index()]
            .shed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The drain-side decrements of a job that ran or was shed — after
    /// its handle is observable, so a shutdown (or pause) that waits
    /// for them finds the outcome already published.
    fn retire_job(&self, qos: QosClass) {
        self.worker_side.in_team.fetch_sub(1, Ordering::SeqCst);
        self.in_flight.fetch_sub(1, Ordering::SeqCst);
        if qos == QosClass::Background {
            self.bg_in_flight.fetch_sub(1, Ordering::SeqCst);
        }
        self.notify_capacity();
    }

    /// Moves the oldest spilled job, if any, into the team. Runs before
    /// the ingress drain so spilled jobs cannot be starved by fresh
    /// pushes.
    ///
    /// Like the ingress drain, spilled jobs are spawned into the
    /// *draining worker's own* queue: a job cross-pushed into a peer's
    /// SPSC queue is stranded if that peer is stalled inside another
    /// job's body, even while this worker idles (see
    /// [`ServiceSource::poll`]).
    fn drain_spill(&self, ctx: &TaskCtx<'_>) -> usize {
        if !self.spill_nonempty.load(Ordering::SeqCst) {
            return 0;
        }
        let job = {
            let mut spill = self.spill.lock().unwrap_or_else(PoisonError::into_inner);
            let job = spill.pop_front();
            if spill.is_empty() {
                self.spill_nonempty.store(false, Ordering::SeqCst);
            }
            job
        };
        match job {
            Some(job) => {
                self.spawn_job(ctx, job);
                1
            }
            None => 0,
        }
    }

    /// Spawns a drained job into the calling worker's own queue (see
    /// [`ServiceSource::poll`] for why its own).
    fn spawn_job(&self, ctx: &TaskCtx<'_>, job: JobRef) {
        self.worker_side.in_team.fetch_add(1, Ordering::SeqCst);
        let shared = SharedRef(self);
        ctx.spawn_local(move |ctx| job.run(ctx, shared.get()));
    }

    /// Racy "anything queued for the team?" probe (pre-park re-checks).
    fn has_queued_jobs(&self) -> bool {
        self.spill_nonempty.load(Ordering::SeqCst) || !self.ingress.looks_empty()
    }
}

/// The server state as a job's task sees it: a plain pointer instead
/// of an `Arc` clone per job. Sound because the generation's
/// [`ServiceSource`] — the only spawner of job tasks — holds an
/// `Arc<ServerShared>` for the whole region, and a region ends only
/// after every task spawned in it has run (a task discarded unrun at a
/// poisoned teardown drops its [`JobRef`] without touching the server).
struct SharedRef(*const ServerShared);

// SAFETY: `ServerShared` is `Sync`; the pointer's validity is argued on
// the type.
unsafe impl Send for SharedRef {}

impl SharedRef {
    fn get(&self) -> &ServerShared {
        // SAFETY: see the type's docs.
        unsafe { &*self.0 }
    }
}

/// One `DeadlineMiss` per missed job (`b` = job id, `c` = the deadline
/// tick), emitted by the worker that accounts its shed or its cancel.
fn emit_deadline_miss(ctx: &TaskCtx<'_>, job: &JobHeader) {
    ctx.trace_emit(
        TraceLevel::Lifecycle,
        EventKind::DeadlineMiss,
        0,
        job.id,
        job.cancel.deadline_tick().unwrap_or(0),
    );
}

fn job_error(reason: CancelReason) -> JobError {
    match reason {
        CancelReason::Cancelled => JobError::Cancelled,
        CancelReason::DeadlineExceeded => JobError::DeadlineExceeded,
    }
}

/// The job wrapper: runs one job cell on a worker (the `run` entry of
/// the cell's vtable), unwind-caught, completion-accounted and
/// lifecycle-traced.
///
/// The wrapper is the **single accounting site**: whether the body
/// ran, unwound at a cancellation checkpoint, or was shed before it
/// ever started, exactly one of `completed`/`cancelled`/`shed` moves
/// — and the drain-side decrements (`in_team`/`in_flight`/class cap)
/// always happen here, at drain time, so the shutdown invariant
/// "`in_flight == 0` ⇒ rings drained" survives cancellation.
/// `JobHandle::cancel` and a handle observer past the deadline only
/// resolve the *handle* early; they never touch the counters.
///
/// # Safety
///
/// `job` must point into a `JobCell<R, F>`; the caller hands over one
/// reference.
pub(crate) unsafe fn run_job<R, F>(
    job: NonNull<JobHeader>,
    ctx: &TaskCtx<'_>,
    shared: &ServerShared,
) where
    R: Send + 'static,
    F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
{
    // SAFETY: forwarded from the caller.
    let cell = unsafe { JobCell::<R, F>::from_job(job) };
    let header = cell.header();
    let t_start = clock::now();
    if shared.start_job(ctx, header, t_start) {
        // SAFETY: we hold the ring's reference: this is the job's run.
        let f = unsafe { cell.take_body() }.expect("a job's body runs once");
        // The token rides the job's root task from here: every task the
        // body spawns (loop drain tasks included) inherits a clone — a
        // count on this cell — and the checkpoints poll it.
        ctx.set_cancel_token(CancelToken::from_source(cell.clone()));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(ctx)));
        ctx.clear_cancel_token();
        let result = caught.map_err(|payload| {
            // A checkpoint unwind is a *typed* outcome, not a panic: no
            // recorder dump, no JobPanic rendering.
            match payload.downcast::<CancelUnwind>() {
                Ok(cu) => job_error(cu.0),
                Err(payload) => JobError::Panicked(JobPanic::from_payload(&*payload)),
            }
        });
        shared.finish_job(ctx, header, t_start, result.as_ref().err());
        cell.core().complete(result);
    } else {
        // SAFETY: as above.
        drop(unsafe { cell.take_body() });
        shared.shed_job(ctx, header);
    }
    shared.retire_job(header.qos);
}

/// The [`IngressSource`] wired into one generation's team: idle workers
/// (and the master loop) drain their zone's shard and spawn the jobs.
/// Rebuilt per generation so the worker → shard map always matches the
/// live placement.
pub(crate) struct ServiceSource {
    shared: Arc<ServerShared>,
    /// worker → ingress shard for this generation.
    shard_of_worker: Vec<usize>,
}

impl IngressSource for ServiceSource {
    fn poll(&self, ctx: &TaskCtx<'_>) -> usize {
        // Drains are gated on the lifecycle. While pausing (`DRAINING`),
        // the rings keep draining — everything that reached them was
        // admitted before the pause and must complete — but the spill,
        // where pause-time submissions divert, is held back; that is what
        // lets the drain converge under sustained submission. A paused
        // server drains nothing; a closing one drains everything.
        let st = self.shared.state.load(Ordering::SeqCst);
        if st == PAUSED {
            return 0;
        }
        let shared = &self.shared;
        let mut n = 0;
        if st != DRAINING {
            n += shared.drain_spill(ctx);
        }
        let hint = self
            .shard_of_worker
            .get(ctx.worker_id())
            .copied()
            .unwrap_or(0);
        // Take ONE job and spawn it into this worker's own queue: it is
        // popped by this worker's very next scheduler visit. A batch
        // pushed to peers could strand a job in a stalled peer's SPSC
        // queue — or, batched to self, behind an earlier job of the same
        // batch that blocks indefinitely — while other workers idle.
        // One-at-a-time self-service keeps every not-yet-claimed job in
        // the shared MPSC ingress, where any idle worker can claim it:
        // an admitted job can only wait on a *running* job, never on a
        // stalled queue. The poll sits in the serve/idle loops, which
        // re-poll immediately while injections succeed, so throughput is
        // a claim per job, not a drain cycle per job.
        if let Some(job) = shared.ingress.pop(hint) {
            shared.spawn_job(ctx, job);
            n += 1;
        }
        n
    }

    fn has_pending(&self) -> bool {
        // Pre-park re-check: jobs are visible here before the submitter's
        // doorbell fence, so a worker either sees them and stays awake or
        // is woken by the bell (see `xgomp_xqueue::parker`). Gated like
        // `poll`: queued-for-next-generation jobs must not keep workers
        // awake, but a pause drain keeps them helping until the rings
        // are empty.
        match self.shared.state.load(Ordering::SeqCst) {
            PAUSED => false,
            DRAINING => !self.shared.ingress.looks_empty(),
            _ => self.shared.has_queued_jobs(),
        }
    }
}

/// Per-worker NUMA zones and the sorted distinct zone list of `rt`'s
/// placement — the single source of the zone-ranking logic shared by
/// server construction (shard count) and every generation's re-map.
pub(super) fn placement_zones(rt: &RuntimeConfig) -> (Vec<usize>, Vec<usize>) {
    let placement = Placement::new(rt.topology.clone(), rt.threads, rt.affinity);
    let zones: Vec<usize> = (0..rt.threads).map(|w| placement.zone_of(w)).collect();
    let mut distinct = zones.clone();
    distinct.sort_unstable();
    distinct.dedup();
    (zones, distinct)
}

/// Computes one generation's ingress maps for runtime `rt` against the
/// fixed shard set: worker → shard (dense zone rank, folded onto the
/// available shards) and shard → doorbell zone.
pub(super) fn generation_layout(rt: &RuntimeConfig, n_shards: usize) -> (Vec<usize>, Vec<usize>) {
    let (zones, distinct) = placement_zones(rt);
    let shard_of_worker = zones
        .iter()
        .map(|z| distinct.binary_search(z).expect("zone in distinct set") % n_shards)
        .collect();
    let zone_of_shard = (0..n_shards)
        .map(|s| distinct[s % distinct.len()])
        .collect();
    (shard_of_worker, zone_of_shard)
}

impl TaskServer {
    /// Completes every job admitted before the pause and parks the team
    /// between generations. Returns once the server is quiescent: every
    /// worker parked (~0 CPU), ingress lanes and
    /// [`SubmitterHandle`](super::SubmitterHandle)s
    /// retained, and submissions from the pause onward held (queued) for
    /// the next generation.
    ///
    /// Idempotent: pausing a pausing/paused server just waits for /
    /// confirms quiescence. Fails only on a closed server.
    pub fn pause(&self) -> Result<(), LifecycleError> {
        let mut ctl = self.shared.lock_ctl();
        loop {
            match self.shared.state.load(Ordering::SeqCst) {
                SERVING => {
                    self.shared.state.store(DRAINING, Ordering::SeqCst);
                    self.shared.ctl_cv.notify_all();
                    // The whole team may be asleep; the state store rings
                    // no bell on its own.
                    self.shared.doorbell.with_current(|p| p.unpark_all());
                }
                DRAINING => {
                    ctl = self
                        .shared
                        .ctl_cv
                        .wait(ctl)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                PAUSED => {
                    if ctl.resume.is_none() {
                        drop(ctl);
                        // Quiescent barrier for the continuous pipeline
                        // too: every event emitted before the pause is
                        // drained and flushed to the rolling stream
                        // before we report the server paused.
                        if let Some(c) = &self.collector {
                            c.flush_barrier(Duration::from_secs(5));
                        }
                        return Ok(());
                    }
                    // A resume is in flight: wait for the generation to
                    // open, then request a fresh drain through the
                    // SERVING arm.
                    ctl = self
                        .shared
                        .ctl_cv
                        .wait(ctl)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                _ => return Err(LifecycleError::Closed),
            }
        }
    }

    /// Opens the next generation with the current configuration,
    /// completing queued-while-paused jobs first. Returns once the new
    /// generation is serving. Requires a paused (or pausing) server.
    pub fn resume(&self) -> Result<(), LifecycleError> {
        self.resume_inner(None)
    }

    /// Opens the next generation under a new [`RuntimeConfig`], applied
    /// at the generation boundary: worker count, barrier/scheduler kind,
    /// topology and `park_idle` all take effect for generation N+1. A
    /// changed worker count rebuilds the thread set and re-maps workers
    /// and doorbells onto the existing ingress shards; a `Some` DLB in
    /// the config seeds the tuning cell (counting as an external swap,
    /// which resets the adaptive controller's hysteresis).
    pub fn resume_with(&self, rt: RuntimeConfig) -> Result<(), LifecycleError> {
        assert!(rt.threads >= 1, "a team needs at least one worker");
        assert!(
            rt.threads <= (1 << 24),
            "worker ids must fit the 24-bit message-cell field"
        );
        self.resume_inner(Some(rt))
    }

    fn resume_inner(&self, cfg: Option<RuntimeConfig>) -> Result<(), LifecycleError> {
        let mut ctl = self.shared.lock_ctl();
        loop {
            match self.shared.state.load(Ordering::SeqCst) {
                PAUSED => break,
                // A pause is completing; resume right after it.
                DRAINING => {
                    ctl = self
                        .shared
                        .ctl_cv
                        .wait(ctl)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                SERVING => return Err(LifecycleError::NotPaused),
                _ => return Err(LifecycleError::Closed),
            }
        }
        // Concurrent resumes race benignly: the last command in before
        // the master picks one up wins; all callers wait for the next
        // generation. The wait observes the *generation counter*, not
        // the instantaneous SERVING state — a pause() racing in right
        // after the new generation opens could flip SERVING→DRAINING
        // before this thread wakes, and a state-based wait would then
        // block forever on a resume that actually succeeded.
        let sent_gen = self.shared.generation.load(Ordering::SeqCst);
        ctl.resume = Some(cfg);
        self.shared.ctl_cv.notify_all();
        loop {
            if self.shared.state.load(Ordering::SeqCst) == CLOSING {
                return Err(LifecycleError::Closed);
            }
            if self.shared.generation.load(Ordering::SeqCst) > sent_gen {
                return Ok(());
            }
            ctl = self
                .shared
                .ctl_cv
                .wait(ctl)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Hot-swaps the DLB configuration driving the team, effective at
    /// the workers' next scheduling points — no pause required. The swap
    /// bumps the external-swap epoch, so the adaptive controller drops
    /// any half-confirmed recommendation computed against the previous
    /// configuration instead of publishing it one window later.
    pub fn swap_tuning(&self, dlb: DlbConfig) {
        self.tuning.store(dlb);
        self.shared.swap_epoch.fetch_add(1, Ordering::Release);
    }

    /// Current lifecycle state (racy snapshot).
    pub fn lifecycle(&self) -> Lifecycle {
        match self.shared.state.load(Ordering::SeqCst) {
            SERVING => Lifecycle::Serving,
            DRAINING => Lifecycle::Draining,
            PAUSED => Lifecycle::Paused,
            _ => Lifecycle::Closed,
        }
    }

    /// Serve generations opened so far.
    pub fn generation(&self) -> u64 {
        self.shared.generation.load(Ordering::Relaxed)
    }

    /// Whether the server has been closed to new submissions.
    pub fn is_closed(&self) -> bool {
        self.shared.state.load(Ordering::SeqCst) == CLOSING
    }
}

/// The master thread: one `run_serving` region per generation, with the
/// control handshake (pause quiescence, resume commands, config swaps,
/// final shutdown drain) between regions.
#[allow(clippy::too_many_arguments)]
pub(super) fn master_loop(
    shared: Arc<ServerShared>,
    tuning: Arc<DlbTuning>,
    mut sampler: Arc<LiveTaskSampler>,
    mut rt: RuntimeConfig,
    first_layout: Vec<usize>,
    drain_batch: usize,
    adapt_every: u64,
    log_retunes: bool,
) -> Vec<RegionOutput<()>> {
    let mut team = PersistentTeam::new(rt.clone());
    // The controller persists across generations (window continuity and
    // hysteresis are workload properties, not generation properties);
    // config swaps reset it through the swap epoch.
    let controller = Arc::new(Mutex::new(
        AdaptiveController::new(tuning.clone(), sampler.clone(), adapt_every, log_retunes)
            .watch_swaps(shared.swap_epoch.clone()),
    ));
    let mut layout = Some(first_layout);
    let mut regions: Vec<RegionOutput<()>> = Vec::new();
    let run_batch = drain_batch.max(8) * 4;

    loop {
        // Install this generation's ingress maps.
        let shard_of_worker = layout.take().unwrap_or_else(|| {
            let (workers, zones) = generation_layout(&rt, shared.ingress.n_shards());
            for (cell, z) in shared.zone_of_shard.iter().zip(zones) {
                cell.store(z, Ordering::Relaxed);
            }
            workers
        });
        shared.current_threads.store(rt.threads, Ordering::Relaxed);
        // SeqCst: resume() waiters poll this counter to learn their
        // generation opened (see `resume_inner`).
        shared.generation.fetch_add(1, Ordering::SeqCst);
        // Open the generation: resume() callers unblock only now, with
        // the maps installed and the generation counter advanced. The
        // resume command is consumed in the same critical section that
        // stores SERVING, so a concurrent pause() never observes a
        // "paused" server that is actually mid-resume. A no-op for
        // generation 1 (already serving) and for a closing drain
        // generation (admission stays shut).
        {
            let mut ctl = shared.lock_ctl();
            ctl.resume = None;
            if shared.state.load(Ordering::SeqCst) != CLOSING {
                shared.state.store(SERVING, Ordering::SeqCst);
                shared.ctl_cv.notify_all();
            }
        }

        let source = Arc::new(ServiceSource {
            shared: shared.clone(),
            shard_of_worker,
        });
        let serve = {
            let shared = shared.clone();
            let controller = controller.clone();
            let source = source.clone();
            let tuning = tuning.clone();
            move |ctx: &TaskCtx<'_>| {
                serve_loop(ctx, &shared, &controller, &source, &tuning, run_batch)
            }
        };
        // Generation markers go through `emit_meta`, which is only safe
        // while worker 0's thread is not running — exactly here, between
        // regions, on the master thread.
        let gen = shared.generation.load(Ordering::SeqCst);
        shared
            .tracer
            .emit_meta(0, EventKind::GenOpen, 0, gen, rt.threads as u64);
        regions.push(team.run_serving(
            source.clone(),
            Some(sampler.clone()),
            Some(tuning.clone()),
            Some(shared.loop_stats.clone()),
            Some(shared.loop_balancer.clone()),
            Some(shared.auto_select.clone()),
            Some(shared.tracer.clone()),
            serve,
        ));
        shared.tracer.emit_meta(0, EventKind::GenClose, 0, gen, 0);

        // Generation over. If a pause requested it, publish quiescence.
        {
            let _ctl = shared.lock_ctl();
            if shared.state.load(Ordering::SeqCst) == DRAINING {
                shared.state.store(PAUSED, Ordering::SeqCst);
                shared.ctl_cv.notify_all();
            }
        }

        // Wait for what comes next: a resume command, or shutdown (which
        // runs one more closing generation when jobs are still queued).
        let resume_cfg: Option<Option<RuntimeConfig>> = {
            let mut ctl = shared.lock_ctl();
            loop {
                if shared.state.load(Ordering::SeqCst) == CLOSING {
                    break if shared.in_flight.load(Ordering::SeqCst) == 0 {
                        None // fully drained: tear down
                    } else {
                        Some(None) // final drain generation, same config
                    };
                }
                // Peek, don't take: the command stays visible (so a
                // concurrent pause() knows a resume is in flight) until
                // the next generation's SERVING store consumes it.
                if let Some(cmd) = ctl.resume.clone() {
                    break Some(cmd);
                }
                ctl = shared
                    .ctl_cv
                    .wait(ctl)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(cfg) = resume_cfg else {
            break;
        };
        if let Some(new_rt) = cfg {
            apply_config(
                &shared,
                &mut team,
                &mut rt,
                &mut sampler,
                &controller,
                &tuning,
                new_rt,
            );
        }
    }
    regions
}

/// Applies a `resume_with` configuration at the generation boundary.
fn apply_config(
    shared: &Arc<ServerShared>,
    team: &mut PersistentTeam,
    rt: &mut RuntimeConfig,
    sampler: &mut Arc<LiveTaskSampler>,
    controller: &Arc<Mutex<AdaptiveController>>,
    tuning: &Arc<DlbTuning>,
    new_rt: RuntimeConfig,
) {
    let resized = new_rt.threads != rt.threads;
    team.reconfigure(new_rt.clone());
    if resized {
        // Sampler lanes are per worker: retire the old histogram into the
        // cumulative store and rebind the controller to a fresh sampler.
        let fresh = Arc::new(LiveTaskSampler::new(new_rt.threads));
        {
            let mut current = shared
                .sampler
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            shared
                .retired_hist
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .merge(&current.snapshot());
            *current = fresh.clone();
        }
        controller
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .rebind_sampler(fresh.clone());
        *sampler = fresh;
    }
    if let Some(dlb) = new_rt.dlb {
        tuning.store(dlb);
    }
    // A config swap is a hysteresis boundary even when the DLB seed is
    // unchanged: recommendations confirmed against the old shape must
    // not publish against the new one.
    shared.swap_epoch.fetch_add(1, Ordering::Release);
    *rt = new_rt;
}

/// One generation's serve loop, run by worker 0 as the region closure:
/// drain ingress, execute, tick the controller, park when idle, and exit
/// at the generation's drain point (pause: in-team jobs done; shutdown:
/// everything admitted done).
fn serve_loop(
    ctx: &TaskCtx<'_>,
    shared: &Arc<ServerShared>,
    controller: &Arc<Mutex<AdaptiveController>>,
    source: &ServiceSource,
    tuning: &Arc<DlbTuning>,
    run_batch: usize,
) {
    // Publish the team's parker as the doorbell before any worker could
    // possibly park. (Replaces the previous generation's parker, which
    // has no sleepers left.)
    let parker = ctx.parker().clone();
    shared.doorbell.publish(parker.clone());
    let mut backoff = Backoff::new();
    let mut last_retunes = tuning.retunes();
    // Skip the park attempt right after a stay-awake cancel: re-probe
    // immediately, and only fall into the snooze below if that probe
    // finds nothing (see the worker loop's `skip_park` for the
    // rationale).
    let mut skip_park = false;
    loop {
        if ctx.is_poisoned() {
            // Un-isolated panic (a runtime bug — job panics are caught):
            // the team is ending; don't spin on the drain conditions.
            break;
        }
        let injected = source.poll(ctx);
        let ran = ctx.run_pending(run_batch);
        controller
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .tick();
        if ctx.trace_on(TraceLevel::Lifecycle) {
            // Retunes land from the controller tick above or from a
            // concurrent `swap_tuning`; the serve loop is the one place
            // that polls often enough to stamp them near their effect.
            let r = tuning.retunes();
            if r != last_retunes {
                last_retunes = r;
                ctx.trace_emit(TraceLevel::Lifecycle, EventKind::Retune, 0, r, 0);
            }
        }
        if injected > 0 || ran > 0 {
            backoff.reset();
            skip_park = false;
            continue;
        }
        let st = shared.state.load(Ordering::SeqCst);
        match st {
            // Shutdown drains *everything admitted*; the final in-flight
            // decrement rings no bell, so spin the (short) tail out.
            CLOSING if shared.in_flight.load(Ordering::SeqCst) == 0 => break,
            // A pause drains everything admitted before it — the team's
            // jobs and anything still in the rings (submissions from the
            // pause onward divert to the spill, which waits for resume,
            // so this converges under sustained traffic). Order matters:
            // `ring_producers == 0` must be observed *before* the
            // emptiness scan — a producer that saw SERVING holds the
            // count until its push completes, so reading 0 here means
            // every such push is already visible to `looks_empty`.
            DRAINING
                if shared.submit_side.ring_producers.load(Ordering::SeqCst) == 0
                    && shared.worker_side.in_team.load(Ordering::SeqCst) == 0
                    && shared.ingress.looks_empty() =>
            {
                break
            }
            _ => {}
        }
        // Event-driven idle arm of the serve loop: park worker 0 once
        // the backoff saturates. Only while serving — the pause/shutdown
        // drains are short and their exit conditions ring no bell.
        if st == SERVING
            && ctx.park_idle_enabled()
            && backoff.is_completed()
            && !std::mem::take(&mut skip_park)
            && parker.prepare_park(0)
        {
            let stay_awake = ctx.is_poisoned()
                || ctx.has_local_work_hint()
                || shared.has_queued_jobs()
                || shared.state.load(Ordering::SeqCst) != SERVING;
            if stay_awake {
                parker.cancel_park(0);
                skip_park = true;
            } else {
                parker.park(0);
                backoff.reset();
            }
            continue;
        }
        backoff.snooze();
    }
}
