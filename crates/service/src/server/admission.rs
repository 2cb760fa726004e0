//! Admission and placement: the one submission path behind every
//! public `*submit*` fn (admit → build the job's cell → place it in a
//! ring or the spill → ring the doorbell), the blocked-submit capacity
//! wait, and registered [`SubmitterHandle`]s.

use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError};
use std::time::Duration;

use super::{ServerShared, TaskServer, CLOSING, PAUSED, SERVING};
use crate::handle::{JobCell, JobHandle, JobRef};
use crate::{QosClass, SubmitOptions};
use xgomp_core::{clock, LoopError, TaskCtx};
use xgomp_xqueue::Backoff;

/// Why a submission was rejected. Every variant hands the closure back,
/// so the caller can retry, re-route, or drop it — and, unlike the old
/// bare `Err(F)`, tell those cases apart:
///
/// * [`Backpressure`](Self::Backpressure) — the in-flight bound is
///   reached while serving; capacity frees as jobs complete, so *retry
///   soon* (or use the blocking `submit`, which parks until then).
/// * [`Paused`](Self::Paused) — the bound is reached while the server is
///   paused; no capacity frees until [`TaskServer::resume`], so retrying
///   in a loop is futile.
/// * [`Closed`](Self::Closed) — the server is shut down; give up.
/// * [`InvalidLoop`](Self::InvalidLoop) — a `submit_for` iteration space
///   failed loop validation ([`LoopError`], e.g. wider than 2⁶²
///   scheduling units); the job was never admitted and retrying the same
///   space can never succeed.
pub enum SubmitError<F> {
    /// In-flight bound reached while serving; retry after completions.
    Backpressure(F),
    /// In-flight bound reached while paused; resume frees capacity.
    Paused(F),
    /// The server is closed; the job can never be accepted.
    Closed(F),
    /// A `submit_for` iteration space was rejected by loop validation
    /// (terminal for this space; the carried [`LoopError`] says why).
    InvalidLoop(F, LoopError),
}

impl<F> SubmitError<F> {
    /// The rejected closure, for retry or disposal.
    pub fn into_inner(self) -> F {
        match self {
            SubmitError::Backpressure(f)
            | SubmitError::Paused(f)
            | SubmitError::Closed(f)
            | SubmitError::InvalidLoop(f, _) => f,
        }
    }

    /// Whether retrying after completions can succeed.
    pub fn is_backpressure(&self) -> bool {
        matches!(self, SubmitError::Backpressure(_))
    }

    /// Whether the rejection is the paused-at-capacity case.
    pub fn is_paused(&self) -> bool {
        matches!(self, SubmitError::Paused(_))
    }

    /// Whether the server is closed (terminal).
    pub fn is_closed(&self) -> bool {
        matches!(self, SubmitError::Closed(_))
    }

    /// Whether a `submit_for` iteration space failed loop validation,
    /// and why.
    pub fn loop_error(&self) -> Option<LoopError> {
        match self {
            SubmitError::InvalidLoop(_, e) => Some(*e),
            _ => None,
        }
    }

    fn variant_name(&self) -> &'static str {
        match self {
            SubmitError::Backpressure(_) => "Backpressure",
            SubmitError::Paused(_) => "Paused",
            SubmitError::Closed(_) => "Closed",
            SubmitError::InvalidLoop(..) => "InvalidLoop",
        }
    }
}

impl<F> std::fmt::Debug for SubmitError<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple(self.variant_name()).finish()
    }
}

impl<F> std::fmt::Display for SubmitError<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Backpressure(_) => {
                write!(f, "submission rejected: in-flight bound reached (retry)")
            }
            SubmitError::Paused(_) => write!(
                f,
                "submission rejected: server paused at capacity (resume frees it)"
            ),
            SubmitError::Closed(_) => write!(f, "submission rejected: task server is closed"),
            SubmitError::InvalidLoop(_, e) => write!(f, "submission rejected: {e}"),
        }
    }
}

impl<F> std::error::Error for SubmitError<F> {}

impl ServerShared {
    /// The class's admission bound on the shared `in_flight` counter:
    /// only latency-sensitive traffic may use the reserved tail.
    fn class_limit(&self, qos: QosClass) -> usize {
        match qos {
            QosClass::LatencySensitive => self.max_in_flight,
            _ => self.max_in_flight - self.ls_reserve,
        }
    }

    /// At-the-bound refusal flavor: a paused server frees nothing until
    /// resume; everything else clears like ordinary backpressure.
    fn refuse_full(&self) -> Admit {
        self.submit_side.rejected.fetch_add(1, Ordering::Relaxed);
        match self.state.load(Ordering::SeqCst) {
            PAUSED => Admit::PausedFull,
            _ => Admit::Busy,
        }
    }

    /// Admission control: reserves one in-flight slot under `qos`'s
    /// quota, or reports why it could not (slots released, rejection
    /// counted).
    fn try_admit(&self, qos: QosClass) -> Admit {
        if self.state.load(Ordering::SeqCst) == CLOSING {
            self.submit_side.rejected.fetch_add(1, Ordering::Relaxed);
            return Admit::Closed;
        }
        // Background first claims its class slot, then the shared one —
        // both released on any refusal below.
        if qos == QosClass::Background
            && self.bg_in_flight.fetch_add(1, Ordering::SeqCst) >= self.bg_cap
        {
            self.bg_in_flight.fetch_sub(1, Ordering::SeqCst);
            return self.refuse_full();
        }
        if self.in_flight.fetch_add(1, Ordering::SeqCst) >= self.class_limit(qos) {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            if qos == QosClass::Background {
                self.bg_in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            return self.refuse_full();
        }
        // Re-check after the admission increment: a shutdown that read
        // the counters before our increment rejects us here; one that
        // read after will wait for this job (see `shutdown`).
        if self.state.load(Ordering::SeqCst) == CLOSING {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            if qos == QosClass::Background {
                self.bg_in_flight.fetch_sub(1, Ordering::SeqCst);
            }
            self.submit_side.rejected.fetch_add(1, Ordering::Relaxed);
            return Admit::Closed;
        }
        Admit::Ok
    }

    /// The one submission path behind every public `*submit*` fn:
    /// admits `payload` under `opts.qos` (handing it back inside the
    /// refusal), wraps it into the job's cell and places the cell along
    /// `route`.
    pub(super) fn submit_job<P, R, F>(
        &self,
        opts: SubmitOptions,
        route: Route,
        payload: P,
        into_body: impl FnOnce(P) -> F,
    ) -> Result<JobHandle<R>, SubmitError<P>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let payload = self.admit_or(opts.qos, payload)?;
        let id = self.submit_side.job_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let now = clock::now();
        let deadline = opts.deadline.map_or(u64::MAX, |d| {
            let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
            now.saturating_add(clock::ns_to_ticks(ns))
        });
        let (handle, job) = JobCell::create(id, now, opts.qos, deadline, into_body(payload));
        self.submit_side.class_submitted[opts.qos.index()].fetch_add(1, Ordering::Relaxed);
        self.place(route, job);
        Ok(handle)
    }

    /// Places an admitted job along `route`: anonymous placement
    /// rotates shards starting at the hint until one takes the job; a
    /// pinned one pushes into its reserved lane. While serving, a full
    /// ring waits out the (running) drainers; from the pause onward —
    /// including a pause that lands mid-placement — the job diverts to
    /// the spill: the rings belong to the pause drain, no drainer frees
    /// a slot before resume, and a `try_submit` must never block until
    /// `resume`. Rings the doorbell for the shard that took the job.
    fn place(&self, route: Route, mut job: JobRef) {
        // Announce *before* the state check (see `ring_producers`).
        self.announce_ring_producer();
        let mut backoff = Backoff::new();
        loop {
            if !self.rings_open() {
                self.retire_ring_producer();
                self.spill_job(job);
                return;
            }
            let pushed = match route {
                Route::Anonymous(hint) => self.ingress.push_from(hint, job),
                Route::Pinned { shard, lane } => self
                    .ingress
                    .shard(shard)
                    .push_reserved(lane, job)
                    .map(|()| shard),
            };
            match pushed {
                Ok(shard) => {
                    self.retire_ring_producer();
                    // Ring for the shard that actually took the job:
                    // under fallover it may not be the hint, and waking
                    // the hint's zone instead would leave the job
                    // stranded behind another shard's backlog.
                    self.ring_doorbell(shard);
                    return;
                }
                Err(back) => {
                    job = back;
                    // Queues full: make sure someone is draining them.
                    self.ring_doorbell(route.shard());
                    backoff.snooze();
                }
            }
        }
    }

    /// Whether ring placement is live: drainers are pulling from the
    /// rings and will keep doing so (serving), or a closing drain is
    /// taking everything anyway. From the pause onward the rings belong
    /// to the pause drain — submissions divert to the spill, which is
    /// what lets that drain converge under sustained traffic.
    ///
    /// Only meaningful between [`announce_ring_producer`]
    /// (Self::announce_ring_producer) and the matching retire: the
    /// announcement is what makes the answer stable against a
    /// concurrent pause (Dekker: either this SeqCst load sees the
    /// DRAINING store and the caller diverts to the spill, or the pause
    /// drain's SeqCst `ring_producers` read sees the announcement and
    /// waits the push out).
    fn rings_open(&self) -> bool {
        matches!(self.state.load(Ordering::SeqCst), SERVING | CLOSING)
    }

    fn announce_ring_producer(&self) {
        self.submit_side
            .ring_producers
            .fetch_add(1, Ordering::SeqCst);
    }

    fn retire_ring_producer(&self) {
        self.submit_side
            .ring_producers
            .fetch_sub(1, Ordering::SeqCst);
    }

    /// Queues a job for the *next* generation (submissions that arrive
    /// from the pause onward), or catches a job that lost the ring race
    /// against a pause. Bounded by `max_in_flight`; drained before the
    /// ingress by the first polls of the next (or closing) generation.
    fn spill_job(&self, job: JobRef) {
        {
            let mut spill = self.spill.lock().unwrap_or_else(PoisonError::into_inner);
            spill.push_back(job);
            self.spill_nonempty.store(true, Ordering::SeqCst);
        }
        // Harmless while paused (nobody is parked in a live generation);
        // necessary while closing, where drainers are still running.
        self.ring_doorbell(0);
    }

    /// Wakes one parked worker for shard `shard`'s zone (zone-local
    /// first). No-op before the serve loop has published the parker —
    /// at that point every worker is still awake.
    fn ring_doorbell(&self, shard: usize) {
        let zone = self.zone_of_shard[shard % self.zone_of_shard.len()].load(Ordering::Relaxed);
        self.doorbell.with_current(|p| {
            p.notify_any(zone);
        });
    }

    /// Completion-side half of the blocked-submit handshake: one relaxed
    /// probe while nobody waits; a lock-bridged notify when someone does
    /// (the lock ensures the waiter is either still re-checking — and
    /// will see the decrement — or already waiting and gets the notify).
    pub(super) fn notify_capacity(&self) {
        if self.bp_waiters.load(Ordering::SeqCst) == 0 {
            return;
        }
        drop(self.bp_lock.lock().unwrap_or_else(PoisonError::into_inner));
        self.bp_cv.notify_all();
    }

    /// Whether `qos`'s admission quota is exhausted right now (racy
    /// probe; the blocked-submit wait condition).
    fn admission_full(&self, qos: QosClass) -> bool {
        (qos == QosClass::Background && self.bg_in_flight.load(Ordering::SeqCst) >= self.bg_cap)
            || self.in_flight.load(Ordering::SeqCst) >= self.class_limit(qos)
    }

    /// Parks the calling submitter until in-flight capacity under
    /// `qos`'s quota may be free (or the server closes). The SeqCst
    /// waiter registration pairs with the completion path's SeqCst
    /// decrement (a Dekker handshake), so a wake-up cannot be lost; the
    /// timeout is a defensive re-probe, not a correctness requirement.
    fn wait_capacity(&self, qos: QosClass) {
        self.bp_waiters.fetch_add(1, Ordering::SeqCst);
        {
            let mut guard = self.bp_lock.lock().unwrap_or_else(PoisonError::into_inner);
            while self.admission_full(qos) && self.state.load(Ordering::SeqCst) != CLOSING {
                let (g, _) = self
                    .bp_cv
                    .wait_timeout(guard, Duration::from_millis(1))
                    .unwrap_or_else(PoisonError::into_inner);
                guard = g;
            }
        }
        self.bp_waiters.fetch_sub(1, Ordering::SeqCst);
    }

    /// The admission gate shared by every submission flavor: reserves an
    /// in-flight slot under `qos`'s quota and hands `payload` back, or
    /// maps the refusal onto the right [`SubmitError`] carrying the
    /// payload.
    fn admit_or<F>(&self, qos: QosClass, payload: F) -> Result<F, SubmitError<F>> {
        match self.try_admit(qos) {
            Admit::Ok => Ok(payload),
            Admit::Busy => Err(SubmitError::Backpressure(payload)),
            Admit::PausedFull => Err(SubmitError::Paused(payload)),
            Admit::Closed => Err(SubmitError::Closed(payload)),
        }
    }
}

/// Outcome of [`ServerShared::try_admit`].
enum Admit {
    Ok,
    Busy,
    PausedFull,
    Closed,
}

/// Where [`ServerShared::place`] puts an admitted job.
#[derive(Clone, Copy)]
pub(super) enum Route {
    /// The anonymous claim path, starting at this shard.
    Anonymous(usize),
    /// A registered submitter's reserved lane.
    Pinned { shard: usize, lane: usize },
}

impl Route {
    fn shard(self) -> usize {
        match self {
            Route::Anonymous(shard) | Route::Pinned { shard, .. } => shard,
        }
    }
}

/// The blocking-submission retry loop shared by every `submit` flavor:
/// parks on the capacity condvar through backpressure (and through a
/// pause at the bound), failing only once the server is closed.
pub(super) fn submit_blocking<F, R>(
    shared: &ServerShared,
    qos: QosClass,
    mut payload: F,
    mut try_fn: impl FnMut(F) -> Result<R, SubmitError<F>>,
) -> Result<R, SubmitError<F>> {
    loop {
        match try_fn(payload) {
            Ok(h) => return Ok(h),
            // Terminal rejections: waiting cannot change either verdict.
            Err(SubmitError::Closed(back)) => return Err(SubmitError::Closed(back)),
            Err(SubmitError::InvalidLoop(back, e)) => {
                return Err(SubmitError::InvalidLoop(back, e))
            }
            Err(SubmitError::Backpressure(back)) | Err(SubmitError::Paused(back)) => {
                payload = back;
                shared.wait_capacity(qos);
            }
        }
    }
}

impl TaskServer {
    /// Registers a pinned submitter for NUMA zone `zone` (any value is
    /// accepted; it is mapped onto the zones that actually host
    /// workers).
    ///
    /// The handle owns a reserved ingress lane in the zone's shard when
    /// one is free — its pushes are then plain SPSC enqueues with zero
    /// claim traffic and zero cross-submitter contention. When every
    /// lane of the shard is already reserved the handle still works,
    /// falling back to the anonymous claim path. Dropping the handle
    /// releases the lane.
    ///
    /// Registration survives every lifecycle transition short of
    /// shutdown: the lane (and anything queued in it) rides through
    /// `pause`/`resume` and config swaps untouched.
    pub fn register_submitter(&self, zone: usize) -> SubmitterHandle {
        let n = self.shared.ingress.n_shards();
        let shard = (0..n)
            .find(|&s| self.shared.zone_of_shard[s].load(Ordering::Relaxed) == zone)
            .unwrap_or(zone % n);
        let lane = self.shared.ingress.shard(shard).reserve_lane();
        SubmitterHandle {
            shared: self.shared.clone(),
            shard,
            lane,
        }
    }
}

/// A pinned submission handle from [`TaskServer::register_submitter`]:
/// one reserved SPSC ingress lane in one NUMA zone's shard.
///
/// Submission semantics mirror the server's ([`try_submit`] fails with a
/// [`SubmitError`]; [`submit`] parks through backpressure), but
/// placement is *strict*: an admitted job lands in the pinned lane,
/// waiting for drains rather than spilling to claim-guarded lanes —
/// which is what keeps registered traffic contention-free and per-lane
/// accounting exact. The one exception is a paused server whose lane is
/// full: with no drainer running until resume, the job diverts to the
/// server's spill so `try_submit` cannot block until `resume`. Handles
/// without a lane (shard fully reserved) place anonymously.
///
/// Submission takes `&mut self`: the reserved lane is a
/// single-producer ring and the exclusive borrow *is* the producer
/// claim — one handle, one thread at a time. To submit from several
/// threads, register one handle per thread (that is the point of
/// registration).
///
/// The handle is independent of the [`TaskServer`] value's lifetime
/// (both share the server state) and stays registered across
/// [`pause`](TaskServer::pause)/[`resume`](TaskServer::resume) cycles
/// and config swaps; submissions fail once the server shuts down.
///
/// [`try_submit`]: SubmitterHandle::try_submit
/// [`submit`]: SubmitterHandle::submit
pub struct SubmitterHandle {
    shared: Arc<ServerShared>,
    shard: usize,
    lane: Option<usize>,
}

impl SubmitterHandle {
    /// The ingress shard this handle feeds.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The reserved lane, if one was free at registration.
    pub fn lane(&self) -> Option<usize> {
        self.lane
    }

    /// Non-blocking admission, pinned placement. Fails with a
    /// [`SubmitError`] carrying the closure back; once admitted, the job
    /// is always placed.
    pub fn try_submit<R, F>(&mut self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.try_submit_with(SubmitOptions::default(), f)
    }

    /// [`SubmitterHandle::try_submit`] with explicit [`SubmitOptions`]
    /// (QoS class + optional deadline).
    pub fn try_submit_with<R, F>(
        &mut self,
        opts: SubmitOptions,
        f: F,
    ) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let route = match self.lane {
            Some(lane) => Route::Pinned {
                shard: self.shard,
                lane,
            },
            None => Route::Anonymous(self.shard),
        };
        self.shared.submit_job(opts, route, f, |f| f)
    }

    /// Blocking submission through the pinned lane; parks through
    /// backpressure and fails only once the server is closed.
    pub fn submit<R, F>(&mut self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit_with(SubmitOptions::default(), f)
    }

    /// [`SubmitterHandle::submit`] with explicit [`SubmitOptions`].
    pub fn submit_with<R, F>(
        &mut self,
        opts: SubmitOptions,
        f: F,
    ) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let shared = self.shared.clone();
        submit_blocking(&shared, opts.qos, f, |f| self.try_submit_with(opts, f))
    }
}

impl Drop for SubmitterHandle {
    fn drop(&mut self) {
        if let Some(lane) = self.lane.take() {
            self.shared.ingress.shard(self.shard).release_lane(lane);
        }
    }
}

/// Stable-per-thread shard choice, so an anonymous submitter keeps
/// feeding the same zone (its jobs' spawned subtasks then stay
/// creator-local by default). Registered submitters pin explicitly.
pub(super) fn submitter_shard_hint(n_shards: usize) -> usize {
    use std::hash::{Hash, Hasher};
    thread_local! {
        static HINT: std::cell::OnceCell<usize> = const { std::cell::OnceCell::new() };
    }
    if n_shards <= 1 {
        return 0;
    }
    HINT.with(|cell| {
        *cell.get_or_init(|| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            h.finish() as usize
        })
    }) % n_shards
}
