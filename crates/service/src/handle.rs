//! Futures-style job handles over the job's **cell**: the one
//! allocation a submitted job costs.
//!
//! A handle resolves with `Result<R, JobError>`: the job's value, or a
//! typed reason it never produced one — a panic caught at the job
//! boundary, a cooperative [`cancel`](JobHandle::cancel), or an expired
//! deadline. Jobs move through a tiny phase machine (`queued → running`,
//! or `queued → shed` when a cancel/deadline resolves the handle before
//! the body ever ran); the server's job wrapper is the only place that
//! turns phases into counter accounting, so `completed + cancelled +
//! shed == submitted` holds exactly no matter how racy the callers are.
//!
//! ## The job cell
//!
//! One reference-counted [`JobCell`] holds everything a job needs: the
//! phase word, the latency stamps, the result slot, the cancellation
//! flag and the user closure. Its first field is a [`JobHeader`] with a
//! vtable, so the ingress lanes, the spill queue and the job's task all
//! carry it as one thin type-erased pointer ([`JobRef`]), and the
//! `CancelToken`s the job's tasks inherit are `Arc`s over the same cell
//! — sharing its count, not allocating their own.
//!
//! ## Deadlines
//!
//! A deadline lives in the cell's cancellation flag and is enforced
//! wherever the job is observed, with no timer of its own: a running
//! body expires at its next checkpoint (the flag's poll compares the
//! clock), the worker's start gate sheds a late queued job, and the
//! handle's observers (`is_done`, `try_join`, `report`, the joins) shed
//! a still-queued late job themselves — a waiting joiner never parks
//! past the job's deadline. So a joiner sees the shed even while every
//! worker is busy or the server is paused, and nothing but the ring and
//! the handle ever holds the cell.
//!
//! ## The wake protocol
//!
//! Completion writes the outcome and publishes it with one release RMW
//! on the cell's wake word, which sets `DONE`. A joiner that has to wait
//! stores its [`Thread`] in the cell and sets `JOINER` before parking;
//! the completer unparks it only when its RMW saw `JOINER`. A job that
//! nobody waits for therefore completes without a lock or a system
//! call. A bounded join withdraws its registration on timeout with a
//! compare-exchange that fails once `DONE` is set, so the completer and
//! the joiner never touch the joiner slot at the same time, and a wake
//! cannot be lost: either the completer sees the registration and
//! unparks, or the joiner sees `DONE` before it parks (and `unpark`
//! before `park` makes that `park` return at once).

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;
use std::time::{Duration, Instant};

use xgomp_core::{CancelFlag, CancelReason, CancelSource, TaskCtx};

use crate::server::ServerShared;
use crate::QosClass;

/// Job phases (`JobHeader::phase`). `QUEUED → RUNNING` is claimed by the
/// job wrapper when the body starts; `QUEUED → SHED_*` by whichever of
/// `JobHandle::cancel` / a handle observer past the deadline / the
/// wrapper's own start-time check gets there first — exactly one
/// transition out of `QUEUED` ever wins, which is what makes the
/// shed/cancelled/completed partition exact.
pub(crate) const PHASE_QUEUED: u32 = 0;
pub(crate) const PHASE_RUNNING: u32 = 1;
pub(crate) const PHASE_SHED_CANCEL: u32 = 2;
pub(crate) const PHASE_SHED_DEADLINE: u32 = 3;

/// Error returned by [`JobHandle::join`] when the job's body panicked.
///
/// Exactly one job is affected: the server catches the unwind at the job
/// boundary, so the team — and every other in-flight job — keeps running.
#[derive(Debug, Clone)]
pub struct JobPanic {
    /// Best-effort rendering of the panic payload.
    pub message: String,
}

impl JobPanic {
    pub(crate) fn from_payload(payload: &(dyn std::any::Any + Send)) -> Self {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "job panicked with a non-string payload".to_string()
        };
        JobPanic { message }
    }
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Why a job completed without a result.
#[derive(Debug, Clone)]
pub enum JobError {
    /// The body panicked (caught at the job boundary; the team and every
    /// other job keep running).
    Panicked(JobPanic),
    /// [`JobHandle::cancel`] fired the job's token: a queued job resolves
    /// immediately, a running one unwinds at its next cancellation
    /// checkpoint (chunk claim, `taskwait`, static-block stride).
    Cancelled,
    /// The job's deadline passed: shed before starting, or cancelled
    /// cooperatively mid-run (same checkpoints as
    /// [`Cancelled`](Self::Cancelled)).
    DeadlineExceeded,
}

impl JobError {
    /// The caught panic, when that is what ended the job.
    pub fn panic(&self) -> Option<&JobPanic> {
        match self {
            JobError::Panicked(p) => Some(p),
            _ => None,
        }
    }

    /// Whether the job ended by explicit cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, JobError::Cancelled)
    }

    /// Whether the job ended because its deadline passed.
    pub fn is_deadline_exceeded(&self) -> bool {
        matches!(self, JobError::DeadlineExceeded)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panicked(p) => p.fmt(f),
            JobError::Cancelled => write!(f, "job cancelled"),
            JobError::DeadlineExceeded => write!(f, "job deadline exceeded"),
        }
    }
}

impl std::error::Error for JobError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JobError::Panicked(p) => Some(p),
            _ => None,
        }
    }
}

impl From<JobPanic> for JobError {
    fn from(p: JobPanic) -> Self {
        JobError::Panicked(p)
    }
}

/// Typed timeout of a bounded join ([`JobHandle::join_timeout`] /
/// [`JobHandle::join_within_timeout`]): the job is still pending and the
/// handle comes back inside the error, so the caller can keep waiting,
/// [`cancel`](JobHandle::cancel) it, or drop it.
pub struct JoinTimeout<R> {
    /// The still-pending handle.
    pub handle: JobHandle<R>,
}

impl<R> std::fmt::Debug for JoinTimeout<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JoinTimeout")
            .field("job_id", &self.handle.job_id())
            .finish()
    }
}

impl<R> std::fmt::Display for JoinTimeout<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "join timed out: job {} is still pending",
            self.handle.job_id()
        )
    }
}

impl<R> std::error::Error for JoinTimeout<R> {}

/// Per-job latency breakdown, in timestamp-counter **cycles** (the same
/// clock the flight recorder stamps events with; convert via
/// `clock::cycles_per_ns` if wall time is needed).
///
/// Available from [`JobHandle::report`] once the job has completed.
/// `queued_cycles` covers admission → first instruction of the body
/// (ingress residency plus scheduling latency); `run_cycles` covers the
/// body itself (including a panicking body's partial run);
/// `total_cycles = queued_cycles + run_cycles`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobReport {
    /// Server-unique job id (also the flight recorder's async-span id
    /// for this job's `JobStart`/`JobEnd` events).
    pub job_id: u64,
    /// Cycles between admission and the job body starting to run.
    pub queued_cycles: u64,
    /// Cycles the job body ran for.
    pub run_cycles: u64,
    /// Cycles between admission and completion.
    pub total_cycles: u64,
}

/// Wake-word bits (`JobHeader::wake`): the outcome is published, and a
/// joiner is registered in `JobHeader::joiner`.
const DONE: u32 = 1;
const JOINER: u32 = 2;

/// The type-erased operations of one job cell type.
pub(crate) struct JobVTable {
    /// Runs the job through the server's wrapper, consuming the
    /// caller's reference.
    run: unsafe fn(NonNull<JobHeader>, &TaskCtx<'_>, &ServerShared),
    /// Adds one reference.
    retain: unsafe fn(NonNull<JobHeader>),
    /// Drops one reference (the last one frees the cell).
    release: unsafe fn(NonNull<JobHeader>),
}

/// The type-independent prefix of every job cell: everything the
/// type-erased paths (ingress, the wrapper's start gate, the handle's
/// deadline shed) read or resolve without knowing the closure or result
/// type.
#[repr(C)]
pub(crate) struct JobHeader {
    vtable: &'static JobVTable,
    /// Phase machine (see the `PHASE_*` constants).
    pub(crate) phase: AtomicU32,
    /// `DONE` / `JOINER` bits (see the module docs).
    wake: AtomicU32,
    /// Admission class, for the wrapper's per-class accounting.
    pub(crate) qos: QosClass,
    /// Server-unique id, assigned at admission (0 = untracked).
    pub(crate) id: u64,
    /// `clock::now()` at admission.
    pub(crate) submitted: u64,
    /// `clock::now()` when the body started running (0 until then).
    pub(crate) started: AtomicU64,
    /// `clock::now()` when the body finished (0 until then).
    pub(crate) finished: AtomicU64,
    /// The job's cancellation flag, read through every token the job's
    /// tasks inherit.
    pub(crate) cancel: CancelFlag,
    /// The error outcome. Kept in the header (the value lives in
    /// [`JobCore`]) so a shed can resolve the job without its types.
    /// Written once by the completer before `DONE`, taken once by the
    /// handle after it.
    err: UnsafeCell<Option<JobError>>,
    /// The registered joiner (see the module docs).
    joiner: UnsafeCell<Option<Thread>>,
}

impl JobHeader {
    /// Whether the outcome has been published (lock-free probe).
    pub(crate) fn is_done(&self) -> bool {
        self.wake.load(Ordering::Acquire) & DONE != 0
    }

    /// Publishes the outcome written just before and wakes a registered
    /// joiner. Called exactly once, by whoever won the phase machine.
    fn publish(&self) {
        if self.wake.fetch_or(DONE, Ordering::AcqRel) & JOINER != 0 {
            // SAFETY: the joiner stored its thread before setting JOINER
            // (our AcqRel RMW reads after its release), and it no longer
            // touches the slot: `DONE` is set, so its withdrawal fails.
            if let Some(t) = unsafe { (*self.joiner.get()).take() } {
                t.unpark();
            }
        }
    }

    /// Resolves the job with `err` and publishes it.
    pub(crate) fn complete_err(&self, err: JobError) {
        // SAFETY: only the phase machine's winner completes, once, and
        // no handle reads the slot before `DONE`.
        unsafe { *self.err.get() = Some(err) };
        self.publish();
    }

    /// Parks the calling thread until the job is done or `deadline`
    /// passes; returns whether it is done. Never parks past a queued
    /// job's own deadline: the waiter sheds the job itself then.
    fn wait(&self, deadline: Option<Instant>) -> bool {
        self.shed_if_expired();
        if self.is_done() {
            return true;
        }
        // SAFETY: `JOINER` is clear here (a registration is consumed by
        // the completer or withdrawn before a `false` return, and a done
        // job returned above), so no completer reads the slot.
        unsafe { *self.joiner.get() = Some(std::thread::current()) };
        if self.wake.fetch_or(JOINER, Ordering::AcqRel) & DONE != 0 {
            // Completed before the registration: the completer saw no
            // joiner and will not read the slot.
            // SAFETY: as above.
            unsafe { *self.joiner.get() = None };
            return true;
        }
        loop {
            let mut nap = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            if let Some(left) = self.queued_time_left() {
                if left.is_zero() {
                    // Our own shed publishes through the registration
                    // above, like any completer's.
                    self.shed_if_expired();
                    if self.is_done() {
                        return true;
                    }
                    continue; // the job started first
                }
                nap = Some(nap.map_or(left, |n| n.min(left)));
            }
            match nap {
                None => std::thread::park(),
                Some(n) if n.is_zero() => {
                    return match self.wake.compare_exchange(
                        JOINER,
                        0,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    ) {
                        Ok(_) => {
                            // SAFETY: withdrawn: a completer that comes
                            // later sees no `JOINER`.
                            unsafe { *self.joiner.get() = None };
                            false
                        }
                        // `DONE` won the race.
                        Err(_) => true,
                    };
                }
                Some(n) => std::thread::park_timeout(n),
            }
            if self.is_done() {
                return true;
            }
        }
    }

    /// Claims the `QUEUED → RUNNING` transition (the wrapper, right
    /// before the body runs). `false` means a cancel/deadline shed the
    /// job first.
    pub(crate) fn try_start(&self) -> bool {
        self.phase
            .compare_exchange(
                PHASE_QUEUED,
                PHASE_RUNNING,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// Claims a `QUEUED → SHED_*` transition and resolves the handle
    /// with `err` — the job's body will never run. `false` means the job
    /// already started (or was already shed); the caller must not touch
    /// the outcome then.
    pub(crate) fn try_shed(&self, err: JobError) -> bool {
        let phase = match err {
            JobError::DeadlineExceeded => PHASE_SHED_DEADLINE,
            _ => PHASE_SHED_CANCEL,
        };
        if self
            .phase
            .compare_exchange(PHASE_QUEUED, phase, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return false;
        }
        self.finished
            .store(xgomp_core::clock::now(), Ordering::Release);
        self.complete_err(err);
        true
    }

    /// Time left before a still-queued job's deadline, rounded up to
    /// whole nanoseconds; `None` when the job has no deadline or has
    /// left `QUEUED` (a running job expires at its own checkpoints).
    fn queued_time_left(&self) -> Option<Duration> {
        let deadline = self.cancel.deadline_tick()?;
        if self.phase.load(Ordering::Acquire) != PHASE_QUEUED {
            return None;
        }
        let ticks = deadline.saturating_sub(xgomp_core::clock::now());
        let ns = (ticks as f64 / xgomp_core::clock::cycles_per_ns()).ceil();
        Some(Duration::from_nanos(ns as u64))
    }

    /// Sheds a still-queued job whose deadline has passed: the handle's
    /// observers call this, so the shed does not wait for a worker to
    /// reach the job. A no-op without a deadline, before it, or once
    /// the job has started or resolved.
    fn shed_if_expired(&self) {
        if self.phase.load(Ordering::Acquire) == PHASE_QUEUED
            && self.cancel.poll() == Some(CancelReason::DeadlineExceeded)
        {
            self.try_shed(JobError::DeadlineExceeded);
        }
    }
}

/// The header plus the value slot: the part of a cell a
/// [`JobHandle<R>`] can name without knowing the closure type.
#[repr(C)]
pub(crate) struct JobCore<R> {
    header: JobHeader,
    /// The value outcome (see `JobHeader::err` for the error half).
    value: UnsafeCell<Option<R>>,
}

impl<R> JobCore<R> {
    /// Publishes the job's outcome. Called exactly once, by the
    /// wrapper that claimed `RUNNING`.
    pub(crate) fn complete(&self, result: Result<R, JobError>) {
        match result {
            Ok(v) => {
                // SAFETY: as in `JobHeader::complete_err`.
                unsafe { *self.value.get() = Some(v) };
                self.header.publish();
            }
            Err(e) => self.header.complete_err(e),
        }
    }
}

/// One job: the only allocation a submission makes (see the module
/// docs). Every [`JobRef`], [`JobHandle`] and `CancelToken` over it
/// holds one count of the surrounding `Arc`.
#[repr(C)]
pub(crate) struct JobCell<R, F> {
    core: JobCore<R>,
    /// The user closure, taken by the job's one run.
    body: UnsafeCell<Option<F>>,
}

// SAFETY: `body` is touched only by the holder of the ring's reference
// (the one run); the outcome slots are written once by the phase
// machine's winner before the release that sets `DONE` and read once by
// the handle after acquiring it; the joiner slot follows the wake
// protocol. Everything else is atomic or immutable.
unsafe impl<R: Send, F: Send> Send for JobCell<R, F> {}
unsafe impl<R: Send, F: Send> Sync for JobCell<R, F> {}

impl<R: Send + 'static, F: Send + 'static> CancelSource for JobCell<R, F> {
    fn cancel_flag(&self) -> &CancelFlag {
        &self.core.header.cancel
    }
}

impl<R, F> JobCell<R, F>
where
    R: Send + 'static,
    F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
{
    const VTABLE: JobVTable = JobVTable {
        run: crate::server::run_job::<R, F>,
        retain: Self::retain,
        release: Self::release,
    };

    /// Allocates the job's cell; returns its handle and the reference
    /// the ring (and then the job's task) carries. `deadline` is a
    /// clock tick, `u64::MAX` for none.
    pub(crate) fn create(
        id: u64,
        submitted: u64,
        qos: QosClass,
        deadline: u64,
        f: F,
    ) -> (JobHandle<R>, JobRef) {
        let cell = Arc::new(JobCell {
            core: JobCore::<R> {
                header: JobHeader {
                    vtable: &Self::VTABLE,
                    phase: AtomicU32::new(PHASE_QUEUED),
                    wake: AtomicU32::new(0),
                    qos,
                    id,
                    submitted,
                    started: AtomicU64::new(0),
                    finished: AtomicU64::new(0),
                    cancel: CancelFlag::new(deadline),
                    err: UnsafeCell::new(None),
                    joiner: UnsafeCell::new(None),
                },
                value: UnsafeCell::new(None),
            },
            body: UnsafeCell::new(Some(f)),
        });
        // Two references: the handle's and the job's. `#[repr(C)]` puts
        // the core, and the header inside it, at the cell's address.
        let job = Arc::into_raw(cell.clone()).cast::<JobHeader>().cast_mut();
        let core = Arc::into_raw(cell).cast::<JobCore<R>>().cast_mut();
        // SAFETY: `Arc::into_raw` never returns null.
        unsafe {
            (
                JobHandle {
                    core: NonNull::new_unchecked(core),
                    _owns: PhantomData,
                },
                JobRef(NonNull::new_unchecked(job)),
            )
        }
    }

    /// Reclaims the cell behind a reference as a typed `Arc`.
    ///
    /// # Safety
    ///
    /// `job` must point into a live `JobCell<R, F>`; the caller hands
    /// over one reference.
    pub(crate) unsafe fn from_job(job: NonNull<JobHeader>) -> Arc<Self> {
        // SAFETY: `#[repr(C)]` puts the header at the cell's address.
        unsafe { Arc::from_raw(job.as_ptr().cast::<Self>()) }
    }

    pub(crate) fn header(&self) -> &JobHeader {
        &self.core.header
    }

    pub(crate) fn core(&self) -> &JobCore<R> {
        &self.core
    }

    /// Takes the user closure.
    ///
    /// # Safety
    ///
    /// Only the holder of the ring's reference (the job's one run) may
    /// call this.
    pub(crate) unsafe fn take_body(&self) -> Option<F> {
        // SAFETY: forwarded from the caller.
        unsafe { (*self.body.get()).take() }
    }

    unsafe fn retain(job: NonNull<JobHeader>) {
        // SAFETY: the caller holds a reference to a cell of this type.
        unsafe { Arc::increment_strong_count(job.as_ptr().cast::<Self>()) }
    }

    unsafe fn release(job: NonNull<JobHeader>) {
        // SAFETY: the caller hands over a reference to a cell of this type.
        drop(unsafe { Self::from_job(job) })
    }
}

/// An owning, type-erased, one-word reference to a job cell: what the
/// ingress lanes, the spill queue and the job's task carry.
pub(crate) struct JobRef(NonNull<JobHeader>);

// SAFETY: the cell is `Send + Sync` (see `JobCell`).
unsafe impl Send for JobRef {}

impl JobRef {
    pub(crate) fn header(&self) -> &JobHeader {
        // SAFETY: a reference keeps the cell alive.
        unsafe { self.0.as_ref() }
    }

    /// Gives up ownership as a raw pointer (a ring slot).
    pub(crate) fn into_raw(self) -> NonNull<JobHeader> {
        let p = self.0;
        std::mem::forget(self);
        p
    }

    /// Takes back ownership of [`into_raw`](Self::into_raw)'s pointer.
    ///
    /// # Safety
    ///
    /// `p` must come from `into_raw`, and be reclaimed once.
    pub(crate) unsafe fn from_raw(p: NonNull<JobHeader>) -> Self {
        JobRef(p)
    }

    /// Runs the job through the server's wrapper.
    pub(crate) fn run(self, ctx: &TaskCtx<'_>, shared: &ServerShared) {
        let run = self.header().vtable.run;
        // SAFETY: the vtable matches the cell; the reference moves in.
        unsafe { run(self.into_raw(), ctx, shared) }
    }
}

impl Clone for JobRef {
    fn clone(&self) -> Self {
        // SAFETY: we hold a reference, so the cell is alive.
        unsafe { (self.header().vtable.retain)(self.0) };
        JobRef(self.0)
    }
}

impl Drop for JobRef {
    fn drop(&mut self) {
        // SAFETY: we own one reference.
        unsafe { (self.header().vtable.release)(self.0) }
    }
}

/// A handle to one submitted job's eventual result.
///
/// Cheap to move across threads; [`join`](Self::join) blocks until the
/// job has executed, [`try_join`](Self::try_join) polls, and
/// [`is_done`](Self::is_done) is a lock-free readiness probe — the same
/// completion-observation triple a future offers, without an async
/// runtime in the loop. [`cancel`](Self::cancel) requests cooperative
/// cancellation (see there for the guarantees).
///
/// Handles span server generations: a job admitted while the server is
/// paused stays queued (its handle pending) until a `resume` opens the
/// next generation, and a `shutdown` drains every admitted job — so a
/// pending handle always resolves unless the process aborts. A `join`
/// on a queued-while-paused handle therefore blocks until someone calls
/// `resume` (or `shutdown`); use [`try_join`](Self::try_join) or
/// [`join_timeout`](Self::join_timeout) when the pause duration is
/// under the caller's control.
pub struct JobHandle<R> {
    core: NonNull<JobCore<R>>,
    _owns: PhantomData<JobCore<R>>,
}

// SAFETY: the handle's own accesses follow the cell's protocol (see
// `JobCell`); `R` only ever moves out of it, so `R: Send` suffices.
unsafe impl<R: Send> Send for JobHandle<R> {}
unsafe impl<R: Send> Sync for JobHandle<R> {}

impl<R> Drop for JobHandle<R> {
    fn drop(&mut self) {
        let release = self.header().vtable.release;
        // SAFETY: the handle owns one reference; `#[repr(C)]` puts the
        // header at the core's address.
        unsafe { release(self.core.cast()) }
    }
}

impl<R> std::fmt::Debug for JobHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("done", &self.is_done())
            .finish()
    }
}

impl<R> JobHandle<R> {
    fn header(&self) -> &JobHeader {
        // SAFETY: the handle keeps the cell alive.
        unsafe { &self.core.as_ref().header }
    }

    /// Whether the job has completed (lock-free probe; sheds a queued
    /// job whose deadline has passed, see the module docs).
    pub fn is_done(&self) -> bool {
        let header = self.header();
        header.shed_if_expired();
        header.is_done()
    }

    /// Server-unique id of this job — the flight recorder keys the job's
    /// `JobStart`/`JobEnd` async span on the same value.
    pub fn job_id(&self) -> u64 {
        self.header().id
    }

    /// Requests cooperative cancellation.
    ///
    /// A job that has not started resolves immediately with
    /// [`JobError::Cancelled`] (and is *shed* — its body never runs,
    /// even though it still occupies its ingress slot until the server
    /// drains it). A running job keeps running until its next
    /// cancellation checkpoint — a `parallel_for` chunk claim, a
    /// `taskwait`, or a static-block stride — where it abandons its
    /// remaining loop ranges (conserved into `cancelled_iters`) and
    /// unwinds; the handle then resolves with [`JobError::Cancelled`].
    /// A body that never reaches a checkpoint runs to completion — the
    /// flag preempts nothing. Idempotent; a no-op on completed jobs.
    pub fn cancel(&self) {
        let header = self.header();
        header.cancel.cancel();
        header.try_shed(JobError::Cancelled);
    }

    /// The job's latency breakdown, once complete; `None` while pending.
    ///
    /// Non-consuming, so it composes with any of the join flavors:
    /// probe `report()` before `join()`, or clone the numbers after an
    /// [`is_done`](Self::is_done) turns true.
    pub fn report(&self) -> Option<JobReport> {
        if !self.is_done() {
            return None;
        }
        let h = self.header();
        let started = h.started.load(Ordering::Acquire);
        let finished = h.finished.load(Ordering::Acquire);
        Some(JobReport {
            job_id: h.id,
            queued_cycles: started.saturating_sub(h.submitted),
            run_cycles: finished.saturating_sub(started),
            total_cycles: finished.saturating_sub(h.submitted),
        })
    }

    /// Takes the result if the job has completed; `None` while pending.
    pub fn try_join(self) -> Result<Result<R, JobError>, Self> {
        if !self.is_done() {
            return Err(self);
        }
        Ok(self.take())
    }

    /// Cooperative join **for use inside a job**: helps execute pending
    /// tasks on the calling worker while waiting.
    ///
    /// A plain [`join`](Self::join) from within a job can deadlock the
    /// team: the blocked worker is the only thread allowed to pop (or
    /// migrate) the tasks queued in its own lattice row, so a dependency
    /// that landed there can never run. `join_within` keeps the worker
    /// at a scheduling point instead of parking it, so those tasks —
    /// including the joined job itself — keep flowing.
    pub fn join_within(self, ctx: &xgomp_core::TaskCtx<'_>) -> Result<R, JobError> {
        let mut spins = 0u32;
        while !self.is_done() {
            // `help_pending`, not `run_pending`: when every worker is
            // inside a `join_within`, the awaited jobs can still be
            // sitting in the ingress with no idle worker left to drain
            // them — helping must reach the ingress too.
            if ctx.help_pending(16) == 0 {
                if spins < 64 {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            } else {
                spins = 0;
            }
        }
        self.take()
    }

    /// Bounded [`join_within`](Self::join_within): helps execute pending
    /// tasks for up to `timeout`, then returns the typed
    /// [`JoinTimeout`] (handle inside) if the job is still pending.
    pub fn join_within_timeout(
        self,
        ctx: &xgomp_core::TaskCtx<'_>,
        timeout: Duration,
    ) -> Result<Result<R, JobError>, JoinTimeout<R>> {
        let deadline = std::time::Instant::now() + timeout;
        let mut spins = 0u32;
        while !self.is_done() {
            if std::time::Instant::now() >= deadline {
                return Err(JoinTimeout { handle: self });
            }
            if ctx.help_pending(16) == 0 {
                if spins < 64 {
                    std::hint::spin_loop();
                    spins += 1;
                } else {
                    std::thread::yield_now();
                }
            } else {
                spins = 0;
            }
        }
        Ok(self.take())
    }

    /// Blocks until the job completes and returns its result (or the
    /// typed error that ended it).
    ///
    /// Call this from threads **outside** the team only. From inside a
    /// job, use [`join_within`](Self::join_within) — parking a worker on
    /// another job's completion can deadlock the scheduler (see there).
    pub fn join(self) -> Result<R, JobError> {
        self.header().wait(None);
        self.take()
    }

    /// Waits up to `timeout` for completion; the typed [`JoinTimeout`]
    /// (handle inside) comes back on timeout so the caller can keep
    /// waiting, cancel, or walk away.
    pub fn join_timeout(self, timeout: Duration) -> Result<Result<R, JobError>, JoinTimeout<R>> {
        if self.header().wait(Some(Instant::now() + timeout)) {
            Ok(self.take())
        } else {
            Err(JoinTimeout { handle: self })
        }
    }

    /// Takes the outcome of a done job.
    fn take(self) -> Result<R, JobError> {
        debug_assert!(self.is_done());
        // SAFETY: `DONE` was observed with acquire ordering, so the
        // outcome is written and nobody else touches it; `self` is the
        // job's only handle.
        unsafe {
            let core = self.core.as_ref();
            match (*core.header.err.get()).take() {
                Some(e) => Err(e),
                None => Ok((*core.value.get())
                    .take()
                    .expect("completed job has a result")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The server's side of a pending job: its reference, typed.
    struct Completer<R>(JobRef, PhantomData<R>);

    impl<R> Completer<R> {
        fn complete(&self, result: Result<R, JobError>) {
            // SAFETY: the cell was created with result type `R`, and
            // `#[repr(C)]` puts its core at the header's address.
            let core = unsafe { self.0 .0.cast::<JobCore<R>>().as_ref() };
            core.complete(result);
        }
    }

    impl<R> std::ops::Deref for Completer<R> {
        type Target = JobHeader;
        fn deref(&self) -> &JobHeader {
            self.0.header()
        }
    }

    fn pending<R: Send + 'static>(id: u64, submitted: u64) -> (JobHandle<R>, Completer<R>) {
        let (handle, job) = JobCell::create(
            id,
            submitted,
            QosClass::Normal,
            u64::MAX,
            |_: &TaskCtx<'_>| -> R { unreachable!("never run") },
        );
        (handle, Completer(job, PhantomData))
    }

    #[test]
    fn join_blocks_until_complete() {
        let (handle, state) = pending::<u32>(1, 0);
        assert!(!handle.is_done());
        let t = std::thread::spawn(move || handle.join());
        std::thread::sleep(Duration::from_millis(10));
        state.complete(Ok(7));
        assert_eq!(t.join().unwrap().unwrap(), 7);
    }

    #[test]
    fn try_join_polls() {
        let (handle, state) = pending::<u32>(2, 0);
        let handle = match handle.try_join() {
            Err(h) => h,
            Ok(_) => panic!("job cannot be done yet"),
        };
        state.complete(Err(JobPanic {
            message: "boom".into(),
        }
        .into()));
        match handle.try_join() {
            Ok(Err(e)) => assert_eq!(e.panic().expect("panicked").message, "boom"),
            other => panic!("expected completed panic, got {:?}", other.is_ok()),
        }
    }

    #[test]
    fn report_breaks_down_latency() {
        let (handle, state) = pending::<u32>(42, 100);
        assert!(handle.report().is_none(), "pending job has no report yet");
        state.started.store(130, Ordering::Relaxed);
        state.finished.store(180, Ordering::Relaxed);
        state.complete(Ok(0));
        let r = handle.report().expect("completed job reports");
        assert_eq!(r.job_id, 42);
        assert_eq!(r.queued_cycles, 30);
        assert_eq!(r.run_cycles, 50);
        assert_eq!(r.total_cycles, 80);
        assert_eq!(r.total_cycles, r.queued_cycles + r.run_cycles);
    }

    #[test]
    fn join_timeout_returns_typed_error_with_handle() {
        let (handle, state) = pending::<u32>(3, 0);
        let timeout = match handle.join_timeout(Duration::from_millis(5)) {
            Err(t) => t,
            Ok(_) => panic!("cannot complete"),
        };
        assert!(timeout.to_string().contains("job 3"));
        state.complete(Ok(1));
        assert_eq!(
            timeout
                .handle
                .join_timeout(Duration::from_secs(5))
                .ok()
                .unwrap()
                .unwrap(),
            1
        );
    }

    #[test]
    fn cancel_of_a_queued_job_resolves_immediately_as_shed() {
        let (handle, state) = pending::<u32>(4, 0);
        handle.cancel();
        assert!(handle.is_done(), "queued job resolves on the spot");
        assert!(state.cancel.is_fired());
        assert_eq!(state.phase.load(Ordering::Relaxed), PHASE_SHED_CANCEL);
        assert!(matches!(handle.join(), Err(JobError::Cancelled)));
    }

    #[test]
    fn cancel_of_a_started_job_only_fires_the_token() {
        let (handle, state) = pending::<u32>(5, 0);
        assert!(state.try_start(), "wrapper claims the start");
        handle.cancel();
        assert!(!handle.is_done(), "running job resolves at a checkpoint");
        assert!(state.cancel.is_fired(), "checkpoints will observe the flag");
        assert!(
            !state.try_shed(JobError::Cancelled),
            "start already claimed"
        );
        state.complete(Err(JobError::Cancelled));
        assert!(handle.join().unwrap_err().is_cancelled());
    }

    /// Completion races every join flavour: a lost wake-up shows up as
    /// a bounded join timing out on a job completed long before.
    #[test]
    fn joins_racing_completion_never_lose_a_wake() {
        for i in 0..2_000u32 {
            let (handle, state) = pending::<u32>(u64::from(i), 0);
            let completer = std::thread::spawn(move || {
                for _ in 0..(i % 7) * 50 {
                    std::hint::spin_loop();
                }
                state.complete(Ok(i));
            });
            let got = match i % 3 {
                0 => handle.join_timeout(Duration::from_secs(10)).ok(),
                // Short timeouts: registrations withdrawn and renewed
                // while the completion lands.
                1 => {
                    let mut h = handle;
                    let give_up = Instant::now() + Duration::from_secs(10);
                    loop {
                        match h.join_timeout(Duration::from_micros(20)) {
                            Ok(r) => break Some(r),
                            Err(t) if Instant::now() < give_up => h = t.handle,
                            Err(_) => break None,
                        }
                    }
                }
                _ => {
                    let mut h = handle;
                    let give_up = Instant::now() + Duration::from_secs(10);
                    loop {
                        match h.try_join() {
                            Ok(r) => break Some(r),
                            Err(back) if Instant::now() < give_up => h = back,
                            Err(_) => break None,
                        }
                    }
                }
            };
            assert_eq!(got.expect("lost wake-up").unwrap(), i);
            completer.join().unwrap();
        }
    }

    /// Outcomes and closures are dropped exactly once, whether or not
    /// anyone takes them.
    #[test]
    fn cell_drops_outcome_and_body_once() {
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct Canary;
        impl Drop for Canary {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        // A completed value nobody joins.
        let (handle, state) = pending::<Canary>(1, 0);
        state.complete(Ok(Canary));
        drop(handle);
        assert_eq!(DROPS.load(Ordering::SeqCst), 0, "the job still holds it");
        drop(state);
        assert_eq!(DROPS.load(Ordering::SeqCst), 1);
        // A closure that never runs.
        let canary = Canary;
        let (handle, job) = JobCell::create(2, 0, QosClass::Normal, u64::MAX, move |_| {
            let _keep = &canary;
        });
        drop(job);
        drop(handle);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }
}
