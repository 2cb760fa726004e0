//! The [`TaskServer`]: a persistent executor serving jobs from arbitrary
//! threads, with event-driven idling, registered ingress lanes, and
//! multi-generation serving (pause / resume / config swap).
//!
//! Submission-side architecture (see the crate docs for the full
//! picture):
//!
//! * **Admission** — a bounded in-flight count gates every path;
//! * **Placement** — anonymous submitters rotate over the claim-guarded
//!   lanes of their hinted shard; *registered* submitters
//!   ([`TaskServer::register_submitter`]) own a reserved lane and push
//!   with plain SPSC stores, no claims at all;
//! * **Doorbell** — after the push lands, the submitter wakes one parked
//!   worker in the target shard's NUMA zone (zone-local first, exactly
//!   the NA-RP victim order). While the team is busy this is one fence
//!   plus one relaxed load; while the team sleeps it is the microsecond
//!   path from "job queued" to "worker running it".
//!
//! ## Generations
//!
//! The server serves *generations*: one parallel region of the
//! [`PersistentTeam`] per generation. [`TaskServer::pause`] completes
//! every job admitted before it — in-team and still-ring-queued alike —
//! to a quiescent barrier and retires the generation: every worker
//! parks (aux workers on the team's start gate, the master on the
//! control condvar; ~0 CPU), while the ingress tier, registered lanes,
//! and all [`SubmitterHandle`]s stay exactly as they were. Submissions
//! made from the pause onward are admitted (up to the in-flight bound)
//! and queue for the next generation; at the bound they bounce with
//! [`SubmitError::Paused`].
//! [`TaskServer::resume`] opens the next generation on the team's
//! generation-stamped start gate; [`TaskServer::resume_with`] applies a
//! new [`RuntimeConfig`] at the boundary — growing or shrinking the
//! worker set and re-mapping workers/doorbells onto the (persistent)
//! ingress shards when the zone map changes — and
//! [`TaskServer::swap_tuning`] hot-swaps the DLB configuration at any
//! time, resetting the adaptive controller's hysteresis so a stale
//! half-confirmed recommendation cannot override the swap.
//!
//! ```text
//!            ┌────────────────────── resume / resume_with ─────────────┐
//!            ▼                                                         │
//!       ┌─────────┐   pause()    ┌──────────┐  in-team drained   ┌────────┐
//!  ───▶ │ Serving │ ───────────▶ │ Draining │ ─────────────────▶ │ Paused │
//!       └─────────┘              └──────────┘   (region ends,    └────────┘
//!            │                        │          workers park)        │
//!            │ shutdown()             │ shutdown()       shutdown()   │
//!            ▼                        ▼                               ▼
//!       ┌──────────────────────────────────────────────────────────────┐
//!       │ Closed: admission rejected, full drain (queued jobs too),    │
//!       │ team torn down, per-generation telemetry returned            │
//!       └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! The serve loop itself parks worker 0 once its backoff saturates, so a
//! fully idle server occupies zero cores; the doorbell (or a lifecycle
//! transition) brings it back.

use std::collections::{BinaryHeap, VecDeque};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use crate::controller::AdaptiveController;
use crate::handle::{
    JobCell, JobError, JobHandle, JobHeader, JobPanic, JobRef, PHASE_SHED_DEADLINE,
};
use crate::ingress::ShardedIngress;
use crate::metrics::{MetricsHooks, MetricsListener};
use crate::{QosClass, ServerConfig, SubmitOptions};
use xgomp_core::{
    clock, AutoSelector, AutoSiteStatus, CancelReason, CancelToken, CancelUnwind, DlbConfig,
    DlbStrategy, DlbTuning, EventKind, IngressSource, LiveTaskSampler, LoopBalancer, LoopError,
    LoopId, LoopReport, LoopSchedule, LoopSpace, LoopTelemetry, LoopTelemetrySnapshot, ParkerCell,
    PersistentTeam, PromText, RegionOutput, RuntimeConfig, TaskCtx, TaskSizeHistogram, TraceLevel,
    TraceSnapshot, TraceStream, TraceStreamStats, Tracer,
};
use xgomp_topology::Placement;
use xgomp_xqueue::Backoff;

// ---- lifecycle states (ServerShared::state) ----------------------------

/// A generation is open; drainers inject, submissions flow.
const SERVING: u32 = 0;
/// `pause()` requested: the serve loop is completing every job admitted
/// before the pause (in-team and ring-queued); new submissions divert
/// to the spill for the next generation.
const DRAINING: u32 = 1;
/// Between generations: team quiescent and parked, ingress retained,
/// submissions queue (or bounce at the bound).
const PAUSED: u32 = 2;
/// `shutdown()` (or drop): admission closed, everything admitted — queued
/// jobs included — drains before the team is torn down. Terminal.
const CLOSING: u32 = 3;

/// Point-in-time lifecycle of a [`TaskServer`] (see the
/// [module docs](self) for the state machine).
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

/// Command sent from a `resume`/`resume_with` caller to the master
/// control loop: open the next generation, optionally with a new
/// runtime configuration.
struct ControlPlane {
    resume: Option<Option<RuntimeConfig>>,
}

/// Fixed upper bounds (seconds) of the per-class job latency histograms
/// (`xgomp_job_{queued,run}_seconds`). Log-spaced from 1 µs to 10 s and
/// *stable*: dashboards key on these `le` edges.
pub(crate) const LATENCY_BUCKETS_SECS: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1.0, 5.0, 10.0,
];

/// The upper bucket edges of [`LATENCY_BUCKETS_SECS`] in clock ticks:
/// edge `i` is the largest tick count whose `clock::ticks_to_secs` is
/// within bucket `i`, so comparing ticks against it files every sample
/// exactly where comparing seconds would. Computed once per server.
fn latency_edges_ticks() -> [u64; LATENCY_BUCKETS_SECS.len()] {
    let per_sec = clock::cycles_per_ns() * 1e9;
    LATENCY_BUCKETS_SECS.map(|b| {
        let mut t = (b * per_sec) as u64;
        while t > 0 && clock::ticks_to_secs(t) > b {
            t -= 1;
        }
        while clock::ticks_to_secs(t + 1) <= b {
            t += 1;
        }
        t
    })
}

/// One fixed-bucket latency histogram: lock-free recording in clock
/// ticks, exposition in seconds. Buckets store *non*-cumulative counts;
/// the render path cumulates (the exposition format wants cumulative
/// `le` counts, but recording then would need N increments per sample).
struct LatencyHist {
    counts: [AtomicU64; LATENCY_BUCKETS_SECS.len()],
    sum_ticks: AtomicU64,
    count: AtomicU64,
}

impl LatencyHist {
    fn new() -> Self {
        LatencyHist {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ticks: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample against the tick `edges` of
    /// [`latency_edges_ticks`].
    fn record_ticks(&self, ticks: u64, edges: &[u64; LATENCY_BUCKETS_SECS.len()]) {
        let i = edges.partition_point(|&e| e < ticks);
        if let Some(c) = self.counts.get(i) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_ticks.fetch_add(ticks, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// (cumulative bucket counts, sum in seconds, total observations).
    fn render_parts(&self) -> (Vec<u64>, f64, u64) {
        let mut acc = 0u64;
        let cumulative = self
            .counts
            .iter()
            .map(|c| {
                acc += c.load(Ordering::Relaxed);
                acc
            })
            .collect();
        (
            cumulative,
            clock::ticks_to_secs(self.sum_ticks.load(Ordering::Relaxed)),
            self.count.load(Ordering::Relaxed),
        )
    }
}

/// Per-QoS-class outcome counters and latency histograms, written by
/// the workers (one slot per [`QosClass`], indexed by
/// `QosClass::index`; the submitted count lives with the submitters'
/// counters).
struct ClassCounters {
    completed: AtomicU64,
    cancelled: AtomicU64,
    shed: AtomicU64,
    queued_hist: LatencyHist,
    run_hist: LatencyHist,
}

impl ClassCounters {
    fn new() -> Self {
        ClassCounters {
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queued_hist: LatencyHist::new(),
            run_hist: LatencyHist::new(),
        }
    }
}

/// Pads a value to its own 128-byte block (a cache line and its
/// prefetch pair), so counters written by different threads never
/// share a line.
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The counters submitters write: admission and placement.
#[derive(Default)]
struct SubmitCounters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    /// Per-class admissions, indexed by `QosClass::index()`.
    class_submitted: [AtomicU64; 3],
    /// Monotone job-id allocator (ids start at 1; `0` means untracked).
    /// The id keys the job's `JobStart`/`JobEnd` async trace span and
    /// its [`JobReport`](crate::JobReport).
    job_seq: AtomicU64,
    /// Submitters currently between a "rings open" check and the end of
    /// their ring push. The pause drain may not quiesce while this is
    /// nonzero: a producer that observed `SERVING` could otherwise land
    /// its (pre-pause-admitted) job in a ring *after* the drain's final
    /// emptiness check, stranding it until resume. SeqCst Dekker with
    /// the state flip — see `announce_ring_producer`.
    ring_producers: AtomicUsize,
}

/// The counters workers write: drain and completion.
struct WorkerCounters {
    /// Jobs handed to the team's scheduler but not yet completed — the
    /// quantity a pause drains to zero (ingress-queued jobs stay queued).
    in_team: AtomicUsize,
    completed: AtomicU64,
    /// Jobs whose body started and was then terminated at a cancellation
    /// checkpoint. Disjoint from `completed` and `shed`.
    cancelled: AtomicU64,
    /// Jobs resolved without their body ever running (cancel/deadline
    /// won the race out of `QUEUED`). Disjoint from the other two, so
    /// `completed + cancelled + shed` drains to `submitted` exactly.
    shed: AtomicU64,
    /// Per-class counters + latency histograms, indexed by
    /// `QosClass::index()`.
    class: [ClassCounters; 3],
    /// The histograms' bucket edges in ticks ([`latency_edges_ticks`]).
    hist_edges: [u64; LATENCY_BUCKETS_SECS.len()],
}

/// Point-in-time per-class job counters ([`TaskServer::class_stats`]).
/// The partition is exact once the class is quiescent:
/// `submitted == completed + cancelled + shed` (+ still-in-flight jobs
/// while serving).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QosClassStats {
    /// The class these counters describe.
    pub class: QosClass,
    /// Jobs of this class accepted by admission control.
    pub submitted: u64,
    /// Jobs whose body ran to its own end (including panicked bodies).
    pub completed: u64,
    /// Jobs whose body started and was then terminated at a
    /// cancellation checkpoint (explicit cancel or expired deadline).
    pub cancelled: u64,
    /// Jobs shed before their body ever ran (cancelled while queued, or
    /// deadline expired while queued).
    pub shed: u64,
}

/// One registered deadline, ordered earliest-first in the sweep heap.
/// The sweep sheds the job when still queued / fires its flag when
/// running ([`JobHeader::fire_deadline`]).
struct DeadlineEntry {
    tick: u64,
    id: u64,
    job: JobRef,
}

impl PartialEq for DeadlineEntry {
    fn eq(&self, other: &Self) -> bool {
        self.tick == other.tick && self.id == other.id
    }
}
impl Eq for DeadlineEntry {}
impl PartialOrd for DeadlineEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeadlineEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the sweep wants the
        // earliest deadline on top.
        other.tick.cmp(&self.tick).then(other.id.cmp(&self.id))
    }
}

/// State shared between submitters, the drain hook, and the master loop.
pub(crate) struct ServerShared {
    pub(crate) ingress: ShardedIngress,
    /// shard → NUMA zone for doorbell targeting, re-mapped at every
    /// generation boundary (a config swap may change the zone map; the
    /// shard set itself is fixed so pinned lanes stay valid).
    zone_of_shard: Box<[AtomicUsize]>,
    /// The doorbell: publishes the current generation's parker to
    /// submitters and accumulates park/wake counters across generations.
    doorbell: ParkerCell,
    /// Lifecycle state machine (`SERVING`/`DRAINING`/`PAUSED`/`CLOSING`).
    /// Written only under the `ctl` lock (or by the exclusive-borrow
    /// shutdown path); read lock-free on the hot paths, so it keeps a
    /// line of its own, away from the counters.
    state: CachePadded<AtomicU32>,
    /// Workers of the current/next generation (reported as "parked"
    /// while the server is paused — they sit on the team's start gate).
    current_threads: AtomicUsize,
    /// Generations opened so far.
    generation: AtomicU64,
    /// Jobs admitted but not yet completed (ingress-queued + in-team):
    /// written by submitters and workers alike, so on a line of its own.
    in_flight: CachePadded<AtomicUsize>,
    max_in_flight: usize,
    /// In-flight slots only [`QosClass::LatencySensitive`] may use:
    /// Normal/Background admission stops at `max_in_flight − ls_reserve`.
    ls_reserve: usize,
    /// Class cap for [`QosClass::Background`] jobs in flight.
    bg_cap: usize,
    /// Background jobs currently in flight (admission + wrapper drain,
    /// same discipline as `in_flight`).
    bg_in_flight: CachePadded<AtomicUsize>,
    /// Counters only submitters write.
    submit_side: CachePadded<SubmitCounters>,
    /// Counters only workers write.
    worker_side: CachePadded<WorkerCounters>,
    /// Pending deadlines, earliest on top; swept by the serve loop.
    deadlines: Mutex<BinaryHeap<DeadlineEntry>>,
    /// Cache of the heap top's tick (`u64::MAX` = empty): the serve
    /// loop's sweep gate is one relaxed load + one clock read.
    next_deadline: AtomicU64,
    /// Placement backstop for admitted jobs that find no ring slot while
    /// no drainer runs (paused server + full anonymous lanes): bounded by
    /// the admission clamp, drained before the ingress at every poll.
    spill: Mutex<VecDeque<JobRef>>,
    spill_nonempty: std::sync::atomic::AtomicBool,
    /// Blocked `submit` callers parked on `bp_cv` (instead of the old
    /// spin-retry); completions notify when someone is waiting.
    bp_waiters: AtomicUsize,
    bp_lock: Mutex<()>,
    bp_cv: Condvar,
    /// Control plane: lifecycle transitions and the resume command.
    ctl: Mutex<ControlPlane>,
    ctl_cv: Condvar,
    /// Live task-size sampler of the current generation (replaced when a
    /// config swap resizes the team — lanes are per worker).
    sampler: Mutex<Arc<LiveTaskSampler>>,
    /// Histograms of retired samplers, so `task_histogram` spans every
    /// generation.
    retired_hist: Mutex<TaskSizeHistogram>,
    /// Bumped on every external `DlbTuning` swap; the controller resets
    /// its hysteresis when it observes a change.
    swap_epoch: Arc<AtomicU64>,
    /// Loop-subsystem telemetry (`parallel_for` chunk/steal counters),
    /// owned by the *server*, not by any generation: every generation's
    /// team folds into the same block, so — like the ingress lane
    /// counters — these survive pause/resume cycles and config swaps.
    loop_stats: Arc<LoopTelemetry>,
    /// The inter-socket loop balancer, also server-owned: its loop
    /// registry, probe cadence state and cumulative rebalance counters
    /// ride across generations (a pause mid-loop-queue resumes with the
    /// same balancer the draining loops registered with), and its
    /// cadence knob lives in the shared `DlbTuning`, so `swap_tuning`
    /// and the adaptive controller re-tune it live.
    loop_balancer: Arc<LoopBalancer>,
    /// The `Schedule::Auto` online selector, server-owned like the loop
    /// telemetry and balancer: per-site trial state and convergence ride
    /// across generations, so a loop site submitted before a pause keeps
    /// its learned schedule after `resume`. Watches `swap_epoch` — a
    /// `swap_tuning` (or `resume_with`) bump sends every site back to
    /// exploration, mirroring the adaptive controller's hysteresis reset.
    auto_select: Arc<AutoSelector>,
    /// The flight recorder: one lock-free event ring per worker, shared
    /// with every generation's team (the same `Arc` is handed to
    /// `run_serving`, so `ctx.trace_emit` in job bodies and the server's
    /// own snapshot/dump paths see one recorder). Always present; the
    /// level gates every emission — `Off` costs one relaxed load per
    /// site — and is live-flippable via [`TaskServer::set_trace_level`].
    tracer: Arc<Tracer>,
    /// Directory for automatic flight-recorder dumps (job panic,
    /// shutdown); `None` disables automatic dumps.
    trace_dump: Option<std::path::PathBuf>,
    /// Continuous-pipeline counters (streaming collector + `/metrics`
    /// endpoint). Always present and always rendered — zero when the
    /// corresponding feature is unconfigured — so the stable metric
    /// family set does not depend on configuration.
    obs: ObsCounters,
}

/// Counters of the continuous observability pipeline, published by the
/// collector thread and the metrics listener (see [`ServerShared::obs`]).
#[derive(Default)]
struct ObsCounters {
    /// Records written to the rolling on-disk stream.
    trace_drained: AtomicU64,
    /// Records the streaming collector lost to ring overwrite (its own
    /// cursors' accounting, not the tracer's aggregate).
    trace_dropped: AtomicU64,
    /// Stream segment rotations.
    trace_rotations: AtomicU64,
    /// Stream segments opened.
    trace_segments: AtomicU64,
    /// Collector drain cycles run.
    trace_cycles: AtomicU64,
    /// `GET /metrics` requests served.
    metrics_scrapes: AtomicU64,
}

impl ObsCounters {
    /// Publishes the collector's cumulative stream counters (stores —
    /// the stream's own totals are the source of truth).
    fn publish_stream(&self, s: TraceStreamStats) {
        self.trace_drained.store(s.drained, Ordering::Relaxed);
        self.trace_dropped.store(s.dropped, Ordering::Relaxed);
        self.trace_rotations.store(s.rotations, Ordering::Relaxed);
        self.trace_segments.store(s.segments, Ordering::Relaxed);
        self.trace_cycles.store(s.cycles, Ordering::Relaxed);
    }

    fn stream_stats(&self) -> TraceStreamStats {
        TraceStreamStats {
            cycles: self.trace_cycles.load(Ordering::Relaxed),
            drained: self.trace_drained.load(Ordering::Relaxed),
            dropped: self.trace_dropped.load(Ordering::Relaxed),
            rotations: self.trace_rotations.load(Ordering::Relaxed),
            segments: self.trace_segments.load(Ordering::Relaxed),
        }
    }
}

// ---- streaming trace collector -----------------------------------------

/// Control word shared with the collector thread: stop flag plus a
/// flush barrier (`pause` requests a flush and waits for its ack).
struct CollectorCtl {
    inner: Mutex<CollectorState>,
    cv: Condvar,
}

struct CollectorState {
    stop: bool,
    /// Flush barrier tickets issued; the collector acknowledges by
    /// advancing `flushes_done` after a drain + file flush.
    flush_requests: u64,
    flushes_done: u64,
}

/// Handle of the running collector thread (owned by [`TaskServer`]).
struct TraceCollector {
    ctl: Arc<CollectorCtl>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TraceCollector {
    fn spawn(shared: Arc<ServerShared>, stream: TraceStream, interval: Duration) -> Self {
        let ctl = Arc::new(CollectorCtl {
            inner: Mutex::new(CollectorState {
                stop: false,
                flush_requests: 0,
                flushes_done: 0,
            }),
            cv: Condvar::new(),
        });
        let thread = {
            let ctl = ctl.clone();
            std::thread::Builder::new()
                .name("xgomp-trace-collector".into())
                .spawn(move || collector_loop(shared, stream, interval, ctl))
                .expect("spawn trace collector")
        };
        TraceCollector {
            ctl,
            thread: Some(thread),
        }
    }

    /// Flush barrier: every record emitted before this call is drained
    /// to disk and flushed when it returns (bounded wait).
    fn flush_barrier(&self, timeout: Duration) {
        let ticket = {
            let mut g = self
                .ctl
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            g.flush_requests += 1;
            let t = g.flush_requests;
            self.ctl.cv.notify_all();
            t
        };
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self
            .ctl
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while g.flushes_done < ticket && !g.stop {
            let now = std::time::Instant::now();
            if now >= deadline {
                break;
            }
            let (guard, _) = self
                .ctl
                .cv
                .wait_timeout(g, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            g = guard;
        }
    }

    /// Stops the collector and joins it; the thread runs one final
    /// exact drain ([`TraceStream::finish`]) on the way out.
    fn stop(mut self) {
        {
            let mut g = self
                .ctl
                .inner
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            g.stop = true;
            self.ctl.cv.notify_all();
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// The collector thread: tail every ring on the cadence, acknowledge
/// flush barriers, and finish with one last exact drain + summary when
/// stopped.
fn collector_loop(
    shared: Arc<ServerShared>,
    mut stream: TraceStream,
    interval: Duration,
    ctl: Arc<CollectorCtl>,
) {
    let mut acked_flush = 0u64;
    let mut reported_io_error = false;
    loop {
        let (stop, flush_target) = {
            let g = ctl.inner.lock().unwrap_or_else(PoisonError::into_inner);
            (g.stop, g.flush_requests)
        };
        if stop {
            break;
        }
        // Drain first, flush second: a barrier requested before this
        // read covers every record emitted before the request.
        if let Err(e) = stream.drain_cycle(&shared.tracer) {
            if !reported_io_error {
                reported_io_error = true;
                eprintln!("xgomp-service: trace stream write failed: {e}");
            }
        }
        shared.obs.publish_stream(stream.stats());
        if flush_target > acked_flush {
            let _ = stream.flush();
            acked_flush = flush_target;
            let mut g = ctl.inner.lock().unwrap_or_else(PoisonError::into_inner);
            g.flushes_done = acked_flush;
            ctl.cv.notify_all();
        }
        let g = ctl.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if g.stop || g.flush_requests > acked_flush {
            continue;
        }
        let _ = ctl
            .cv
            .wait_timeout(g, interval)
            .unwrap_or_else(PoisonError::into_inner);
    }
    match stream.finish(&shared.tracer) {
        Ok(stats) => shared.obs.publish_stream(stats),
        Err(e) => {
            if !reported_io_error {
                eprintln!("xgomp-service: trace stream finish failed: {e}");
            }
        }
    }
    // Wake anyone still blocked on a flush barrier: the finish drain
    // above subsumes every outstanding ticket.
    let mut g = ctl.inner.lock().unwrap_or_else(PoisonError::into_inner);
    g.flushes_done = g.flush_requests;
    ctl.cv.notify_all();
}

// ---- metrics rendering (shared, so the listener thread can serve it) ---

impl ServerShared {
    /// Workers currently parked (see [`TaskServer::parked_workers`]).
    fn parked_workers_now(&self) -> usize {
        if self.state.load(Ordering::SeqCst) == PAUSED {
            return self.current_threads.load(Ordering::Relaxed);
        }
        self.doorbell
            .with_current(|p| p.currently_parked())
            .unwrap_or(0)
    }

    /// Counter snapshot (see [`TaskServer::stats`] for the coherence
    /// contract); `tuning` supplies the retune counter.
    fn stats_with(&self, tuning: &DlbTuning) -> ServerStats {
        let in_flight = self.in_flight.load(Ordering::SeqCst);
        let in_team = self.worker_side.in_team.load(Ordering::SeqCst);
        let (loops, loop_chunks, loop_iters, loop_range_steals, loop_rebalances) =
            self.loop_stats.snapshot().totals();
        ServerStats {
            submitted: self.submit_side.submitted.load(Ordering::Relaxed),
            completed: self.worker_side.completed.load(Ordering::Relaxed),
            cancelled: self.worker_side.cancelled.load(Ordering::Relaxed),
            shed: self.worker_side.shed.load(Ordering::Relaxed),
            rejected: self.submit_side.rejected.load(Ordering::Relaxed),
            in_flight,
            queued: in_flight.saturating_sub(in_team),
            max_in_flight: self.max_in_flight,
            generations: self.generation.load(Ordering::Relaxed),
            retunes: tuning.retunes(),
            shards: self.ingress.n_shards(),
            parked_workers: self.parked_workers_now(),
            parks: self.doorbell.parks(),
            loops,
            loop_chunks,
            loop_iters,
            loop_range_steals,
            loop_rebalances,
        }
    }

    /// Per-class counter snapshot (see [`TaskServer::class_stats`]).
    fn class_stats_now(&self) -> [QosClassStats; 3] {
        std::array::from_fn(|i| {
            let cs = &self.worker_side.class[i];
            QosClassStats {
                class: QosClass::ALL[i],
                submitted: self.submit_side.class_submitted[i].load(Ordering::Relaxed),
                completed: cs.completed.load(Ordering::Relaxed),
                cancelled: cs.cancelled.load(Ordering::Relaxed),
                shed: cs.shed.load(Ordering::Relaxed),
            }
        })
    }

    /// Body of `GET /healthz`: the serve state plus a few liveness
    /// gauges, as a one-line JSON document.
    fn health_json(&self) -> String {
        let state = match self.state.load(Ordering::SeqCst) {
            SERVING => "serving",
            DRAINING => "draining",
            PAUSED => "paused",
            _ => "closing",
        };
        format!(
            "{{\"state\":\"{state}\",\"generation\":{},\"in_flight\":{},\"workers_parked\":{}}}\n",
            self.generation.load(Ordering::Relaxed),
            self.in_flight.load(Ordering::SeqCst),
            self.parked_workers_now(),
        )
    }

    /// The full Prometheus exposition (see
    /// [`TaskServer::render_prometheus`], which delegates here — this
    /// lives on the shared state so the `/metrics` listener thread can
    /// render without the server handle).
    fn render_prometheus_with(&self, tuning: &DlbTuning) -> String {
        let mut out = self.stats_with(tuning).render_prometheus();
        let mut p = PromText::new();
        p.counter(
            "xgomp_wake_events_total",
            "Wake-ups delivered across all generations (doorbells, pushes, teardown)",
            self.doorbell.wakes(),
        );
        p.counter(
            "xgomp_ingress_claim_conflicts_total",
            "Lost lane-claim races on the anonymous ingress path",
            self.ingress.claim_conflicts(),
        );
        p.gauge(
            "xgomp_ingress_occupancy",
            "Jobs currently sitting in ingress ring slots",
            self.ingress.occupancy() as u64,
        );
        let lt = self.loop_stats.snapshot();
        let chunks: Vec<(&str, u64)> = lt
            .per_schedule
            .iter()
            .map(|s| (s.schedule, s.chunks))
            .collect();
        p.counter_vec(
            "xgomp_loop_chunks_by_schedule_total",
            "Loop chunks executed, by schedule family",
            "schedule",
            &chunks,
        );
        let auto_counts = self.auto_select.selected_counts();
        let auto_selected: Vec<(&str, u64)> = xgomp_core::LOOP_SCHEDULE_NAMES
            .iter()
            .zip(auto_counts.iter())
            .map(|(&name, &n)| (name, n))
            .collect();
        p.counter_vec(
            "xgomp_loop_auto_selected_total",
            "Schedule::Auto loop instances run, by the concrete schedule the selector picked",
            "schedule",
            &auto_selected,
        );
        let space_loops: Vec<(&str, u64)> =
            lt.per_space.iter().map(|k| (k.space, k.loops)).collect();
        p.counter_vec(
            "xgomp_loops_by_space_total",
            "Data-parallel loops completed, by iteration-space shape",
            "space",
            &space_loops,
        );
        let space_iters: Vec<(&str, u64)> =
            lt.per_space.iter().map(|k| (k.space, k.iters)).collect();
        p.counter_vec(
            "xgomp_loop_iters_by_space_total",
            "Loop elements executed, by iteration-space shape",
            "space",
            &space_iters,
        );
        // Per-QoS-class job counters + the fixed-bucket latency
        // histograms (stable `le` edges — see `LATENCY_BUCKETS_SECS`).
        let by_class = self.class_stats_now();
        let entries = |pick: fn(&QosClassStats) -> u64| -> Vec<(&'static str, u64)> {
            by_class.iter().map(|c| (c.class.name(), pick(c))).collect()
        };
        p.counter_vec(
            "xgomp_jobs_submitted_by_class_total",
            "Jobs accepted by admission control, by QoS class",
            "class",
            &entries(|c| c.submitted),
        );
        p.counter_vec(
            "xgomp_jobs_completed_by_class_total",
            "Jobs whose body ran to its own end, by QoS class",
            "class",
            &entries(|c| c.completed),
        );
        p.counter_vec(
            "xgomp_jobs_cancelled_by_class_total",
            "Jobs cancelled cooperatively mid-run, by QoS class",
            "class",
            &entries(|c| c.cancelled),
        );
        p.counter_vec(
            "xgomp_jobs_shed_by_class_total",
            "Jobs shed before their body ran, by QoS class",
            "class",
            &entries(|c| c.shed),
        );
        p.histogram_header(
            "xgomp_job_queued_seconds",
            "Admission-to-body-start latency of started jobs, by QoS class",
        );
        for (i, qos) in QosClass::ALL.iter().enumerate() {
            let (counts, sum, count) = self.worker_side.class[i].queued_hist.render_parts();
            p.histogram_series(
                "xgomp_job_queued_seconds",
                "class",
                qos.name(),
                &LATENCY_BUCKETS_SECS,
                &counts,
                sum,
                count,
            );
        }
        p.histogram_header(
            "xgomp_job_run_seconds",
            "Body run time of started jobs, by QoS class",
        );
        for (i, qos) in QosClass::ALL.iter().enumerate() {
            let (counts, sum, count) = self.worker_side.class[i].run_hist.render_parts();
            p.histogram_series(
                "xgomp_job_run_seconds",
                "class",
                qos.name(),
                &LATENCY_BUCKETS_SECS,
                &counts,
                sum,
                count,
            );
        }
        p.counter(
            "xgomp_trace_events_emitted_total",
            "Flight-recorder events emitted (all rings, including overwritten)",
            self.tracer.emitted(),
        );
        p.counter(
            "xgomp_trace_events_dropped_total",
            "Flight-recorder events overwritten before a drain read them",
            self.tracer.dropped(),
        );
        p.gauge(
            "xgomp_trace_level",
            "Active trace level (0=off, 1=lifecycle, 2=full)",
            self.tracer.level() as u64,
        );
        // Continuous-pipeline families: always rendered (zero when the
        // stream/listener is unconfigured) so the stable set holds.
        p.counter(
            "xgomp_trace_drained_total",
            "Flight-recorder records written to the rolling on-disk stream",
            self.obs.trace_drained.load(Ordering::Relaxed),
        );
        p.counter(
            "xgomp_trace_dropped_total",
            "Records the streaming collector lost to ring overwrite",
            self.obs.trace_dropped.load(Ordering::Relaxed),
        );
        p.counter(
            "xgomp_trace_rotations_total",
            "Rolling trace segment rotations",
            self.obs.trace_rotations.load(Ordering::Relaxed),
        );
        p.counter(
            "xgomp_metrics_scrapes_total",
            "GET /metrics requests served by the in-process endpoint",
            self.obs.metrics_scrapes.load(Ordering::Relaxed),
        );
        out.push_str(&p.finish());
        out
    }
}

impl ServerShared {
    fn lock_ctl(&self) -> std::sync::MutexGuard<'_, ControlPlane> {
        self.ctl.lock().unwrap_or_else(PoisonError::into_inner)
    }

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
    fn submit_job<P, R, F>(
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
        if deadline != u64::MAX {
            self.register_deadline(DeadlineEntry {
                tick: deadline,
                id,
                job: job.clone(),
            });
        }
        self.place(route, job);
        Ok(handle)
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
            ctx.trace_emit(
                TraceLevel::Lifecycle,
                EventKind::Cancel,
                code - 2,
                job.id,
                0,
            );
            cs.cancelled.fetch_add(1, Ordering::Relaxed);
            ws.cancelled.fetch_add(1, Ordering::SeqCst);
        } else {
            if code == 1 {
                // Dump *before* completing: the joiner's `JobPanic`
                // then implies the flight-recorder file already exists.
                self.dump_flight_recorder(&format!("panic-job-{}.trace.json", job.id));
            }
            cs.completed.fetch_add(1, Ordering::Relaxed);
            ws.completed.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Accounts a job shed before starting: the handle resolved when
    /// the shed was claimed (cancel()/sweep/the start gate); only the
    /// drain accounting remains. `Shed.a`: 0 cancel, 1 deadline.
    fn shed_job(&self, ctx: &TaskCtx<'_>, job: &JobHeader) {
        let by_deadline = job.phase.load(Ordering::Acquire) == PHASE_SHED_DEADLINE;
        ctx.trace_emit(
            TraceLevel::Lifecycle,
            EventKind::Shed,
            by_deadline as u32,
            job.id,
            job.submitted,
        );
        let ws = &self.worker_side;
        ws.class[job.qos.index()]
            .shed
            .fetch_add(1, Ordering::Relaxed);
        ws.shed.fetch_add(1, Ordering::SeqCst);
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

    /// Queues a deadline for the serve loop's sweep.
    fn register_deadline(&self, entry: DeadlineEntry) {
        self.next_deadline.fetch_min(entry.tick, Ordering::Relaxed);
        self.deadlines
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(entry);
    }

    /// The serve loop's deadline sweep: one relaxed load + one clock
    /// read while nothing is due. Expired *queued* jobs are shed on the
    /// spot (their handles resolve here, their ring slots drain
    /// normally); expired *running* jobs get their token fired and
    /// cancel cooperatively at the next checkpoint. Emits one
    /// `DeadlineMiss` per job whose deadline this sweep was first to
    /// act on.
    fn sweep_deadlines(&self, ctx: &TaskCtx<'_>) {
        let now = clock::now();
        if now < self.next_deadline.load(Ordering::Relaxed) {
            return;
        }
        let mut due = Vec::new();
        {
            let mut heap = self
                .deadlines
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            while heap.peek().is_some_and(|e| e.tick <= now) {
                due.push(heap.pop().expect("peeked entry"));
            }
            self.next_deadline
                .store(heap.peek().map_or(u64::MAX, |e| e.tick), Ordering::Relaxed);
        }
        // Fire (and release the entries' references) outside the lock:
        // deadline registration must not serialize against shedding.
        for e in due {
            if e.job.header().fire_deadline() {
                ctx.trace_emit(
                    TraceLevel::Lifecycle,
                    EventKind::DeadlineMiss,
                    0,
                    e.id,
                    e.tick,
                );
            }
        }
    }

    /// Best-effort automatic flight-recorder dump (job panic, shutdown):
    /// a no-op without a [`ServerConfig::trace_dump`] directory or below
    /// `Lifecycle`, and never panics — observability must not take the
    /// server down with it.
    fn dump_flight_recorder(&self, file_name: &str) {
        let Some(dir) = &self.trace_dump else { return };
        if !self.tracer.enabled(TraceLevel::Lifecycle) {
            return;
        }
        let path = dir.join(file_name);
        if let Err(e) = self.tracer.snapshot().dump_to(&path) {
            eprintln!(
                "xgomp-service: flight-recorder dump to {} failed: {e}",
                path.display()
            );
        }
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
                    self.submit_side.submitted.fetch_add(1, Ordering::Relaxed);
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
        self.submit_side.submitted.fetch_add(1, Ordering::Relaxed);
        // Harmless while paused (nobody is parked in a live generation);
        // necessary while closing, where drainers are still running.
        self.ring_doorbell(0);
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
    fn notify_capacity(&self) {
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
enum Route {
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
/// `JobHandle::cancel` and the deadline sweep only resolve the
/// *handle* early; they never touch the counters.
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

impl ServerShared {
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

/// The blocking-submission retry loop shared by every `submit` flavor:
/// parks on the capacity condvar through backpressure (and through a
/// pause at the bound), failing only once the server is closed.
fn submit_blocking<F, R>(
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

/// Every metric family the full Prometheus exposition
/// ([`TaskServer::render_prometheus`]) emits — each exactly once, with
/// its `# HELP`/`# TYPE` header — in order of appearance. This is the
/// server's **stable scrape schema**: the unit tests pin it, the CI
/// scrape checks it, and dashboards may rely on it. Extend it when
/// adding a family; never rename or drop an entry.
pub const STABLE_METRIC_FAMILIES: &[&str] = &[
    "xgomp_jobs_submitted_total",
    "xgomp_jobs_completed_total",
    "xgomp_jobs_cancelled_total",
    "xgomp_jobs_shed_total",
    "xgomp_jobs_rejected_total",
    "xgomp_jobs_in_flight",
    "xgomp_jobs_queued",
    "xgomp_max_in_flight",
    "xgomp_generations_total",
    "xgomp_retunes_total",
    "xgomp_ingress_shards",
    "xgomp_workers_parked",
    "xgomp_park_events_total",
    "xgomp_loops_total",
    "xgomp_loop_chunks_total",
    "xgomp_loop_iters_total",
    "xgomp_loop_range_steals_total",
    "xgomp_loop_rebalances_total",
    "xgomp_wake_events_total",
    "xgomp_ingress_claim_conflicts_total",
    "xgomp_ingress_occupancy",
    "xgomp_loop_chunks_by_schedule_total",
    "xgomp_loop_auto_selected_total",
    "xgomp_loops_by_space_total",
    "xgomp_loop_iters_by_space_total",
    "xgomp_jobs_submitted_by_class_total",
    "xgomp_jobs_completed_by_class_total",
    "xgomp_jobs_cancelled_by_class_total",
    "xgomp_jobs_shed_by_class_total",
    "xgomp_job_queued_seconds",
    "xgomp_job_run_seconds",
    "xgomp_trace_events_emitted_total",
    "xgomp_trace_events_dropped_total",
    "xgomp_trace_level",
    "xgomp_trace_drained_total",
    "xgomp_trace_dropped_total",
    "xgomp_trace_rotations_total",
    "xgomp_metrics_scrapes_total",
];

/// Point-in-time server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Jobs accepted by admission control.
    pub submitted: u64,
    /// Jobs whose body ran to its own end (including panicked bodies).
    /// Cancelled and shed jobs are counted separately; once drained,
    /// `completed + cancelled + shed == submitted` exactly.
    pub completed: u64,
    /// Jobs whose body started and was then terminated at a
    /// cancellation checkpoint (explicit cancel or expired deadline).
    pub cancelled: u64,
    /// Jobs resolved without their body ever running: cancelled or
    /// deadline-expired while still queued.
    pub shed: u64,
    /// Submissions bounced by backpressure, pause-at-capacity or closure.
    pub rejected: u64,
    /// Jobs admitted but not yet completed.
    pub in_flight: usize,
    /// Admitted jobs still queued in the ingress tier (not yet handed to
    /// the team) — nonzero mostly while paused.
    pub queued: usize,
    /// The *effective* admission bound: the configured
    /// `ServerConfig::max_in_flight` clamped to the total ingress ring
    /// capacity (an admitted job must always find a slot).
    pub max_in_flight: usize,
    /// Serve generations opened so far (pause/resume cycles + 1).
    pub generations: u64,
    /// Effective DLB retunes published (controller + manual swaps).
    pub retunes: u64,
    /// Ingress shards (fixed at construction).
    pub shards: usize,
    /// Workers currently parked. While serving: parker-announced workers,
    /// master included. While paused: the whole team (on the start gate).
    pub parked_workers: usize,
    /// Cumulative committed parks across all generations — a fully idle
    /// server stops advancing this counter once everyone sleeps.
    pub parks: u64,
    /// Data-parallel loops completed (`submit_for` / `parallel_for`),
    /// cumulative across generations.
    pub loops: u64,
    /// Loop chunks executed, cumulative across generations.
    pub loop_chunks: u64,
    /// Loop iterations executed, cumulative across generations.
    pub loop_iters: u64,
    /// Cross-zone loop-range steal-splits, cumulative across
    /// generations. Per-schedule breakdowns:
    /// [`TaskServer::loop_telemetry`].
    pub loop_range_steals: u64,
    /// Inter-socket balancer migrations applied to served loops (the
    /// coarse level of two-level loop balancing), cumulative across
    /// generations.
    pub loop_rebalances: u64,
}

impl ServerStats {
    /// The counter movement between `earlier` and `self` — the rate
    /// window a scraper wants: every cumulative counter becomes
    /// `self − earlier` (saturating, so swapped arguments yield zeros
    /// rather than wrapping), while the point-in-time gauges
    /// (`in_flight`, `queued`, `max_in_flight`, `shards`,
    /// `parked_workers`) keep `self`'s values — a gauge difference has
    /// no meaning.
    pub fn delta(&self, earlier: &ServerStats) -> ServerStats {
        ServerStats {
            submitted: self.submitted.saturating_sub(earlier.submitted),
            completed: self.completed.saturating_sub(earlier.completed),
            cancelled: self.cancelled.saturating_sub(earlier.cancelled),
            shed: self.shed.saturating_sub(earlier.shed),
            rejected: self.rejected.saturating_sub(earlier.rejected),
            in_flight: self.in_flight,
            queued: self.queued,
            max_in_flight: self.max_in_flight,
            generations: self.generations.saturating_sub(earlier.generations),
            retunes: self.retunes.saturating_sub(earlier.retunes),
            shards: self.shards,
            parked_workers: self.parked_workers,
            parks: self.parks.saturating_sub(earlier.parks),
            loops: self.loops.saturating_sub(earlier.loops),
            loop_chunks: self.loop_chunks.saturating_sub(earlier.loop_chunks),
            loop_iters: self.loop_iters.saturating_sub(earlier.loop_iters),
            loop_range_steals: self
                .loop_range_steals
                .saturating_sub(earlier.loop_range_steals),
            loop_rebalances: self.loop_rebalances.saturating_sub(earlier.loop_rebalances),
        }
    }

    /// Renders every counter in the Prometheus text exposition format
    /// (`text/plain; version=0.0.4`) under stable metric names (see the
    /// README's metric table). [`TaskServer::render_prometheus`] extends
    /// this with the server-level extras (wake events, ingress
    /// claim-conflicts/occupancy, per-schedule loop counters, flight
    /// recorder volume).
    pub fn render_prometheus(&self) -> String {
        let mut p = PromText::new();
        p.counter(
            "xgomp_jobs_submitted_total",
            "Jobs accepted by admission control",
            self.submitted,
        );
        p.counter(
            "xgomp_jobs_completed_total",
            "Jobs whose body ran to its own end (including panicked bodies)",
            self.completed,
        );
        p.counter(
            "xgomp_jobs_cancelled_total",
            "Jobs cancelled cooperatively after their body started",
            self.cancelled,
        );
        p.counter(
            "xgomp_jobs_shed_total",
            "Jobs shed before their body ran (cancel/deadline while queued)",
            self.shed,
        );
        p.counter(
            "xgomp_jobs_rejected_total",
            "Submissions bounced by backpressure, pause-at-capacity or closure",
            self.rejected,
        );
        p.gauge(
            "xgomp_jobs_in_flight",
            "Jobs admitted but not yet completed",
            self.in_flight as u64,
        );
        p.gauge(
            "xgomp_jobs_queued",
            "Admitted jobs still queued in the ingress tier",
            self.queued as u64,
        );
        p.gauge(
            "xgomp_max_in_flight",
            "Effective admission bound",
            self.max_in_flight as u64,
        );
        p.counter(
            "xgomp_generations_total",
            "Serve generations opened",
            self.generations,
        );
        p.counter(
            "xgomp_retunes_total",
            "Effective DLB retunes published (controller + manual swaps)",
            self.retunes,
        );
        p.gauge(
            "xgomp_ingress_shards",
            "Ingress shards (one per NUMA zone)",
            self.shards as u64,
        );
        p.gauge(
            "xgomp_workers_parked",
            "Workers currently parked",
            self.parked_workers as u64,
        );
        p.counter(
            "xgomp_park_events_total",
            "Committed worker parks across all generations",
            self.parks,
        );
        p.counter(
            "xgomp_loops_total",
            "Data-parallel loops completed",
            self.loops,
        );
        p.counter(
            "xgomp_loop_chunks_total",
            "Loop chunks executed",
            self.loop_chunks,
        );
        p.counter(
            "xgomp_loop_iters_total",
            "Loop iterations executed",
            self.loop_iters,
        );
        p.counter(
            "xgomp_loop_range_steals_total",
            "Cross-zone loop range steal-splits",
            self.loop_range_steals,
        );
        p.counter(
            "xgomp_loop_rebalances_total",
            "Inter-socket balancer migrations applied to served loops",
            self.loop_rebalances,
        );
        p.finish()
    }
}

/// What [`TaskServer::shutdown`] returns after the drain.
pub struct ServerReport {
    /// Final counters.
    pub stats: ServerStats,
    /// Telemetry of the final serve generation (per-worker §V counters,
    /// wall time, event logs when profiling was on). `None` only when the
    /// serve ended abnormally (master thread panicked — a runtime bug,
    /// since job panics are isolated).
    pub region: Option<RegionOutput<()>>,
    /// Telemetry of every earlier generation, in serve order (one entry
    /// per completed pause/swap cycle). Empty for a single-generation
    /// server.
    pub prior_regions: Vec<RegionOutput<()>>,
}

/// A persistent executor serving jobs from arbitrary threads.
///
/// See the [crate docs](crate) for the architecture; construction starts
/// the team, [`pause`](Self::pause)/[`resume`](Self::resume)/
/// [`resume_with`](Self::resume_with) manage generations, and
/// [`shutdown`](Self::shutdown) drains everything in flight and returns
/// the per-generation telemetry. Dropping without `shutdown` performs the
/// same drain.
pub struct TaskServer {
    shared: Arc<ServerShared>,
    tuning: Arc<DlbTuning>,
    master: Option<std::thread::JoinHandle<Vec<RegionOutput<()>>>>,
    /// Streaming trace collector (`ServerConfig::trace_stream`): stopped
    /// with one final exact drain after the master joins at shutdown.
    collector: Option<TraceCollector>,
    /// In-process `/metrics` + `/healthz` endpoint
    /// (`ServerConfig::metrics_addr`): torn down last at shutdown.
    listener: Option<MetricsListener>,
}

/// Per-worker NUMA zones and the sorted distinct zone list of `rt`'s
/// placement — the single source of the zone-ranking logic shared by
/// server construction (shard count) and every generation's re-map.
fn placement_zones(rt: &RuntimeConfig) -> (Vec<usize>, Vec<usize>) {
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
fn generation_layout(rt: &RuntimeConfig, n_shards: usize) -> (Vec<usize>, Vec<usize>) {
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
    /// Starts the team and begins serving generation 1.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.max_in_flight` is `0` — that bound would reject
    /// every submission, which is never what a caller wants (the old
    /// behavior silently substituted `1`).
    pub fn start(cfg: ServerConfig) -> Self {
        assert!(
            cfg.max_in_flight > 0,
            "ServerConfig::max_in_flight must be ≥ 1: a bound of 0 admits no job ever"
        );
        let rt = cfg.runtime.clone();

        // One shard per NUMA zone of the *initial* placement. The shard
        // set is fixed for the server's lifetime (pinned lanes keep their
        // coordinates); later generations re-map onto it.
        let n_shards = placement_zones(&rt).1.len();
        let (shard_of_worker, zone_of_shard) = generation_layout(&rt, n_shards);

        let ingress = ShardedIngress::new(n_shards, cfg.lanes_per_shard, cfg.lane_capacity);
        // An admitted job must always find an ingress slot (the blocking
        // push in submit relies on it), so the bound never exceeds the
        // real ring capacity. The effective value is surfaced in
        // `ServerStats::max_in_flight`.
        let max_in_flight = cfg.max_in_flight.min(ingress.capacity());
        // QoS quota resolution, against the *effective* bound. The
        // reserve is clamped so Normal/Background always keep at least
        // one slot; the background cap is at least one so the class is
        // never configured out of existence.
        let ls_reserve = cfg
            .ls_reserve
            .unwrap_or(max_in_flight / 4)
            .min(max_in_flight.saturating_sub(1));
        let bg_cap = cfg
            .background_cap
            .unwrap_or(max_in_flight / 2)
            .clamp(1, max_in_flight);

        let initial_dlb = rt
            .dlb
            .unwrap_or_else(|| DlbConfig::new(DlbStrategy::WorkSteal));
        let tuning = Arc::new(DlbTuning::new(initial_dlb));
        let sampler = Arc::new(LiveTaskSampler::new(rt.threads));
        let loop_balancer = Arc::new(LoopBalancer::new());
        loop_balancer.bind_tuning(&tuning);
        // `Schedule::Auto` selector: watches the swap epoch so a tuning
        // swap re-opens exploration at every converged loop site.
        let swap_epoch = Arc::new(AtomicU64::new(0));
        let auto_select = Arc::new(AutoSelector::new());
        auto_select.watch_swaps(swap_epoch.clone());
        // Server-owned so it spans generations (the same rings are handed
        // to every generation's team) and stays drainable after shutdown.
        let tracer = Arc::new(Tracer::new(rt.trace));

        let shared = Arc::new(ServerShared {
            ingress,
            zone_of_shard: zone_of_shard.iter().map(|&z| AtomicUsize::new(z)).collect(),
            doorbell: ParkerCell::new(),
            state: CachePadded(AtomicU32::new(SERVING)),
            current_threads: AtomicUsize::new(rt.threads),
            generation: AtomicU64::new(0),
            in_flight: CachePadded(AtomicUsize::new(0)),
            max_in_flight,
            ls_reserve,
            bg_cap,
            bg_in_flight: CachePadded(AtomicUsize::new(0)),
            submit_side: CachePadded(SubmitCounters::default()),
            worker_side: CachePadded(WorkerCounters {
                in_team: AtomicUsize::new(0),
                completed: AtomicU64::new(0),
                cancelled: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                class: std::array::from_fn(|_| ClassCounters::new()),
                hist_edges: latency_edges_ticks(),
            }),
            deadlines: Mutex::new(BinaryHeap::new()),
            next_deadline: AtomicU64::new(u64::MAX),
            spill: Mutex::new(VecDeque::new()),
            spill_nonempty: std::sync::atomic::AtomicBool::new(false),
            bp_waiters: AtomicUsize::new(0),
            bp_lock: Mutex::new(()),
            bp_cv: Condvar::new(),
            ctl: Mutex::new(ControlPlane { resume: None }),
            ctl_cv: Condvar::new(),
            sampler: Mutex::new(sampler.clone()),
            retired_hist: Mutex::new(TaskSizeHistogram::default()),
            swap_epoch,
            loop_stats: Arc::new(LoopTelemetry::new()),
            loop_balancer,
            auto_select,
            tracer,
            trace_dump: cfg.trace_dump.clone(),
            obs: ObsCounters::default(),
        });

        // Continuous pipeline, both halves optional and independent: a
        // setup failure disables the feature with a stderr note rather
        // than failing the server.
        let collector = cfg
            .trace_stream
            .clone()
            .and_then(|sc| match TraceStream::create(sc) {
                Ok(stream) => Some(TraceCollector::spawn(
                    shared.clone(),
                    stream,
                    cfg.trace_stream_interval.max(Duration::from_micros(100)),
                )),
                Err(e) => {
                    eprintln!("xgomp-service: trace stream disabled ({e})");
                    None
                }
            });
        let listener = cfg.metrics_addr.as_deref().and_then(|addr| {
            let hooks = MetricsHooks {
                render: {
                    let shared = shared.clone();
                    let tuning = tuning.clone();
                    Box::new(move || {
                        shared.obs.metrics_scrapes.fetch_add(1, Ordering::Relaxed);
                        shared.render_prometheus_with(&tuning)
                    })
                },
                health: {
                    let shared = shared.clone();
                    Box::new(move || shared.health_json())
                },
            };
            match MetricsListener::bind(addr, hooks) {
                Ok(l) => Some(l),
                Err(e) => {
                    eprintln!("xgomp-service: metrics listener disabled ({addr}: {e})");
                    None
                }
            }
        });

        let master = {
            let shared = shared.clone();
            let tuning = tuning.clone();
            let adapt_every = cfg.adapt_every;
            let log_retunes = cfg.log_retunes;
            let drain_batch = cfg.drain_batch;
            let first_layout = shard_of_worker;
            std::thread::Builder::new()
                .name("xgomp-service-master".into())
                .spawn(move || {
                    master_loop(
                        shared,
                        tuning,
                        sampler,
                        rt,
                        first_layout,
                        drain_batch,
                        adapt_every,
                        log_retunes,
                    )
                })
                .expect("spawn service master")
        };

        TaskServer {
            shared,
            tuning,
            master: Some(master),
            collector,
            listener,
        }
    }

    /// Non-blocking submission. The error tells the caller exactly why
    /// ([`SubmitError`]) and hands the closure back. While the server is
    /// paused, submissions below the in-flight bound are accepted and
    /// queue for the next generation. Shorthand for
    /// [`try_submit_with`](Self::try_submit_with) with default options
    /// (Normal class, no deadline).
    pub fn try_submit<R, F>(&self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.try_submit_with(SubmitOptions::default(), f)
    }

    /// Non-blocking submission under explicit [`SubmitOptions`]: the
    /// job admits under its [`QosClass`]'s quota, and an expired
    /// deadline sheds it before start / cancels it cooperatively
    /// mid-run (the handle then resolves with the matching
    /// [`JobError`]).
    pub fn try_submit_with<R, F>(
        &self,
        opts: SubmitOptions,
        f: F,
    ) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        let route = Route::Anonymous(submitter_shard_hint(self.shared.ingress.n_shards()));
        self.shared.submit_job(opts, route, f, |f| f)
    }

    /// Blocking submission: parks on the capacity condvar through
    /// backpressure (and through a pause at the bound — capacity then
    /// frees on resume), failing only once the server is closed.
    pub fn submit<R, F>(&self, f: F) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        self.submit_with(SubmitOptions::default(), f)
    }

    /// Blocking variant of [`try_submit_with`](Self::try_submit_with):
    /// parks until the job's *class* quota frees (a Background submit
    /// blocked on its class cap wakes on completions like any other).
    pub fn submit_with<R, F>(
        &self,
        opts: SubmitOptions,
        f: F,
    ) -> Result<JobHandle<R>, SubmitError<F>>
    where
        F: FnOnce(&TaskCtx<'_>) -> R + Send + 'static,
        R: Send + 'static,
    {
        submit_blocking(&self.shared, opts.qos, f, |f| self.try_submit_with(opts, f))
    }

    /// Non-blocking submission of a **data-parallel job**: `body` runs
    /// once per point of `space` — any [`LoopSpace`]: a plain integer
    /// range, or an [`IterSpace`] 2D/triangular shape — scheduled
    /// across the team by `schedule` (see [`LoopSchedule`]) through
    /// `TaskCtx::parallel_for` — NUMA-blocked zone pane sets (u64
    /// spaces auto-wave), zone-local claims first, cross-zone pane
    /// stealing when a zone runs dry.
    ///
    /// The loop is one *job*: admission control, panic isolation,
    /// pause/resume draining and per-generation telemetry all treat it
    /// exactly like a task job, and the returned handle completes with
    /// the loop's [`LoopReport`]. Rejections hand `body` back — an
    /// invalid space (beyond 2⁶² scheduling units) comes back as
    /// [`SubmitError::InvalidLoop`] *before* admission, so it costs no
    /// in-flight slot and never reaches a worker.
    pub fn try_submit_for<S, F>(
        &self,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<JobHandle<LoopReport>, SubmitError<F>>
    where
        S: LoopSpace + Send + 'static,
        F: Fn(S::Point, &TaskCtx<'_>) + Send + Sync + 'static,
    {
        self.try_submit_for_with(SubmitOptions::default(), space, schedule, body)
    }

    /// [`try_submit_for`](Self::try_submit_for) under explicit
    /// [`SubmitOptions`]. A cancelled (or deadline-expired) loop job
    /// abandons its remaining ranges at the next chunk-claim checkpoint;
    /// the un-run iterations are conserved into the loop subsystem's
    /// `cancelled_iters` counter and the handle resolves with the typed
    /// [`JobError`].
    pub fn try_submit_for_with<S, F>(
        &self,
        opts: SubmitOptions,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<JobHandle<LoopReport>, SubmitError<F>>
    where
        S: LoopSpace + Send + 'static,
        F: Fn(S::Point, &TaskCtx<'_>) + Send + Sync + 'static,
    {
        if let Err(e) = space.to_space().validate() {
            return Err(SubmitError::InvalidLoop(body, e));
        }
        let site = opts.loop_site;
        let route = Route::Anonymous(submitter_shard_hint(self.shared.ingress.n_shards()));
        self.shared.submit_job(opts, route, body, move |body| {
            move |ctx: &TaskCtx<'_>| match site {
                Some(id) => ctx.parallel_for_at(id, space, schedule, body),
                None => ctx.parallel_for(space, schedule, body),
            }
        })
    }

    /// Blocking variant of [`try_submit_for`](Self::try_submit_for):
    /// parks on the capacity condvar through backpressure (and through a
    /// pause at the bound), failing only once the server is closed.
    pub fn submit_for<S, F>(
        &self,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<JobHandle<LoopReport>, SubmitError<F>>
    where
        S: LoopSpace + Clone + Send + 'static,
        F: Fn(S::Point, &TaskCtx<'_>) + Send + Sync + 'static,
    {
        self.submit_for_with(SubmitOptions::default(), space, schedule, body)
    }

    /// Blocking variant of
    /// [`try_submit_for_with`](Self::try_submit_for_with).
    pub fn submit_for_with<S, F>(
        &self,
        opts: SubmitOptions,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<JobHandle<LoopReport>, SubmitError<F>>
    where
        S: LoopSpace + Clone + Send + 'static,
        F: Fn(S::Point, &TaskCtx<'_>) + Send + Sync + 'static,
    {
        submit_blocking(&self.shared, opts.qos, body, |body| {
            self.try_submit_for_with(opts, space.clone(), schedule, body)
        })
    }

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

    // ---- lifecycle ----------------------------------------------------

    /// Completes every job admitted before the pause and parks the team
    /// between generations. Returns once the server is quiescent: every
    /// worker parked (~0 CPU), ingress lanes and [`SubmitterHandle`]s
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

    // ---- observability ------------------------------------------------

    /// Jobs admitted but not yet completed.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Workers currently parked. While serving, this counts parker
    /// announcements (master included); while paused, the whole team is
    /// parked on its start gate and is reported as such.
    pub fn parked_workers(&self) -> usize {
        self.shared.parked_workers_now()
    }

    /// Cumulative committed parks across all generations. A fully idle
    /// server parks everyone and this counter stops moving — the
    /// observable "no yield-loop progress" property.
    pub fn park_events(&self) -> u64 {
        self.shared.doorbell.parks()
    }

    /// Cumulative wake-ups delivered across all generations (doorbells,
    /// push wakes, teardown).
    pub fn wake_events(&self) -> u64 {
        self.shared.doorbell.wakes()
    }

    /// Snapshot of the server counters.
    ///
    /// ## Coherence
    ///
    /// Each field is one independent atomic load: the snapshot is *not*
    /// an atomic cut across fields. Every cumulative counter is
    /// individually monotone (two snapshots always satisfy
    /// `later.submitted >= earlier.submitted`, etc. — which is what
    /// makes [`ServerStats::delta`] meaningful), but cross-field
    /// identities hold exactly only on a quiescent server: after
    /// [`pause`](Self::pause) returns, `submitted == completed + queued`
    /// and `in_flight == queued`; on the final [`shutdown`](Self::shutdown)
    /// report, `submitted == completed` and `in_flight == queued == 0`.
    /// While serving, a job may be counted `submitted` a beat before its
    /// `in_flight` increment is visible, so derived quantities can be
    /// transiently off by the number of in-progress submissions.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_with(&self.tuning)
    }

    /// Per-QoS-class job counters, indexed in [`QosClass::ALL`] order.
    /// Same coherence caveats as [`stats`](Self::stats): once a class is
    /// drained, `submitted == completed + cancelled + shed` exactly.
    pub fn class_stats(&self) -> [QosClassStats; 3] {
        self.shared.class_stats_now()
    }

    /// Per-schedule loop telemetry (chunks, iterations, range steals and
    /// rebalances for static/dynamic/guided/adaptive), cumulative across
    /// generations.
    pub fn loop_telemetry(&self) -> LoopTelemetrySnapshot {
        self.shared.loop_stats.snapshot()
    }

    /// The server-owned inter-socket loop balancer (live probe and
    /// migration counters; its registry and cadence survive every
    /// generation boundary).
    pub fn loop_balancer(&self) -> &Arc<LoopBalancer> {
        &self.shared.loop_balancer
    }

    /// Convergence status of one `Schedule::Auto` loop site (`None`
    /// until the site has run at least one Auto instance). Sites are
    /// keyed by the [`LoopId`] passed via
    /// [`SubmitOptions::site`](crate::SubmitOptions::site); anonymous
    /// Auto submissions key by iteration-space shape instead and are
    /// not addressable here.
    pub fn auto_site_status(&self, site: LoopId) -> Option<AutoSiteStatus> {
        self.shared.auto_select.site_status(site.0)
    }

    /// How many Auto loop instances ran under each concrete schedule
    /// (index-aligned with `LOOP_SCHEDULE_NAMES`; the `"auto"` slot is
    /// always zero). This is the `xgomp_loop_auto_selected_total`
    /// Prometheus family.
    pub fn auto_selected_counts(&self) -> [u64; xgomp_core::LOOP_SCHEDULES] {
        self.shared.auto_select.selected_counts()
    }

    /// The ingress tier (lane counters, claim-conflict statistics).
    pub fn ingress(&self) -> &ShardedIngress {
        &self.shared.ingress
    }

    /// The DLB configuration currently driving the team.
    pub fn active_dlb(&self) -> DlbConfig {
        self.tuning.load()
    }

    /// Effective DLB retunes so far.
    pub fn retunes(&self) -> u64 {
        self.tuning.retunes()
    }

    /// Merged live task-size histogram since the server started,
    /// spanning every generation (including retired samplers from
    /// team-resizing config swaps).
    pub fn task_histogram(&self) -> TaskSizeHistogram {
        let mut hist = self
            .shared
            .retired_hist
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let current = self
            .shared
            .sampler
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        hist.merge(&current.snapshot());
        hist
    }

    // ---- flight recorder / metrics exposition -------------------------

    /// Current flight-recorder level.
    pub fn trace_level(&self) -> TraceLevel {
        self.shared.tracer.level()
    }

    /// Flips the flight-recorder level live — no generation boundary:
    /// every instrumentation site picks the new level up at its next
    /// (relaxed) probe. Raising the level mid-flight starts recording
    /// from here on; lowering to [`TraceLevel::Off`] reduces every site
    /// back to one relaxed load + branch.
    pub fn set_trace_level(&self, level: TraceLevel) {
        self.shared.tracer.set_level(level);
    }

    /// Drains every worker's event ring into a point-in-time snapshot.
    ///
    /// Draining *consumes*: events move out of the rings, so consecutive
    /// snapshots partition the stream rather than overlap. Concurrent
    /// emission keeps running — events landing mid-drain are picked up
    /// by the next snapshot; `snapshot.dropped` counts flight-recorder
    /// overwrites (ring laps) since the previous drain.
    pub fn trace_snapshot(&self) -> TraceSnapshot {
        self.shared.tracer.snapshot()
    }

    /// Snapshots the flight recorder and writes Chrome-tracing JSON —
    /// load the file in [Perfetto](https://ui.perfetto.dev) or
    /// `chrome://tracing`. One track per worker, plus one async span per
    /// job (`JobStart`..`JobEnd`, keyed on the job id).
    pub fn dump_trace<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        self.shared.tracer.snapshot().dump_to(path.as_ref())
    }

    /// Renders the full metrics surface in the Prometheus text
    /// exposition format: everything in
    /// [`ServerStats::render_prometheus`], plus wake-event, ingress
    /// claim-conflict/occupancy, per-schedule loop and flight-recorder
    /// volume series. Serve the returned string as
    /// `text/plain; version=0.0.4` from any scrape endpoint.
    pub fn render_prometheus(&self) -> String {
        self.shared.render_prometheus_with(&self.tuning)
    }

    /// The address the in-process metrics endpoint actually bound
    /// (resolves a configured port `0` to the ephemeral port picked by
    /// the OS); `None` when [`ServerConfig::metrics_addr`] is unset or
    /// the bind failed at startup.
    pub fn metrics_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.as_ref().map(|l| l.local_addr())
    }

    /// Live counters of the streaming trace collector; `None` when
    /// [`ServerConfig::trace_stream`] is unset or the stream failed to
    /// open. Racy like every other observability read — the exact
    /// end-of-run accounting lives in the stream's final on-disk
    /// summary line.
    pub fn trace_stream_stats(&self) -> Option<TraceStreamStats> {
        self.collector
            .as_ref()
            .map(|_| self.shared.obs.stream_stats())
    }

    /// Closes admission, waits for every admitted job — queued ones
    /// included — to complete, and tears the team down.
    pub fn shutdown(mut self) -> ServerReport {
        let joined = self.shutdown_inner().expect("server not yet shut down");
        let (region, prior_regions) = match joined {
            Ok(mut regions) => {
                let last = regions.pop();
                (last, regions)
            }
            Err(_) => (None, Vec::new()),
        };
        ServerReport {
            stats: self.stats(),
            region,
            prior_regions,
        }
    }

    /// Outer `None`: already shut down. Inner `Err`: the master thread
    /// panicked (runtime bug); the payload is swallowed here so `Drop`
    /// never panics-in-drop — `shutdown` surfaces it as `region: None`.
    #[allow(clippy::type_complexity)]
    fn shutdown_inner(&mut self) -> Option<std::thread::Result<Vec<RegionOutput<()>>>> {
        let master = self.master.take()?;
        {
            let _ctl = self.shared.lock_ctl();
            self.shared.state.store(CLOSING, Ordering::SeqCst);
            self.shared.ctl_cv.notify_all();
        }
        // Blocked submitters abort with `Closed`.
        self.shared.notify_capacity();
        // The whole team may be asleep; `CLOSING` rings no doorbell on
        // its own. (An unpublished doorbell means the serve loop hasn't
        // started — it re-reads the state before it ever parks.)
        self.shared.doorbell.with_current(|p| p.unpark_all());
        let joined = master.join();
        // After the join every ring is quiet: stop the collector first —
        // its final drain + summary states the conservation identity
        // exactly — then take the shutdown snapshot (the dump's cursors
        // are independent of the stream's, so both see the retained
        // window), and tear the scrape endpoint down last so a scraper
        // can watch the server all the way through `closing`.
        if let Some(c) = self.collector.take() {
            c.stop();
        }
        self.shared.dump_flight_recorder("shutdown.trace.json");
        if let Some(mut l) = self.listener.take() {
            l.shutdown();
        }
        Some(joined)
    }
}

impl Drop for TaskServer {
    fn drop(&mut self) {
        let _ = self.shutdown_inner();
    }
}

/// The master thread: one `run_serving` region per generation, with the
/// control handshake (pause quiescence, resume commands, config swaps,
/// final shutdown drain) between regions.
#[allow(clippy::too_many_arguments)]
fn master_loop(
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
        shared.sweep_deadlines(ctx);
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
fn submitter_shard_hint(n_shards: usize) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// Tick edges file every sample into the bucket the seconds-based
    /// scan would pick, right at and around each edge.
    #[test]
    fn tick_edges_bucket_like_seconds() {
        let edges = latency_edges_ticks();
        let by_secs = |t: u64| {
            let secs = clock::ticks_to_secs(t);
            LATENCY_BUCKETS_SECS.iter().position(|&b| secs <= b)
        };
        for &e in &edges {
            for t in e.saturating_sub(2)..=e + 2 {
                let hist = LatencyHist::new();
                hist.record_ticks(t, &edges);
                let (cumulative, _, count) = hist.render_parts();
                assert_eq!(count, 1);
                let bucket = cumulative.iter().position(|&c| c == 1);
                assert_eq!(bucket, by_secs(t), "tick {t}");
            }
        }
    }

    #[test]
    fn jobs_roundtrip_results() {
        let server = TaskServer::start(ServerConfig::new(4));
        let handles: Vec<_> = (0..200u64)
            .map(|i| server.submit(move |_| i * 3).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i as u64 * 3);
        }
        let report = server.shutdown();
        assert_eq!(report.stats.completed, 200);
        assert_eq!(report.stats.in_flight, 0);
        assert_eq!(report.stats.generations, 1);
        assert!(report.prior_regions.is_empty(), "single generation");
        let region = report.region.expect("clean serve");
        region.stats.check_invariants().unwrap();
    }

    #[test]
    fn jobs_can_fan_out_into_tasks() {
        let server = TaskServer::start(ServerConfig::new(4));
        let h = server
            .submit(|ctx| {
                let mut squares = vec![0u64; 64];
                ctx.scope(|s| {
                    for (i, sq) in squares.iter_mut().enumerate() {
                        s.spawn(move |_| *sq = (i as u64) * (i as u64));
                    }
                });
                squares.iter().sum::<u64>()
            })
            .unwrap();
        assert_eq!(h.join().unwrap(), (0..64u64).map(|i| i * i).sum());
        // 1 job task + 64 subtasks.
        let report = server.shutdown();
        assert_eq!(
            report
                .region
                .expect("clean serve")
                .stats
                .total()
                .tasks_executed,
            65
        );
    }

    #[test]
    fn submit_for_serves_loops_as_jobs() {
        use std::sync::atomic::AtomicU64;

        let server = TaskServer::start(ServerConfig::new(4));
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let report = server
            .submit_for(0..10_000u64, LoopSchedule::Dynamic(64), move |i, _| {
                s.fetch_add(i + 1, Ordering::Relaxed);
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(report.iterations, 10_000);
        assert!(report.chunks >= 10_000 / 64);
        assert_eq!(sum.load(Ordering::Relaxed), (1..=10_000u64).sum());

        // A plain job and a loop job coexist.
        let h = server.submit(|_| 7u32).unwrap();
        assert_eq!(h.join().unwrap(), 7);

        // Loop counters are surfaced on the live server stats and in the
        // per-schedule telemetry.
        let stats = server.stats();
        assert_eq!(stats.loops, 1);
        assert_eq!(stats.loop_iters, 10_000);
        assert!(stats.loop_chunks >= 10_000 / 64);
        let per = server.loop_telemetry().per_schedule;
        assert_eq!(per[LoopSchedule::Dynamic(64).index()].loops, 1);
        assert_eq!(per[LoopSchedule::Static.index()].loops, 0);

        // …and in the generation's RegionOutput on shutdown.
        let report = server.shutdown();
        let region = report.region.expect("clean serve");
        region.stats.check_invariants().unwrap();
        assert_eq!(region.stats.total().nloop_iters, 10_000);
    }

    #[test]
    fn loop_panics_are_isolated_per_job() {
        let server = TaskServer::start(ServerConfig::new(2));
        let err = server
            .submit_for(0..100, LoopSchedule::Dynamic(8), |i, _| {
                if i == 37 {
                    panic!("iteration 37 exploded");
                }
            })
            .unwrap()
            .join()
            .unwrap_err();
        assert!(err.panic().expect("panicked").message.contains("exploded"));
        // The server survives and keeps serving.
        let h = server.submit(|_| 5u32).unwrap();
        assert_eq!(h.join().unwrap(), 5);
        server.shutdown();
    }

    #[test]
    fn backpressure_bounds_admission() {
        // One worker that is blocked on a gate ⇒ in-flight saturates.
        let gate = Arc::new(AtomicBool::new(false));
        let server = TaskServer::start(
            ServerConfig::new(1)
                .max_in_flight(4)
                .ls_reserve(0)
                .lanes_per_shard(1)
                .lane_capacity(8),
        );
        assert_eq!(server.stats().max_in_flight, 4, "bound under capacity");
        let mut handles = Vec::new();
        let mut accepted = 0;
        for _ in 0..64 {
            let gate = gate.clone();
            match server.try_submit(move |_| {
                while !gate.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }) {
                Ok(h) => {
                    handles.push(h);
                    accepted += 1;
                }
                Err(e) => {
                    assert!(e.is_backpressure(), "serving bound ⇒ Backpressure: {e:?}");
                    break;
                }
            }
        }
        assert!(
            accepted <= 4 + 1,
            "admission exceeded the bound: {accepted} accepted"
        );
        assert!(server.stats().rejected == 0 || accepted >= 4);
        gate.store(true, Ordering::Release);
        for h in handles {
            h.join().unwrap();
        }
        server.shutdown();
    }

    #[test]
    fn closed_server_rejects_submissions() {
        let server = TaskServer::start(ServerConfig::new(2));
        let h = server.submit(|_| 1u32).unwrap();
        assert_eq!(h.join().unwrap(), 1);
        let report = server.shutdown();
        assert_eq!(report.stats.submitted, 1);
    }

    #[test]
    #[should_panic(expected = "max_in_flight must be ≥ 1")]
    fn zero_in_flight_bound_is_rejected_loudly() {
        let mut cfg = ServerConfig::new(1);
        cfg.max_in_flight = 0; // bypasses the builder's own assert
        let _ = TaskServer::start(cfg);
    }

    #[test]
    fn effective_in_flight_bound_is_surfaced() {
        // Configured 1 000 000 but the rings only hold 1 lane × 8 slots:
        // the clamp must be visible instead of silently applied.
        let server = TaskServer::start(
            ServerConfig::new(1)
                .max_in_flight(1_000_000)
                .lanes_per_shard(1)
                .lane_capacity(8),
        );
        let capacity = server.ingress().capacity();
        assert_eq!(server.stats().max_in_flight, capacity);
        let report = server.shutdown();
        assert_eq!(report.stats.max_in_flight, capacity);
    }

    #[test]
    fn registered_submitter_roundtrips_through_its_lane() {
        let server = TaskServer::start(ServerConfig::new(2).lanes_per_shard(2));
        let mut sub = server.register_submitter(0);
        assert!(sub.lane().is_some(), "a free lane must be reserved");
        let handles: Vec<_> = (0..100u64)
            .map(|i| sub.submit(move |_| i + 7).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            assert_eq!(h.join().unwrap(), i as u64 + 7);
        }
        let lane = sub.lane().unwrap();
        let counters = server.ingress().shard(sub.shard()).lane_counters();
        assert_eq!(counters[lane].0, 100, "all jobs went through the pin");
        assert_eq!(counters[lane].1, 100, "and were drained from it");
        drop(sub);
        // Lane released: a new registration gets it back.
        let again = server.register_submitter(0);
        assert!(again.lane().is_some());
        drop(again);
        server.shutdown();
    }

    #[test]
    fn registration_falls_back_when_lanes_exhausted() {
        let server = TaskServer::start(ServerConfig::new(1).lanes_per_shard(2));
        let mut a = server.register_submitter(0);
        let mut b = server.register_submitter(0);
        assert!(a.lane().is_some());
        assert!(
            b.lane().is_none(),
            "only one reservable lane (lane 0 stays anonymous)"
        );
        // Both handles still submit fine.
        assert_eq!(a.submit(|_| 4u32).unwrap().join().unwrap(), 4);
        assert_eq!(b.submit(|_| 5u32).unwrap().join().unwrap(), 5);
        drop((a, b));
        server.shutdown();
    }

    #[test]
    fn pause_resume_roundtrip_completes_queued_jobs() {
        let server = TaskServer::start(ServerConfig::new(2));
        assert_eq!(server.lifecycle(), Lifecycle::Serving);
        let before = server.submit(|_| 1u32).unwrap();
        server.pause().unwrap();
        assert_eq!(server.lifecycle(), Lifecycle::Paused);
        assert_eq!(before.join().unwrap(), 1, "in-team job drained by pause");

        // Queued while paused: admitted, not executed.
        let queued = server.submit(|_| 2u32).unwrap();
        assert!(!queued.is_done());
        assert_eq!(server.stats().queued, 1);

        // Pause is idempotent; resume on a serving server errors.
        server.pause().unwrap();
        server.resume().unwrap();
        assert_eq!(server.lifecycle(), Lifecycle::Serving);
        assert_eq!(server.resume(), Err(LifecycleError::NotPaused));
        assert_eq!(queued.join().unwrap(), 2);

        let report = server.shutdown();
        assert_eq!(report.stats.completed, 2);
        assert_eq!(report.stats.generations, 2);
        assert_eq!(report.prior_regions.len(), 1, "one retired generation");
        assert!(report.region.is_some());
    }

    #[test]
    fn paused_at_capacity_bounces_with_paused_error() {
        let server = TaskServer::start(
            ServerConfig::new(1)
                .max_in_flight(2)
                .lanes_per_shard(1)
                .lane_capacity(4),
        );
        server.pause().unwrap();
        let a = server.try_submit(|_| 1u32).unwrap();
        let b = server.try_submit(|_| 2u32).unwrap();
        let bounced = server.try_submit(|_| 3u32).unwrap_err();
        assert!(
            bounced.is_paused(),
            "bound reached while paused must be Paused, got {bounced:?}"
        );
        server.resume().unwrap();
        assert_eq!(a.join().unwrap(), 1);
        assert_eq!(b.join().unwrap(), 2);
        server.shutdown();
    }

    #[test]
    fn lifecycle_errors_after_shutdown_begins() {
        let server = TaskServer::start(ServerConfig::new(2));
        server.pause().unwrap();
        let queued = server.submit(|_| 7u32).unwrap();
        // Shutdown from paused: the queued job still completes.
        let report = server.shutdown();
        assert_eq!(queued.join().unwrap(), 7);
        assert_eq!(report.stats.completed, 1);
        assert_eq!(report.stats.in_flight, 0);
    }

    /// A traced server config (the test env leaves `XGOMP_TRACE` unset,
    /// so the level must be explicit).
    fn traced_config(threads: usize, level: TraceLevel) -> ServerConfig {
        let cfg = ServerConfig::new(threads);
        let rt = cfg.runtime.clone().trace(level);
        cfg.runtime(rt)
    }

    #[test]
    fn stats_cohere_when_quiescent_and_delta_subtracts() {
        let server = TaskServer::start(ServerConfig::new(2));
        let handles: Vec<_> = (0..40u64)
            .map(|i| server.submit(move |_| i).unwrap())
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        server.pause().unwrap();
        let s1 = server.stats();
        // Quiescent (paused, nothing queued): the cross-field identities
        // the docs promise hold exactly.
        assert_eq!(s1.submitted, s1.completed + s1.queued as u64);
        assert_eq!(s1.in_flight, s1.queued);
        server.resume().unwrap();
        let more: Vec<_> = (0..25u64)
            .map(|i| server.submit(move |_| i).unwrap())
            .collect();
        for h in more {
            h.join().unwrap();
        }
        server.pause().unwrap();
        let s2 = server.stats();
        let d = s2.delta(&s1);
        assert_eq!(d.submitted, 25, "window counts only the second batch");
        assert_eq!(d.completed, 25);
        assert_eq!(d.generations, 1, "one resume in the window");
        // Gauges come from the later snapshot, not a difference.
        assert_eq!(d.max_in_flight, s2.max_in_flight);
        assert_eq!(d.shards, s2.shards);
        // Swapped arguments saturate to zero instead of wrapping.
        assert_eq!(s1.delta(&s2).submitted, 0);
        let report = server.shutdown();
        assert_eq!(report.stats.submitted, report.stats.completed);
        assert_eq!(report.stats.in_flight, 0);
        assert_eq!(report.stats.queued, 0);
    }

    #[test]
    fn prometheus_rendering_uses_stable_names() {
        let server = TaskServer::start(ServerConfig::new(2));
        let handles: Vec<_> = (0..10u64)
            .map(|i| server.submit(move |_| i).unwrap())
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let text = server.render_prometheus();
        // The stable schema: every family present with HELP and TYPE,
        // each exactly once (a duplicated header is an invalid
        // exposition a strict scraper rejects).
        for name in STABLE_METRIC_FAMILIES {
            for header in ["HELP", "TYPE"] {
                let line = format!("# {header} {name} ");
                assert_eq!(
                    text.matches(&line).count(),
                    1,
                    "family {name}: {header} line must appear exactly once"
                );
            }
        }
        // And no family outside the stable set: every HELP line's name
        // is listed.
        for line in text.lines().filter(|l| l.starts_with("# HELP ")) {
            let name = line.split_whitespace().nth(2).unwrap();
            assert!(
                STABLE_METRIC_FAMILIES.contains(&name),
                "unlisted metric family {name}: extend STABLE_METRIC_FAMILIES"
            );
        }
        assert!(text.contains("xgomp_jobs_submitted_total 10"));
        // Continuous-pipeline families render (at zero) even with the
        // stream and listener unconfigured.
        assert!(text.contains("xgomp_trace_drained_total 0"));
        assert!(text.contains("xgomp_metrics_scrapes_total 0"));
        assert!(text.contains(r#"xgomp_loop_chunks_by_schedule_total{schedule="guided"}"#));
        assert!(text.contains(r#"xgomp_jobs_submitted_by_class_total{class="normal"} 10"#));
        assert!(text.contains(r#"xgomp_job_queued_seconds_bucket{class="normal",le="+Inf"} 10"#));
        assert!(text.contains(r#"xgomp_job_run_seconds_count{class="normal"} 10"#));
        server.shutdown();
    }

    #[test]
    fn flight_recorder_spans_jobs_and_reports_latency() {
        let server = TaskServer::start(traced_config(2, TraceLevel::Lifecycle));
        let handles: Vec<_> = (0..8u64)
            .map(|i| server.submit(move |_| i * i).unwrap())
            .collect();
        for (i, h) in handles.into_iter().enumerate() {
            let id = h.job_id();
            assert!(id > 0, "tracked jobs get nonzero ids");
            while !h.is_done() {
                std::thread::yield_now();
            }
            let r = h.report().expect("done job reports");
            assert_eq!(r.job_id, id);
            assert_eq!(r.total_cycles, r.queued_cycles + r.run_cycles);
            assert_eq!(h.join().unwrap(), (i as u64) * (i as u64));
        }
        let snap = server.trace_snapshot();
        assert_eq!(snap.count(EventKind::JobStart), 8);
        assert_eq!(snap.count(EventKind::JobEnd), 8);
        // All clean completions: every JobEnd carries a = 0.
        assert!(snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::JobStart || e.kind == EventKind::JobEnd)
            .all(|e| e.a == 0 && e.b > 0));
        let json = snap.to_chrome_json();
        assert!(json.contains("\"ph\":\"b\""), "async span begin present");
        assert!(json.contains("\"ph\":\"e\""), "async span end present");
        server.shutdown();
    }

    #[test]
    fn job_report_is_complete_after_done() {
        let server = TaskServer::start(traced_config(2, TraceLevel::Lifecycle));
        let h = server
            .submit(|_| std::thread::sleep(Duration::from_millis(2)))
            .unwrap();
        while !h.is_done() {
            std::thread::yield_now();
        }
        let r = h.report().expect("done job reports");
        assert!(r.run_cycles > 0, "a sleeping job has nonzero run time");
        assert_eq!(r.total_cycles, r.queued_cycles + r.run_cycles);
        h.join().unwrap();
        server.shutdown();
    }

    #[test]
    fn trace_level_flips_live() {
        let server = TaskServer::start(traced_config(2, TraceLevel::Off));
        assert_eq!(server.trace_level(), TraceLevel::Off);
        let h = server.submit(|_| ()).unwrap();
        h.join().unwrap();
        assert_eq!(
            server.trace_snapshot().count(EventKind::JobStart),
            0,
            "Off records nothing"
        );
        server.set_trace_level(TraceLevel::Lifecycle);
        let h = server.submit(|_| ()).unwrap();
        h.join().unwrap();
        let snap = server.trace_snapshot();
        assert_eq!(snap.count(EventKind::JobStart), 1, "live flip takes effect");
        server.shutdown();
    }

    #[test]
    fn generation_markers_bracket_every_generation() {
        let server = TaskServer::start(traced_config(2, TraceLevel::Lifecycle));
        let h = server.submit(|_| 1u32).unwrap();
        h.join().unwrap();
        server.pause().unwrap();
        server.resume().unwrap();
        let h = server.submit(|_| 2u32).unwrap();
        h.join().unwrap();
        let snap = server.trace_snapshot();
        // Generation 1 opened and closed (at the pause); generation 2
        // opened on resume and is still running.
        assert_eq!(snap.count(EventKind::GenOpen), 2);
        assert_eq!(snap.count(EventKind::GenClose), 1);
        let opens: Vec<u64> = snap
            .events
            .iter()
            .filter(|e| e.kind == EventKind::GenOpen)
            .map(|e| e.b)
            .collect();
        assert_eq!(opens, vec![1, 2], "markers carry the generation number");
        server.shutdown();
    }
}
