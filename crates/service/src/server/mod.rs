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
//!
//! ## Module map
//!
//! * `mod.rs` — the shared state ([`ServerShared`]), [`TaskServer`]
//!   construction, the public `*submit*` entry points and shutdown;
//! * `admission` — admission control, placement into the ingress
//!   rings or the spill, the doorbell, blocked-submit waits and
//!   [`SubmitterHandle`];
//! * `generations` — the lifecycle state machine (pause / resume /
//!   config swap), the master and serve loops, the drain hook, and the
//!   job wrapper that runs, sheds and accounts every job;
//! * `exposition` — counters, latency histograms, [`ServerStats`], the
//!   Prometheus and `/healthz` renderings and the observability
//!   getters;
//! * `collector` — the streaming trace collector thread.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::handle::{JobHandle, JobRef};
use crate::ingress::ShardedIngress;
use crate::metrics::{MetricsHooks, MetricsListener};
use crate::{ServerConfig, SubmitOptions};
use xgomp_core::{
    AutoSelector, DlbConfig, DlbStrategy, DlbTuning, LiveTaskSampler, LoopBalancer, LoopReport,
    LoopSchedule, LoopSpace, LoopTelemetry, ParkerCell, RegionOutput, TaskCtx, TaskSizeHistogram,
    TraceStream, Tracer,
};

mod admission;
mod collector;
mod exposition;
mod generations;
#[cfg(test)]
mod tests;

pub use admission::{SubmitError, SubmitterHandle};
pub use exposition::{QosClassStats, ServerStats, STABLE_METRIC_FAMILIES};
pub(crate) use generations::run_job;
pub use generations::{Lifecycle, LifecycleError};

use admission::{submit_blocking, submitter_shard_hint, Route};
use collector::TraceCollector;
use exposition::{latency_edges_ticks, ClassCounters, ObsCounters, SubmitCounters, WorkerCounters};
use generations::{generation_layout, master_loop, placement_zones, ControlPlane};

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
                class: std::array::from_fn(|_| ClassCounters::new()),
                hist_edges: latency_edges_ticks(),
            }),
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
    /// job admits under its [`QosClass`](crate::QosClass)'s quota, and
    /// an expired deadline sheds it before start / cancels it
    /// cooperatively mid-run (the handle then resolves with the matching
    /// [`JobError`](crate::JobError)).
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
    /// range, or an [`IterSpace`](crate::IterSpace) 2D/triangular shape
    /// — scheduled across the team by `schedule` (see [`LoopSchedule`]) through
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
    /// [`JobError`](crate::JobError).
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
