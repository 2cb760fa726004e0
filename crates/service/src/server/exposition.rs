//! Stats and exposition: the job counters and latency histograms the
//! submitters and workers write, their snapshots ([`ServerStats`],
//! [`QosClassStats`]), the Prometheus and `/healthz` renderings, and
//! the observability getters on [`TaskServer`].

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, PoisonError};

use super::{ServerShared, TaskServer, DRAINING, PAUSED, SERVING};
use crate::ingress::ShardedIngress;
use crate::QosClass;
use xgomp_core::{
    clock, AutoSiteStatus, DlbConfig, DlbTuning, LoopBalancer, LoopId, LoopTelemetrySnapshot,
    PromText, TaskSizeHistogram, TraceLevel, TraceSnapshot, TraceStreamStats,
};

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
pub(super) fn latency_edges_ticks() -> [u64; LATENCY_BUCKETS_SECS.len()] {
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
pub(super) struct LatencyHist {
    counts: [AtomicU64; LATENCY_BUCKETS_SECS.len()],
    sum_ticks: AtomicU64,
    count: AtomicU64,
}

impl LatencyHist {
    pub(super) fn new() -> Self {
        LatencyHist {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ticks: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one sample against the tick `edges` of
    /// [`latency_edges_ticks`].
    pub(super) fn record_ticks(&self, ticks: u64, edges: &[u64; LATENCY_BUCKETS_SECS.len()]) {
        let i = edges.partition_point(|&e| e < ticks);
        if let Some(c) = self.counts.get(i) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        self.sum_ticks.fetch_add(ticks, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// (cumulative bucket counts, sum in seconds, total observations).
    pub(super) fn render_parts(&self) -> (Vec<u64>, f64, u64) {
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
pub(super) struct ClassCounters {
    pub(super) completed: AtomicU64,
    pub(super) cancelled: AtomicU64,
    pub(super) shed: AtomicU64,
    pub(super) queued_hist: LatencyHist,
    pub(super) run_hist: LatencyHist,
}

impl ClassCounters {
    pub(super) fn new() -> Self {
        ClassCounters {
            completed: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            queued_hist: LatencyHist::new(),
            run_hist: LatencyHist::new(),
        }
    }
}

/// The counters submitters write: admission and placement.
#[derive(Default)]
pub(super) struct SubmitCounters {
    pub(super) rejected: AtomicU64,
    /// Per-class admissions, indexed by `QosClass::index()`.
    pub(super) class_submitted: [AtomicU64; 3],
    /// Monotone job-id allocator (ids start at 1; `0` means untracked).
    /// The id keys the job's `JobStart`/`JobEnd` async trace span and
    /// its [`JobReport`](crate::JobReport).
    pub(super) job_seq: AtomicU64,
    /// Submitters currently between a "rings open" check and the end of
    /// their ring push. The pause drain may not quiesce while this is
    /// nonzero: a producer that observed `SERVING` could otherwise land
    /// its (pre-pause-admitted) job in a ring *after* the drain's final
    /// emptiness check, stranding it until resume. SeqCst Dekker with
    /// the state flip — see `announce_ring_producer`.
    pub(super) ring_producers: AtomicUsize,
}

/// The counters workers write: drain and completion.
pub(super) struct WorkerCounters {
    /// Jobs handed to the team's scheduler but not yet completed — the
    /// quantity a pause drains to zero (ingress-queued jobs stay queued).
    pub(super) in_team: AtomicUsize,
    /// Per-class outcome counters + latency histograms, indexed by
    /// `QosClass::index()`; the server totals are their sums.
    pub(super) class: [ClassCounters; 3],
    /// The histograms' bucket edges in ticks ([`latency_edges_ticks`]).
    pub(super) hist_edges: [u64; LATENCY_BUCKETS_SECS.len()],
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

/// Counters of the continuous observability pipeline, published by the
/// collector thread and the metrics listener (see [`ServerShared::obs`]).
#[derive(Default)]
pub(super) struct ObsCounters {
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
    pub(super) metrics_scrapes: AtomicU64,
}

impl ObsCounters {
    /// Publishes the collector's cumulative stream counters (stores —
    /// the stream's own totals are the source of truth).
    pub(super) fn publish_stream(&self, s: TraceStreamStats) {
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
        let by_class = self.class_stats_now();
        let total = |pick: fn(&QosClassStats) -> u64| by_class.iter().map(pick).sum();
        ServerStats {
            submitted: total(|c| c.submitted),
            completed: total(|c| c.completed),
            cancelled: total(|c| c.cancelled),
            shed: total(|c| c.shed),
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
    pub(super) fn health_json(&self) -> String {
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
    pub(super) fn render_prometheus_with(&self, tuning: &DlbTuning) -> String {
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

    /// Best-effort automatic flight-recorder dump (job panic, shutdown):
    /// a no-op without a [`ServerConfig::trace_dump`] directory or below
    /// `Lifecycle`, and never panics — observability must not take the
    /// server down with it.
    pub(super) fn dump_flight_recorder(&self, file_name: &str) {
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
    /// Jobs accepted by admission control, counted at admission. This
    /// and the three outcome totals below are sums of the per-class
    /// counters ([`TaskServer::class_stats`]).
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

impl TaskServer {
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
    /// [`pause`](Self::pause) returns, `submitted == completed +
    /// cancelled + shed + queued` and `in_flight == queued`; on the
    /// final [`shutdown`](Self::shutdown) report,
    /// `submitted == completed + cancelled + shed` and
    /// `in_flight == queued == 0`. The four job totals are sums of the
    /// [`class_stats`](Self::class_stats) counters. A job is counted
    /// `submitted` at admission, a beat after it takes its `in_flight`
    /// slot and before it reaches a ring, so while serving derived
    /// quantities can be transiently off by the number of in-progress
    /// submissions.
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
    /// the OS); `None` when
    /// [`ServerConfig::metrics_addr`](crate::ServerConfig::metrics_addr)
    /// is unset or the bind failed at startup.
    pub fn metrics_local_addr(&self) -> Option<std::net::SocketAddr> {
        self.listener.as_ref().map(|l| l.local_addr())
    }

    /// Live counters of the streaming trace collector; `None` when
    /// [`ServerConfig::trace_stream`](crate::ServerConfig::trace_stream)
    /// is unset or the stream failed to open. Racy like every other observability read — the exact
    /// end-of-run accounting lives in the stream's final on-disk
    /// summary line.
    pub fn trace_stream_stats(&self) -> Option<TraceStreamStats> {
        self.collector
            .as_ref()
            .map(|_| self.shared.obs.stream_stats())
    }
}
