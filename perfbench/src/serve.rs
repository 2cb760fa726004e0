//! `serve`: one `TaskServer`, loaded from the main thread.
//!
//! * `burst` — closed loop keeping [`BURST_WINDOW`] tiny jobs
//!   outstanding, joined in order: the untraced run's end-to-end
//!   metric, time per job (`op_ms`, the median over blocks of [`BLOCK`]
//!   jobs), and its saturation throughput (a detail figure).
//! * `lo` — open loop, Poisson arrivals at [`LO_RATE`]: workers park
//!   between arrivals, so nearly every job pays park→wake.
//! * `hi` — the same job mix at [`HI_RATE`], below saturation: workers
//!   park far less often.
//!
//! The open-loop phases run in the traced run only. Their latencies run
//! from a job's due time to its completion (a refused or failed job
//! counts as infinitely late) and are reported with the per-layer
//! metrics: on a 2-vCPU virtual machine they follow the host's vCPU wake
//! and steal times more than the program, and vary too much from run to
//! run to gate a change.
//!
//! Most open-loop jobs are tiny and return a checkable function of their
//! index; one in [`FANOUT_ONE_IN`] fans out [`FANOUT`] tiny tasks
//! through `ctx.scope` and returns their sum. The open loop submits with
//! `try_submit` and never blocks.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use xgomp::bots::rng::{mix64, Rng};
use xgomp::{JobHandle, ServerConfig, ServerStats, TaskCtx, TaskServer};

use crate::measure::{median, ms, percentile, ratio, us, Report, Trace};
use crate::Opts;

/// Arrival rate of the `lo` phase (jobs/s): gaps of ~1 ms, long enough
/// for every worker to park.
pub const LO_RATE: f64 = 1_000.0;
/// Arrival rate of the `hi` phase (jobs/s), well below saturation: at
/// 20k/s a few hundred jobs were refused while the host stole a quarter
/// of the vCPU time.
pub const HI_RATE: f64 = 10_000.0;
/// One job in this many fans out.
pub const FANOUT_ONE_IN: u64 = 8;
/// Tasks a fan-out job spawns.
pub const FANOUT: usize = 64;
/// Outstanding jobs in the `burst` closed loop.
pub const BURST_WINDOW: usize = 64;
/// The closed loop is timed in blocks of this many joined jobs; `op_ms`
/// is the median time per job over the blocks.
pub const BLOCK: u64 = 1_024;
/// Share of a traced run's time for the `lo` and `hi` phases, and for
/// `burst` (alternating untraced and traced slices).
const TRACED_SHARES: [f64; 3] = [0.3, 0.3, 0.4];
/// Warm-up: closed-loop tiny jobs, then fan-out jobs.
const WARM_TINY: u64 = 20_000;
const WARM_FANOUT: u64 = 500;

/// The server every phase runs on. Every knob the results depend on is
/// set here, including the ones whose defaults read the environment
/// (`XGOMP_TRACE_PATH`, `XGOMP_TRACE_STREAM`, `XGOMP_METRICS_ADDR`).
pub fn server_config(workers: usize) -> ServerConfig {
    let mut cfg = ServerConfig::new(workers)
        .runtime(crate::regions::runtime_config(workers))
        .max_in_flight(1_024)
        .lanes_per_shard(8)
        .lane_capacity(128)
        .drain_batch(32)
        .adapt_every(512)
        .log_retunes(false)
        .trace_stream_interval(Duration::from_millis(2));
    cfg.trace_dump = None;
    cfg.trace_stream = None;
    cfg.metrics_addr = None;
    cfg.ls_reserve = None;
    cfg.background_cap = None;
    cfg
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Tiny,
    Fanout,
}

fn leaf(i: u64, k: u64) -> u64 {
    mix64(i.wrapping_mul(FANOUT as u64).wrapping_add(k))
}

/// What job `i` of `kind` must return.
pub fn expected(i: u64, kind: Kind) -> u64 {
    match kind {
        Kind::Tiny => mix64(i),
        Kind::Fanout => (0..FANOUT as u64).fold(0, |a, k| a.wrapping_add(leaf(i, k))),
    }
}

/// The seeded job stream: indices, kinds and Poisson inter-arrival gaps.
pub struct JobGen {
    rng: Rng,
    next: u64,
}

impl JobGen {
    pub fn new(seed: u64) -> Self {
        JobGen {
            rng: Rng::new(seed),
            next: 0,
        }
    }

    /// A fresh index for a job outside the mix (burst and warm-up).
    pub fn index(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// The next open-loop job: its index, its kind, and the gap before
    /// the following arrival at `rate` jobs/s.
    pub fn next(&mut self, rate: f64) -> (u64, Kind, Duration) {
        let kind = if self.rng.below(FANOUT_ONE_IN) == 0 {
            Kind::Fanout
        } else {
            Kind::Tiny
        };
        let gap = -(1.0 - self.rng.unit_f64()).ln() / rate;
        (self.index(), kind, Duration::from_secs_f64(gap))
    }
}

/// A job's result: its value, when its body ran (start only when
/// traced), and (traced fan-out jobs) each spawn's call time and
/// spawn→body-start delay.
struct Done {
    value: u64,
    start: Option<Instant>,
    end: Instant,
    spawns: Vec<(f64, f64)>,
}

fn job(i: u64, kind: Kind, traced: bool) -> impl FnOnce(&TaskCtx<'_>) -> Done + Send + 'static {
    move |ctx| {
        let start = traced.then(Instant::now);
        let (value, spawns) = match kind {
            Kind::Tiny => (mix64(i), Vec::new()),
            Kind::Fanout => fan_out(ctx, i, traced),
        };
        Done {
            value,
            start,
            end: Instant::now(),
            spawns,
        }
    }
}

fn fan_out(ctx: &TaskCtx<'_>, i: u64, traced: bool) -> (u64, Vec<(f64, f64)>) {
    let mut parts = [0u64; FANOUT];
    let mut started: [Option<Instant>; FANOUT] = [None; FANOUT];
    let mut calls: [Option<(Instant, Duration)>; FANOUT] = [None; FANOUT];
    ctx.scope(|s| {
        for (k, (part, start)) in parts.iter_mut().zip(started.iter_mut()).enumerate() {
            let t = traced.then(Instant::now);
            s.spawn(move |_| {
                if traced {
                    *start = Some(Instant::now());
                }
                *part = leaf(i, k as u64);
            });
            calls[k] = t.map(|t| (t, t.elapsed()));
        }
    });
    let spawns = calls
        .iter()
        .zip(&started)
        .filter_map(|(c, s)| {
            let ((t, call), s) = (c.as_ref()?, s.as_ref()?);
            Some((call.as_nanos() as f64, us(s.saturating_duration_since(*t))))
        })
        .collect();
    (parts.iter().fold(0, |a, &p| a.wrapping_add(p)), spawns)
}

/// Samples of one phase.
#[derive(Default)]
struct Phase {
    /// Due → completion (open loop), `INFINITY` for a refused or failed
    /// job.
    lat_us: Vec<f64>,
    /// How late the generator submitted.
    late_us: Vec<f64>,
    submit_ns: Vec<f64>,
    queued_us: Vec<f64>,
    run_us: Vec<f64>,
    join_wake_us: Vec<f64>,
    spawn_ns: Vec<f64>,
    spawn_to_start_us: Vec<f64>,
    jobs: u64,
    refused: u64,
    parks: u64,
    wakes: u64,
    retunes: u64,
    /// Closed loop: jobs completed, and the seconds they took.
    accepted: u64,
    busy_s: f64,
    /// Closed loop: time per job in each block of [`BLOCK`] joins.
    block_ms: Vec<f64>,
}

impl Phase {
    fn jobs_per_s(&self) -> f64 {
        self.accepted as f64 / self.busy_s
    }
}

struct Pending {
    i: u64,
    kind: Kind,
    due: Instant,
    call: (Instant, Instant),
    handle: JobHandle<Done>,
}

struct State {
    server: TaskServer,
    cycles_per_us: f64,
}

/// Counter readings a phase is measured between.
struct Mark {
    stats: ServerStats,
    wakes: u64,
}

impl State {
    fn mark(&self) -> Mark {
        Mark {
            stats: self.server.stats(),
            wakes: self.server.wake_events(),
        }
    }

    /// Closes a phase: counter deltas, and the server's conservation
    /// identity over the phase (every job is joined by now).
    fn close(&self, from: &Mark, accepted: u64, ph: &mut Phase, rep: &mut Report) {
        let d = self.server.stats().delta(&from.stats);
        ph.parks += d.parks;
        ph.wakes += self.server.wake_events() - from.wakes;
        ph.retunes += d.retunes;
        rep.check(d.submitted == d.completed + d.cancelled + d.shed, || {
            format!(
                "submitted {} != completed {} + cancelled {} + shed {}",
                d.submitted, d.completed, d.cancelled, d.shed
            )
        });
        rep.check(d.submitted == accepted, || {
            format!(
                "server counted {} submissions, benchmark {accepted}",
                d.submitted
            )
        });
    }
}

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(200) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::thread::yield_now();
        }
    }
}

/// Joins one open-loop job, checks its value and records its samples.
fn finish(st: &State, p: Pending, ph: &mut Phase, rep: &mut Report, trace: &mut Trace) {
    while !p.handle.is_done() {
        std::thread::yield_now();
    }
    let report = p.handle.report().expect("a done job has a report");
    let done = match p.handle.join() {
        Ok(d) => d,
        Err(e) => {
            rep.failed += 1;
            ph.lat_us.push(f64::INFINITY);
            eprintln!("job {} failed: {e}", p.i);
            return;
        }
    };
    rep.check(done.value == expected(p.i, p.kind), || {
        format!(
            "job {} returned {:#x}, expected {:#x}",
            p.i,
            done.value,
            expected(p.i, p.kind)
        )
    });
    ph.lat_us
        .push(us(done.end.saturating_duration_since(p.due)));
    ph.queued_us
        .push(report.queued_cycles as f64 / st.cycles_per_us);
    ph.run_us.push(report.run_cycles as f64 / st.cycles_per_us);
    for &(call_ns, to_start) in &done.spawns {
        ph.spawn_ns.push(call_ns);
        ph.spawn_to_start_us.push(to_start);
    }
    if let Some(start) = done.start {
        let id = report.job_id;
        let root = trace.span("job", id, None, p.due, done.end);
        trace.span("job.late", id, root, p.due, p.call.0);
        trace.span("server.try_submit", id, root, p.call.0, p.call.1);
        trace.span("job.queued", id, root, p.call.1, start);
        trace.span("job.run", id, root, start, done.end);
    }
}

/// One traced open-loop phase at `rate` jobs/s for `secs`.
fn open_loop(
    st: &State,
    gen: &mut JobGen,
    rate: f64,
    secs: f64,
    rep: &mut Report,
    trace: &mut Trace,
) -> Phase {
    let mut ph = Phase::default();
    let mark = st.mark();
    let start = Instant::now() + Duration::from_millis(1);
    let end = start + Duration::from_secs_f64(secs);
    let mut pending = Vec::new();
    let mut due = start;
    while due < end {
        wait_until(due);
        let (i, kind, gap) = gen.next(rate);
        let c0 = Instant::now();
        let res = st.server.try_submit(job(i, kind, true));
        let c1 = Instant::now();
        ph.late_us.push(us(c0 - due));
        ph.submit_ns.push((c1 - c0).as_nanos() as f64);
        ph.jobs += 1;
        match res {
            Ok(handle) => pending.push(Pending {
                i,
                kind,
                due,
                call: (c0, c1),
                handle,
            }),
            Err(_) => {
                ph.refused += 1;
                ph.lat_us.push(f64::INFINITY);
            }
        }
        due += gap;
    }
    let accepted = pending.len() as u64;
    for p in pending {
        finish(st, p, &mut ph, rep, trace);
    }
    st.close(&mark, accepted, &mut ph, rep);
    ph
}

/// A burst job in flight: its index, its submit call (when traced) and
/// its handle.
type InFlight = (u64, Option<(Instant, Instant)>, JobHandle<Done>);

/// The closed loop: `BURST_WINDOW` tiny jobs outstanding, joined in
/// order, for `secs` (or `count` jobs when given), adding to `ph`.
/// Per-job samples are taken only when traced.
fn burst(
    st: &State,
    gen: &mut JobGen,
    secs: f64,
    count: Option<u64>,
    ph: &mut Phase,
    rep: &mut Report,
    mut trace: Option<&mut Trace>,
) {
    let traced = trace.is_some();
    let jobs_before = ph.jobs;
    let mark = st.mark();
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(secs);
    let mut window: VecDeque<InFlight> = VecDeque::with_capacity(BURST_WINDOW);
    let mut accepted = 0u64;
    let (mut block_start, mut in_block) = (t0, 0);
    let more = |ph: &Phase| match count {
        Some(n) => ph.jobs - jobs_before < n,
        None => Instant::now() < deadline,
    };
    loop {
        while window.len() < BURST_WINDOW && more(ph) {
            let i = gen.index();
            let c0 = traced.then(Instant::now);
            let res = st.server.submit(job(i, Kind::Tiny, false));
            let call = c0.map(|c0| (c0, Instant::now()));
            if let Some((c0, c1)) = call {
                ph.submit_ns.push((c1 - c0).as_nanos() as f64);
            }
            ph.jobs += 1;
            match res {
                Ok(h) => {
                    accepted += 1;
                    window.push_back((i, call, h));
                }
                Err(_) => ph.refused += 1,
            }
        }
        let Some((i, call, h)) = window.pop_front() else {
            break;
        };
        let waited = !h.is_done();
        let id = h.job_id();
        let j0 = traced.then(Instant::now);
        match h.join() {
            Ok(done) => {
                rep.check(done.value == expected(i, Kind::Tiny), || {
                    format!("burst job {i} returned {:#x}", done.value)
                });
                if let (Some(trace), Some((c0, c1)), Some(j0)) = (trace.as_deref_mut(), call, j0) {
                    let j1 = Instant::now();
                    // Only a join that had to wait times a wake-up; a job
                    // done before its join has none.
                    if waited {
                        ph.join_wake_us
                            .push(us(j1.saturating_duration_since(done.end)));
                    }
                    let root = trace.span("burst.job", id, None, c0, j1);
                    trace.span("server.submit", id, root, c0, c1);
                    trace.span("handle.join", id, root, j0, j1);
                }
            }
            Err(e) => {
                rep.failed += 1;
                eprintln!("burst job {i} failed: {e}");
            }
        }
        in_block += 1;
        if in_block == BLOCK {
            let now = Instant::now();
            ph.block_ms.push(ms(now - block_start) / BLOCK as f64);
            (block_start, in_block) = (now, 0);
        }
    }
    ph.accepted += accepted;
    ph.busy_s += t0.elapsed().as_secs_f64();
    st.close(&mark, accepted, ph, rep);
}

fn setup(opts: &Opts) -> Result<State, String> {
    let st = State {
        server: TaskServer::start(server_config(opts.workers)),
        cycles_per_us: xgomp::clock::cycles_per_ns() * 1e3,
    };
    // Warm-up, checked like the measured phases: tiny jobs in the
    // closed loop, then a batch of fan-out jobs.
    let mut rep = Report::default();
    let mut gen = JobGen::new(opts.seed ^ 0x5EED);
    burst(
        &st,
        &mut gen,
        600.0,
        Some(WARM_TINY),
        &mut Phase::default(),
        &mut rep,
        None,
    );
    let handles: Vec<_> = (0..WARM_FANOUT)
        .map(|_| {
            let i = gen.index();
            (i, st.server.submit(job(i, Kind::Fanout, false)))
        })
        .collect();
    for (i, h) in handles {
        let ok = h
            .map_err(|e| e.to_string())
            .and_then(|h| h.join().map_err(|e| e.to_string()));
        rep.check(
            matches!(ok, Ok(ref d) if d.value == expected(i, Kind::Fanout)),
            || format!("warm-up fan-out job {i}"),
        );
    }
    match rep.errors.first() {
        Some(e) => Err(format!("warm-up: {e}")),
        None if rep.failed > 0 => Err("warm-up: a job failed".into()),
        None => Ok(st),
    }
}

/// Counts a phase's jobs against the run's attempts and failures.
fn count(rep: &mut Report, ph: &Phase) {
    rep.attempted += ph.jobs;
    rep.failed += ph.refused;
}

pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let (st, setup_s) = crate::measure::repeat_setup(crate::SETUPS, || setup(opts))?;
    let mut gen = JobGen::new(opts.seed);
    if !opts.trace {
        let mut b = Phase::default();
        burst(&st, &mut gen, opts.seconds, None, &mut b, rep, None);
        count(rep, &b);
        rep.check(!b.block_ms.is_empty(), || {
            "burst: no block of jobs was timed".into()
        });
        rep.metric("setup_s", setup_s, "s");
        rep.metric("op_ms", median(&b.block_ms), "ms");
        rep.detail("burst_jobs_per_s", b.jobs_per_s(), "1/s");
        return Ok(());
    }

    let secs = |share: f64| opts.seconds * share;
    // One span store per phase, so every phase keeps its spans.
    let mut traces: [Trace; 3] = std::array::from_fn(|_| Trace::new(crate::TRACE_CAP));
    let [lo_trace, hi_trace, burst_trace] = &mut traces;
    let lo = open_loop(
        &st,
        &mut gen,
        LO_RATE,
        secs(TRACED_SHARES[0]),
        rep,
        lo_trace,
    );
    let hi = open_loop(
        &st,
        &mut gen,
        HI_RATE,
        secs(TRACED_SHARES[1]),
        rep,
        hi_trace,
    );
    let (mut plain, mut b) = (Phase::default(), Phase::default());
    let slice = secs(TRACED_SHARES[2]) / (2 * crate::TRACE_SLICES) as f64;
    for _ in 0..crate::TRACE_SLICES {
        burst(&st, &mut gen, slice, None, &mut plain, rep, None);
        burst(
            &st,
            &mut gen,
            slice,
            None,
            &mut b,
            rep,
            Some(&mut *burst_trace),
        );
    }
    let phases = [&lo, &hi, &plain, &b];
    for ph in phases {
        count(rep, ph);
    }
    let sum = |f: fn(&Phase) -> u64| phases.iter().map(|ph| f(ph)).sum::<u64>();
    rep.metric("lo_p50_us", percentile(&lo.lat_us, 50.0), "us");
    rep.metric("lo_p99_us", percentile(&lo.lat_us, 99.0), "us");
    rep.metric("hi_p50_us", percentile(&hi.lat_us, 50.0), "us");
    rep.metric("hi_p99_us", percentile(&hi.lat_us, 99.0), "us");
    let open = |f: fn(&Phase) -> &Vec<f64>| [f(&lo).as_slice(), f(&hi)].concat();
    let submit_ns = [open(|ph| &ph.submit_ns).as_slice(), &b.submit_ns].concat();
    rep.metric(
        "service.server.submit_ns.p50",
        percentile(&submit_ns, 50.0),
        "ns",
    );
    rep.metric(
        "service.server.submit_ns.p99",
        percentile(&submit_ns, 99.0),
        "ns",
    );
    rep.metric(
        "service.server.refused",
        sum(|ph| ph.refused) as f64,
        "count",
    );
    let queued = open(|ph| &ph.queued_us);
    rep.metric(
        "service.ingress.queued_us.p50",
        percentile(&queued, 50.0),
        "us",
    );
    rep.metric(
        "service.ingress.queued_us.p99",
        percentile(&queued, 99.0),
        "us",
    );
    rep.metric(
        "service.handle.run_us.p50",
        median(&open(|ph| &ph.run_us)),
        "us",
    );
    rep.metric(
        "service.handle.join_wake_us.p50",
        percentile(&b.join_wake_us, 50.0),
        "us",
    );
    rep.metric(
        "service.handle.join_wake_us.p99",
        percentile(&b.join_wake_us, 99.0),
        "us",
    );
    let jobs = sum(|ph| ph.jobs);
    rep.metric(
        "xqueue.parker.parks_per_kjob",
        1e3 * ratio(sum(|ph| ph.parks), jobs),
        "count/kjob",
    );
    rep.metric(
        "xqueue.parker.wakes_per_kjob",
        1e3 * ratio(sum(|ph| ph.wakes), jobs),
        "count/kjob",
    );
    let per_kjob = |n, ph: &Phase| 1e3 * ratio(n, ph.jobs);
    rep.metric(
        "xqueue.parker.parks_per_kjob.lo",
        per_kjob(lo.parks, &lo),
        "count/kjob",
    );
    rep.metric(
        "xqueue.parker.wakes_per_kjob.lo",
        per_kjob(lo.wakes, &lo),
        "count/kjob",
    );
    for (name, ph) in [("hi", &hi), ("burst", &b)] {
        let (parks, wakes) = (per_kjob(ph.parks, ph), per_kjob(ph.wakes, ph));
        rep.detail(
            format!("xqueue.parker.parks_per_kjob.{name}"),
            parks,
            "count/kjob",
        );
        rep.detail(
            format!("xqueue.parker.wakes_per_kjob.{name}"),
            wakes,
            "count/kjob",
        );
    }
    rep.metric(
        "service.controller.retunes",
        sum(|ph| ph.retunes) as f64,
        "count",
    );
    rep.metric(
        "core.sched.spawn_ns.p50",
        median(&open(|ph| &ph.spawn_ns)),
        "ns",
    );
    let to_start = open(|ph| &ph.spawn_to_start_us);
    rep.metric(
        "core.sched.spawn_to_start_us.p50",
        percentile(&to_start, 50.0),
        "us",
    );
    rep.metric(
        "core.sched.spawn_to_start_us.p99",
        percentile(&to_start, 99.0),
        "us",
    );
    rep.metric(
        "bench.gen_late_us.p99",
        percentile(&open(|ph| &ph.late_us), 99.0),
        "us",
    );
    rep.metric(
        "bench.trace_overhead_frac",
        plain.jobs_per_s() / b.jobs_per_s() - 1.0,
        "ratio",
    );
    for (part, trace) in ["lo", "hi", "burst"].into_iter().zip(&traces) {
        crate::write_trace(opts, part, trace);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> Vec<(u64, Kind, Duration, u64)> {
        let mut g = JobGen::new(seed);
        (0..2_000)
            .map(|_| {
                let (i, k, gap) = g.next(HI_RATE);
                (i, k, gap, expected(i, k))
            })
            .collect()
    }

    #[test]
    fn same_seed_same_job_stream() {
        assert_eq!(stream(3), stream(3));
    }

    #[test]
    fn another_seed_changes_the_arrivals_and_the_mix() {
        let (a, b) = (stream(3), stream(4));
        assert_ne!(a, b);
        let kinds = |s: &[(u64, Kind, Duration, u64)]| s.iter().map(|j| j.1).collect::<Vec<_>>();
        assert_ne!(kinds(&a), kinds(&b));
    }

    #[test]
    fn mix_and_rate_are_as_configured() {
        let s = stream(9);
        let fanouts = s.iter().filter(|j| j.1 == Kind::Fanout).count() as f64;
        let share = fanouts / s.len() as f64;
        assert!(
            (share - 1.0 / FANOUT_ONE_IN as f64).abs() < 0.03,
            "fan-out share {share}"
        );
        let mean_gap: f64 = s.iter().map(|j| j.2.as_secs_f64()).sum::<f64>() / s.len() as f64;
        assert!(
            (mean_gap * HI_RATE - 1.0).abs() < 0.1,
            "mean gap {mean_gap}"
        );
    }

    #[test]
    fn a_small_server_returns_the_expected_values() {
        let server = TaskServer::start(server_config(2));
        for (i, kind) in [(1, Kind::Tiny), (2, Kind::Fanout)] {
            let d = server.submit(job(i, kind, true)).unwrap().join().unwrap();
            assert_eq!(d.value, expected(i, kind));
            assert_eq!(
                d.spawns.len(),
                if kind == Kind::Fanout { FANOUT } else { 0 }
            );
        }
        server.shutdown();
    }
}
