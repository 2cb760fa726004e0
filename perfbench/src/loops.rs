//! `loops`: data-parallel jobs through `TaskServer::submit_for`,
//! submitted one at a time (closed loop, one outstanding): a seeded
//! row-skewed SpMV and a seeded triangular space under
//! `LoopSchedule::Auto`, plus the same SpMV under `LoopSchedule::Static`.
//! Range-pool and pane-set claims, balancer migration, the chunk-policy
//! portfolio and `Schedule::Auto` do most of the work; ingress sees only
//! a few jobs. `Static` claims once per worker and never steals, so a
//! claim-path or balancer change should leave `spmv_static_ms` flat.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xgomp::bots::dataloops::{CostProfile, Kernel, SkewedSpmv, Triangular};
use xgomp::bots::rng::mix64;
use xgomp::{IterSpace, JobHandle, LoopId, LoopReport, LoopSchedule, SubmitOptions, TaskServer};

use crate::measure::{geomean, median, ms, percentile, ratio, Report, Trace};
use crate::Opts;

/// SpMV rows: a ~3 MB matrix that stays in the cores' caches (~0.4 ms
/// an instance on 2 workers). At 200k rows the SpMV was bound by memory
/// shared with other tenants, and `spmv_static_ms` moved ±30% from run
/// to run.
pub const SPMV_ROWS: u64 = 32_768;
/// Rows of the triangular space (`n(n+1)/2` points).
pub const TRI_N: u64 = 2_500;
const SPMV_SITE: LoopId = LoopId(0x5350_4D56);
const TRI_SITE: LoopId = LoopId(0x0054_5249);
/// Auto instances a site may take to converge; a site still exploring
/// after this many fails the run. On a 2-vCPU host the triangle's site
/// took 28–378 instances (a sweep is 14; about one sweep in eight
/// confirms the last), so one still exploring after 2000 points at the
/// selector, not at noise.
const CONVERGE_CAP: u32 = 2_000;
/// Static instances of each kernel run as warm-up in set-up.
const WARM_STATIC: u32 = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loop {
    SpmvAuto,
    TriAuto,
    SpmvStatic,
    /// Warm-up only: the triangle without touching its Auto site.
    TriStatic,
}

const LOOPS: [Loop; 3] = [Loop::SpmvAuto, Loop::TriAuto, Loop::SpmvStatic];

impl Loop {
    fn name(self) -> &'static str {
        match self {
            Loop::SpmvAuto => "spmv_auto",
            Loop::TriAuto => "tri_auto",
            Loop::SpmvStatic => "spmv_static",
            Loop::TriStatic => "tri_static",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Loop::SpmvAuto => "loop.spmv_auto",
            Loop::TriAuto => "loop.tri_auto",
            Loop::SpmvStatic => "loop.spmv_static",
            Loop::TriStatic => "loop.tri_static",
        }
    }

    fn site(self) -> Option<LoopId> {
        match self {
            Loop::SpmvAuto => Some(SPMV_SITE),
            Loop::TriAuto => Some(TRI_SITE),
            Loop::SpmvStatic | Loop::TriStatic => None,
        }
    }

    fn points(self) -> u64 {
        match self {
            Loop::TriAuto | Loop::TriStatic => TRI_N * (TRI_N + 1) / 2,
            _ => SPMV_ROWS,
        }
    }
}

/// One accumulator per worker, each written only by its own worker, so
/// a plain load and store suffices (no contended read-modify-write in
/// the loop body).
#[repr(align(64))]
struct Slot(AtomicU64);

struct Sums(Vec<Slot>);

impl Sums {
    fn new(workers: usize) -> Arc<Self> {
        Arc::new(Sums(
            (0..workers).map(|_| Slot(AtomicU64::new(0))).collect(),
        ))
    }

    fn add(&self, worker: usize, v: u64) {
        let s = &self.0[worker].0;
        s.store(s.load(Ordering::Relaxed).wrapping_add(v), Ordering::Relaxed);
    }

    fn total(&self) -> u64 {
        self.0
            .iter()
            .fold(0, |a, s| a.wrapping_add(s.0.load(Ordering::Relaxed)))
    }
}

/// Kernels generated from the workload seed.
pub struct Inputs {
    spmv: Arc<SkewedSpmv>,
    tri: Arc<Triangular>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Inputs {
            spmv: Arc::new(SkewedSpmv::new(SPMV_ROWS, CostProfile::Skewed, seed)),
            // The triangle's seed only enters its row heads as `seed ^ row`,
            // whose sum over the rows is the same for small seeds; a mixed
            // seed makes every run's checksum its own.
            tri: Arc::new(Triangular::new(TRI_N, CostProfile::Skewed, mix64(seed))),
        }
    }

    /// Sequential checksums and how long each took, single-threaded.
    pub fn references(&self) -> ([u64; 2], [f64; 2]) {
        let t = Instant::now();
        let spmv = self.spmv.seq_checksum();
        let spmv_ms = ms(t.elapsed());
        let t = Instant::now();
        let tri = self.tri.seq_checksum();
        ([spmv, tri], [spmv_ms, ms(t.elapsed())])
    }
}

struct State {
    server: TaskServer,
    workers: usize,
    inputs: Inputs,
    refs: [u64; 2],
    seq_ms: [f64; 2],
}

/// One finished loop instance.
struct Instance {
    report: LoopReport,
    job_id: u64,
    sum: u64,
    /// Before the submit call, after it (the join follows at once), and
    /// after the join.
    times: [Instant; 3],
}

fn submit(st: &State, l: Loop) -> Result<Instance, String> {
    let sums = Sums::new(st.workers);
    let s = sums.clone();
    let opts = l
        .site()
        .map_or_else(SubmitOptions::new, |id| SubmitOptions::new().site(id));
    let t0 = Instant::now();
    let handle: JobHandle<LoopReport> = match l {
        Loop::SpmvAuto | Loop::SpmvStatic => {
            let m = st.inputs.spmv.clone();
            let sched = if l == Loop::SpmvStatic {
                LoopSchedule::Static
            } else {
                LoopSchedule::Auto
            };
            st.server
                .submit_for_with(opts, 0..SPMV_ROWS, sched, move |i, ctx| {
                    s.add(ctx.worker_id(), m.value(i))
                })
                .map_err(|e| e.to_string())?
        }
        Loop::TriAuto | Loop::TriStatic => {
            let t = st.inputs.tri.clone();
            let sched = if l == Loop::TriStatic {
                LoopSchedule::Static
            } else {
                LoopSchedule::Auto
            };
            st.server
                .submit_for_with(
                    opts,
                    IterSpace::triangular(TRI_N),
                    sched,
                    move |(r, c), ctx| s.add(ctx.worker_id(), t.pair_value(r, c)),
                )
                .map_err(|e| e.to_string())?
        }
    };
    let t1 = Instant::now();
    let job_id = handle.job_id();
    let report = handle.join().map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    Ok(Instance {
        report,
        job_id,
        sum: sums.total(),
        times: [t0, t1, t2],
    })
}

/// Checks an instance: checksum against the sequential reference,
/// every point run once, and the balancer's migration conservation.
fn check(st: &State, l: Loop, inst: &Instance, rep: &mut Report) {
    let r = &inst.report;
    let want = st.refs[usize::from(matches!(l, Loop::TriAuto | Loop::TriStatic))];
    rep.check(inst.sum == want, || {
        format!("{}: checksum {:#x}, expected {want:#x}", l.name(), inst.sum)
    });
    rep.check(r.iterations == l.points() && r.cancelled_iters == 0, || {
        format!(
            "{}: ran {} of {} points ({} cancelled)",
            l.name(),
            r.iterations,
            l.points(),
            r.cancelled_iters
        )
    });
    rep.check(r.migrated_in == r.migrated_out, || {
        format!(
            "{}: migrated in {} != out {}",
            l.name(),
            r.migrated_in,
            r.migrated_out
        )
    });
}

/// Set-up: the server, the kernels, their sequential references and a
/// warm-up. Auto exploration is not part of it (see [`converge`]): how
/// many sweeps a site needs depends on how noisy the host is, which
/// would make `setup_s` measure the host rather than the program.
fn setup(opts: &Opts) -> Result<State, String> {
    let inputs = Inputs::new(opts.seed);
    let (refs, seq_ms) = inputs.references();
    let st = State {
        server: TaskServer::start(crate::serve::server_config(opts.workers)),
        workers: opts.workers,
        inputs,
        refs,
        seq_ms,
    };
    let mut rep = Report::default();
    for _ in 0..WARM_STATIC {
        for l in [Loop::SpmvStatic, Loop::TriStatic] {
            let inst = submit(&st, l)?;
            check(&st, l, &inst, &mut rep);
        }
    }
    match rep.errors.first() {
        Some(e) => Err(format!("set-up: {e}")),
        None => Ok(st),
    }
}

/// The converged portfolio member of an Auto loop's site, `None` while
/// the site explores.
fn converged(st: &State, l: Loop) -> Option<usize> {
    let site = l.site()?;
    st.server.auto_site_status(site)?.converged
}

/// Runs each Auto loop until its site converges, so the measured
/// instances run the converged member; returns the instances each site
/// took. A site that has not converged after `CONVERGE_CAP` instances
/// is an error.
fn converge(st: &State) -> Result<[u32; 2], String> {
    let mut taken = [0; 2];
    let mut rep = Report::default();
    for (k, l) in [Loop::SpmvAuto, Loop::TriAuto].into_iter().enumerate() {
        while converged(st, l).is_none() {
            if taken[k] == CONVERGE_CAP {
                return Err(format!(
                    "{}: Auto has not converged after {CONVERGE_CAP} instances",
                    l.name()
                ));
            }
            let inst = submit(st, l)?;
            check(st, l, &inst, &mut rep);
            taken[k] += 1;
        }
    }
    match rep.errors.first() {
        Some(e) => Err(format!("Auto exploration: {e}")),
        None => Ok(taken),
    }
}

#[derive(Default)]
struct Acc {
    ms: Vec<f64>,
    /// Time of the `submit_for_with` call.
    submit_ns: Vec<f64>,
    /// Auto instances submitted while their site was exploring again
    /// (the selector re-opens exploration on sustained drift). They are
    /// checked but left out of `ms`, which times the converged member.
    explored: u64,
    chunks: u64,
    iterations: u64,
    claimed_local: u64,
    range_steals: u64,
    rebalances: u64,
    migrated: u64,
}

fn measure(
    st: &State,
    secs: f64,
    acc: &mut [Acc; 3],
    rep: &mut Report,
    mut traces: Option<&mut [Trace; 3]>,
) {
    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    while Instant::now() < deadline && rep.correct() {
        for (k, l) in LOOPS.into_iter().enumerate() {
            rep.attempted += 1;
            let exploring = l.site().is_some() && converged(st, l).is_none();
            let inst = match submit(st, l) {
                Ok(i) => i,
                Err(e) => {
                    rep.failed += 1;
                    eprintln!("{}: {e}", l.name());
                    continue;
                }
            };
            check(st, l, &inst, rep);
            let (a, r) = (&mut acc[k], &inst.report);
            if exploring {
                a.explored += 1;
                continue;
            }
            let [t0, t1, t2] = inst.times;
            a.ms.push(ms(t2 - t0));
            a.submit_ns.push((t1 - t0).as_nanos() as f64);
            a.chunks += r.chunks;
            a.iterations += r.iterations;
            a.claimed_local += r.claimed_local;
            a.range_steals += r.range_steals;
            a.rebalances += r.rebalances;
            a.migrated += r.migrated_in;
            if let Some(traces) = traces.as_deref_mut() {
                let trace = &mut traces[k];
                let root = trace.span(l.span(), inst.job_id, None, t0, t2);
                trace.span("server.submit_for", inst.job_id, root, t0, t1);
                trace.span("handle.join", inst.job_id, root, t1, t2);
            }
        }
    }
}

/// Geometric mean of the per-kernel median submit→join times: the run's
/// `op_ms`, and the figure the traced and the untraced pass are compared
/// on.
fn op_ms(acc: &[Acc; 3]) -> f64 {
    let medians: Vec<f64> = acc.iter().map(|a| median(&a.ms)).collect();
    geomean(&medians)
}

/// Loop instances that ran, converged or exploring.
fn instances(acc: &[Acc; 3]) -> u64 {
    acc.iter().map(|a| a.ms.len() as u64 + a.explored).sum()
}

/// The `LoopReport` figures of `a`, per converged instance.
fn loop_figures(a: &Acc) -> [(&'static str, f64, &'static str); 6] {
    let n = a.ms.len().max(1) as f64;
    [
        ("core.loops.chunks", a.chunks as f64 / n, "count/loop"),
        (
            "core.loops.iters_per_chunk",
            ratio(a.iterations, a.chunks),
            "iters/chunk",
        ),
        (
            "core.loops.claim_local_frac",
            ratio(a.claimed_local, a.chunks),
            "ratio",
        ),
        (
            "core.loops.range_steals",
            a.range_steals as f64 / n,
            "count/loop",
        ),
        (
            "core.loops.rebalances",
            a.rebalances as f64 / n,
            "count/loop",
        ),
        (
            "core.loops.migrated_iters",
            a.migrated as f64 / n,
            "iters/loop",
        ),
    ]
}

/// The portfolio member each Auto site converged on, by name, and how
/// many measured instances found their site exploring again.
fn auto_line(st: &State, acc: &[Acc; 3]) -> String {
    let workers = u32::try_from(st.workers).unwrap_or(u32::MAX);
    let (mut members, mut explored) = (Vec::new(), Vec::new());
    for (k, l) in LOOPS.into_iter().enumerate().take(2) {
        let name = converged(st, l).map_or("exploring".into(), |m| {
            format!("{:?}", xgomp::auto_portfolio_member(m, l.points(), workers))
        });
        members.push(format!("\"{}\": \"{name}\"", l.name()));
        explored.push(format!("\"{}\": {}", l.name(), acc[k].explored));
    }
    format!(
        "{{\"auto_converged\": {{{}}}, \"auto_explored_while_measuring\": {{{}}}}}",
        members.join(", "),
        explored.join(", ")
    )
}

pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let (st, setup_s) = crate::measure::repeat_setup(crate::SETUPS, || setup(opts))?;
    let to_converge = converge(&st)?;
    let mut acc: [Acc; 3] = Default::default();
    if !opts.trace {
        measure(&st, opts.seconds, &mut acc, rep, None);
        println!("{}", auto_line(&st, &acc));
        for (k, l) in LOOPS.into_iter().enumerate() {
            rep.check(!acc[k].ms.is_empty(), || {
                format!("{}: no instance ran the converged member", l.name())
            });
            rep.detail(format!("{}_ms", l.name()), median(&acc[k].ms), "ms");
        }
        rep.metric("setup_s", setup_s, "s");
        rep.metric("op_ms", op_ms(&acc), "ms");
        return Ok(());
    }

    let mut plain: [Acc; 3] = Default::default();
    // One span store per kernel, so every kernel keeps its spans.
    let mut traces: [Trace; 3] = std::array::from_fn(|_| Trace::new(crate::TRACE_CAP));
    let slice = opts.seconds / (2 * crate::TRACE_SLICES) as f64;
    let (stats0, wakes0) = (st.server.stats(), st.server.wake_events());
    for _ in 0..crate::TRACE_SLICES {
        measure(&st, slice, &mut plain, rep, None);
        measure(&st, slice, &mut acc, rep, Some(&mut traces));
    }
    let d = st.server.stats().delta(&stats0);
    let wakes = st.server.wake_events() - wakes0;
    let jobs = instances(&acc) + instances(&plain);
    println!("{}", auto_line(&st, &acc));

    let mut all = Acc::default();
    for (k, l) in LOOPS.into_iter().enumerate() {
        let a = &acc[k];
        for (metric, value, unit) in loop_figures(a) {
            rep.detail(format!("{metric}.{}", l.name()), value, unit);
        }
        all.ms.extend_from_slice(&a.ms);
        all.submit_ns.extend_from_slice(&a.submit_ns);
        all.chunks += a.chunks;
        all.iterations += a.iterations;
        all.claimed_local += a.claimed_local;
        all.range_steals += a.range_steals;
        all.rebalances += a.rebalances;
        all.migrated += a.migrated;
    }
    for (metric, value, unit) in loop_figures(&all) {
        rep.metric(metric, value, unit);
    }
    let mut explored = 0;
    for (k, l) in LOOPS.into_iter().enumerate().take(2) {
        let n = acc[k].explored + plain[k].explored;
        explored += n;
        rep.detail(
            format!("core.loops.auto_reports_to_converge.{}", l.name()),
            f64::from(to_converge[k]),
            "count",
        );
        rep.detail(
            format!("core.loops.auto_explored_while_measuring.{}", l.name()),
            n as f64,
            "count",
        );
    }
    rep.metric(
        "core.loops.auto_reports_to_converge",
        f64::from(to_converge[0] + to_converge[1]),
        "count",
    );
    rep.metric(
        "core.loops.auto_explored_while_measuring",
        explored as f64,
        "count",
    );
    rep.metric(
        "service.server.submit_ns.p50",
        percentile(&all.submit_ns, 50.0),
        "ns",
    );
    rep.metric(
        "service.server.submit_ns.p99",
        percentile(&all.submit_ns, 99.0),
        "ns",
    );
    rep.metric(
        "xqueue.parker.parks_per_kjob",
        1e3 * ratio(d.parks, jobs),
        "count/kjob",
    );
    rep.metric(
        "xqueue.parker.wakes_per_kjob",
        1e3 * ratio(wakes, jobs),
        "count/kjob",
    );
    rep.metric("service.controller.retunes", d.retunes as f64, "count");
    let [spmv_ms, tri_ms] = st.seq_ms;
    rep.detail("bots.spmv.seq_ms", spmv_ms, "ms");
    rep.detail("bots.tri.seq_ms", tri_ms, "ms");
    rep.metric("bots.seq_ms", geomean(&[spmv_ms, tri_ms, spmv_ms]), "ms");
    rep.metric(
        "bench.trace_overhead_frac",
        op_ms(&acc) / op_ms(&plain) - 1.0,
        "ratio",
    );
    for (l, trace) in LOOPS.into_iter().zip(&traces) {
        crate::write_trace(opts, l.name(), trace);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_kernels_and_checksums() {
        let (a, b) = (Inputs::new(5), Inputs::new(5));
        assert_eq!(a.references().0, b.references().0);
        assert_eq!(a.spmv.nnz(), b.spmv.nnz());
    }

    #[test]
    fn another_seed_changes_the_checksums() {
        let (a, b) = (Inputs::new(5), Inputs::new(6));
        let (ra, rb) = (a.references().0, b.references().0);
        assert_ne!(ra[0], rb[0]);
        assert_ne!(ra[1], rb[1]);
    }
}
