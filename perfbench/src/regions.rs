//! `regions`: the paper's own workload. Repeated `Runtime::parallel`
//! regions on XGOMPTB + NA-WS, called from the main thread on its
//! default stack. Each round runs Fib (finest grain: scheduler and
//! barrier), UTS (unbalanced: DLB-bound) and Sort (coarse, few large tasks:
//! the control that scheduler or DLB changes should leave flat).
//!
//! Fib is sized for region length and steadiness, not depth: deeper Fib
//! (`fib(26)` on 2 workers) aborts today with a stack overflow on the
//! calling thread's default stack, and the benchmark does not hide that
//! by moving regions to a big-stack thread.

use std::time::Instant;

use xgomp::bots::rng::mix64;
use xgomp::bots::uts::UtsParams;
use xgomp::bots::{fib, sort, uts};
use xgomp::{
    DlbConfig, DlbStrategy, Runtime, RuntimeConfig, StatsSnapshot, TaskCtx, TeamStats, TraceLevel,
};

use crate::measure::{geomean, median, ms, percentile, ratio, us, Report, Trace};
use crate::Opts;

/// Fib input: ~21 ms regions on 2 workers, steady across processes.
pub const FIB_N: u64 = 23;
/// UTS: many root children with a moderate branching factor, so the
/// node count (and with it the makespan) varies little from seed to
/// seed while each subtree stays unbalanced.
const UTS_ROOT_CHILDREN: u32 = 1 << 15;
const UTS_Q_PERMILLE: u32 = 180;
const UTS_M: u32 = 4;
const UTS_MAX_DEPTH: u32 = 200;
/// Sort: 64 Ki `u32` with the BOTS cut-offs — still coarse (32 leaf
/// sorts), and small enough that data and merge buffer (512 KiB) stay in
/// one core's 2 MiB L2 on a 2-vCPU virtual machine: at 1 Mi, and still
/// at 256 Ki, the makespan followed other tenants' memory traffic (up to
/// +60% for minutes at a time) instead of the runtime.
const SORT_LEN: usize = 1 << 16;
const SORT_CUTOFF: usize = 2_048;
const MERGE_CUTOFF: usize = 4_096;

const APPS: [&str; 3] = ["fib", "uts", "sort"];

/// The runtime every region runs on; every knob the results depend on
/// is set here rather than left to defaults or the environment.
pub fn runtime_config(workers: usize) -> RuntimeConfig {
    RuntimeConfig::xgomptb(workers)
        .dlb(DlbConfig::new(DlbStrategy::WorkSteal))
        .park_idle(true)
        .profiling(false)
        .trace(TraceLevel::Off)
}

/// Inputs generated from the workload seed.
pub struct Inputs {
    pub uts: UtsParams,
    pub sort: Vec<u32>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        Inputs {
            uts: UtsParams {
                root_children: UTS_ROOT_CHILDREN,
                q_permille: UTS_Q_PERMILLE,
                m: UTS_M,
                max_depth: UTS_MAX_DEPTH,
                seed: mix64(seed),
            },
            sort: sort::gen_input(SORT_LEN, seed),
        }
    }
}

/// Sequential references every region is checked against, and how long
/// a plain single-threaded run of each kernel took.
pub struct Refs {
    pub fib: u64,
    pub uts: u64,
    pub sort: u64,
    pub seq_ms: [f64; 3],
}

impl Refs {
    pub fn new(inputs: &Inputs) -> Self {
        let t = Instant::now();
        let fib = fib::seq(std::hint::black_box(FIB_N));
        let fib_ms = ms(t.elapsed());
        let t = Instant::now();
        let uts = uts::seq(&inputs.uts);
        let uts_ms = ms(t.elapsed());
        let mut data = inputs.sort.clone();
        let t = Instant::now();
        sort::seq(&mut data);
        let sort_ms = ms(t.elapsed());
        Refs {
            fib,
            uts,
            sort: sort::digest(&data),
            seq_ms: [fib_ms, uts_ms, sort_ms],
        }
    }
}

struct State {
    rt: Runtime,
    inputs: Inputs,
    refs: Refs,
}

fn setup(opts: &Opts) -> Result<State, String> {
    let rt = Runtime::new(runtime_config(opts.workers));
    let inputs = Inputs::new(opts.seed);
    let refs = Refs::new(&inputs);
    let st = State { rt, inputs, refs };
    // Warm-up: one round, checked like any other.
    let mut scratch = Report::default();
    round(&st, &mut Acc::default(), &mut scratch, None);
    match scratch.errors.first() {
        Some(e) => Err(format!("warm-up: {e}")),
        None => Ok(st),
    }
}

/// Per-app samples of one measuring pass.
#[derive(Default)]
struct AppAcc {
    makespan_ms: Vec<f64>,
    entry_us: Vec<f64>,
    exit_us: Vec<f64>,
    stats: StatsSnapshot,
}

#[derive(Default)]
struct Acc {
    apps: [AppAcc; 3],
    regions: u64,
}

/// Runs one region of app `a`, timing the `parallel` call and (traced)
/// the closure's first and last statements.
fn region<R>(
    st: &State,
    acc: &mut Acc,
    a: usize,
    trace: Option<&mut Trace>,
    body: impl FnOnce(&TaskCtx<'_>) -> R,
) -> (R, TeamStats) {
    let traced = trace.is_some();
    let t0 = Instant::now();
    let out = st.rt.parallel(|ctx| {
        let b0 = traced.then(Instant::now);
        let r = body(ctx);
        (r, b0.map(|b0| (b0, Instant::now())))
    });
    let t1 = Instant::now();
    acc.regions += 1;
    let app = &mut acc.apps[a];
    app.makespan_ms.push(ms(t1 - t0));
    app.stats.add(&out.stats.total());
    let (result, body_span) = out.result;
    if let (Some(trace), Some((b0, b1))) = (trace, body_span) {
        app.entry_us.push(us(b0 - t0));
        app.exit_us.push(us(t1 - b1));
        let id = acc.regions;
        let parent = trace.span(region_span(a), id, None, t0, t1);
        trace.span("region.body", id, parent, b0, b1);
    }
    (result, out.stats)
}

fn region_span(a: usize) -> &'static str {
    ["region.fib", "region.uts", "region.sort"][a]
}

/// One round: a Fib, a UTS and a Sort region, each checked against its
/// sequential reference and the §V counter invariants.
fn round(st: &State, acc: &mut Acc, rep: &mut Report, mut trace: Option<&mut Trace>) {
    let (n, stats) = region(st, acc, 0, trace.as_deref_mut(), |ctx| fib::par(ctx, FIB_N));
    check_region(rep, "fib", &stats, n == st.refs.fib);

    let p = st.inputs.uts;
    let (n, stats) = region(st, acc, 1, trace.as_deref_mut(), |ctx| uts::par(ctx, &p));
    check_region(rep, "uts", &stats, n == st.refs.uts);

    let mut data = st.inputs.sort.clone();
    let ((), stats) = region(st, acc, 2, trace, |ctx| {
        sort::par(ctx, &mut data, SORT_CUTOFF, MERGE_CUTOFF)
    });
    check_region(rep, "sort", &stats, sort::digest(&data) == st.refs.sort);
}

fn check_region(rep: &mut Report, app: &str, stats: &TeamStats, result_ok: bool) {
    rep.attempted += 1;
    rep.check(result_ok, || {
        format!("{app}: region result differs from the sequential reference")
    });
    let t = stats.total();
    rep.check(t.tasks_created == t.tasks_executed, || {
        format!(
            "{app}: created {} tasks, executed {}",
            t.tasks_created, t.tasks_executed
        )
    });
    if let Err(e) = stats.check_invariants() {
        rep.errors.push(format!("{app}: {e}"));
    }
}

fn measure(st: &State, secs: f64, acc: &mut Acc, rep: &mut Report, mut trace: Option<&mut Trace>) {
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(secs);
    while Instant::now() < deadline && rep.correct() {
        round(st, acc, rep, trace.as_deref_mut());
    }
}

/// Geometric mean of the per-app median makespans: the run's `op_ms`,
/// and the figure the traced and the untraced pass are compared on.
fn op_ms(acc: &Acc) -> f64 {
    let medians: Vec<f64> = acc.apps.iter().map(|a| median(&a.makespan_ms)).collect();
    geomean(&medians)
}

/// The §V scheduler and DLB figures of `s`; counts are per thousand
/// tasks executed.
fn sched_dlb(s: &StatsSnapshot) -> [(&'static str, f64, &'static str); 9] {
    let per_ktask = |n| 1e3 * ratio(n, s.tasks_executed);
    [
        (
            "core.sched.imm_exec_frac",
            ratio(s.ntasks_imm_exec, s.tasks_created),
            "ratio",
        ),
        (
            "core.sched.self_frac",
            ratio(s.ntasks_self, s.tasks_executed),
            "ratio",
        ),
        ("core.dlb.req_sent", per_ktask(s.nreq_sent), "count/ktask"),
        (
            "core.dlb.req_handled",
            per_ktask(s.nreq_handled),
            "count/ktask",
        ),
        (
            "core.dlb.steal_hit_frac",
            ratio(s.nreq_has_steal, s.nreq_handled),
            "ratio",
        ),
        (
            "core.dlb.src_empty_frac",
            ratio(s.nreq_src_empty, s.nreq_handled),
            "ratio",
        ),
        (
            "core.dlb.target_full",
            per_ktask(s.nreq_target_full),
            "count/ktask",
        ),
        (
            "core.dlb.stolen_per_ktask",
            per_ktask(s.ntasks_stolen),
            "count/ktask",
        ),
        (
            "core.dlb.remote_exec_frac",
            ratio(s.ntasks_remote, s.tasks_executed),
            "ratio",
        ),
    ]
}

pub fn run(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let (st, setup_s) = crate::measure::repeat_setup(crate::SETUPS, || setup(opts))?;
    let mut acc = Acc::default();
    if !opts.trace {
        measure(&st, opts.seconds, &mut acc, rep, None);
        rep.metric("setup_s", setup_s, "s");
        rep.metric("op_ms", op_ms(&acc), "ms");
        for (a, name) in APPS.iter().enumerate() {
            rep.detail(format!("{name}_ms"), median(&acc.apps[a].makespan_ms), "ms");
        }
        return Ok(());
    }

    let mut plain = Acc::default();
    let mut trace = Trace::new(crate::TRACE_CAP);
    let slice = opts.seconds / (2 * crate::TRACE_SLICES) as f64;
    for _ in 0..crate::TRACE_SLICES {
        measure(&st, slice, &mut plain, rep, None);
        measure(&st, slice, &mut acc, rep, Some(&mut trace));
    }
    let mut total = StatsSnapshot::default();
    let (mut entry_us, mut exit_us) = (Vec::new(), Vec::new());
    for (a, name) in APPS.iter().enumerate() {
        let app = &acc.apps[a];
        total.add(&app.stats);
        entry_us.extend_from_slice(&app.entry_us);
        exit_us.extend_from_slice(&app.exit_us);
        rep.detail(
            format!("core.team.entry_us.p50.{name}"),
            percentile(&app.entry_us, 50.0),
            "us",
        );
        rep.detail(
            format!("core.barrier.exit_us.p50.{name}"),
            percentile(&app.exit_us, 50.0),
            "us",
        );
        for (metric, value, unit) in sched_dlb(&app.stats) {
            rep.detail(format!("{metric}.{name}"), value, unit);
        }
        rep.detail(format!("bots.{name}.seq_ms"), st.refs.seq_ms[a], "ms");
    }
    rep.metric("core.team.entry_us.p50", percentile(&entry_us, 50.0), "us");
    rep.metric("core.barrier.exit_us.p50", percentile(&exit_us, 50.0), "us");
    for (metric, value, unit) in sched_dlb(&total) {
        rep.metric(metric, value, unit);
    }
    rep.metric("bots.seq_ms", geomean(&st.refs.seq_ms), "ms");
    rep.metric(
        "bench.trace_overhead_frac",
        op_ms(&acc) / op_ms(&plain) - 1.0,
        "ratio",
    );
    crate::write_trace(opts, "regions", &trace);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xgomp::bots::rng::Digest;

    fn digest(inputs: &Inputs) -> u64 {
        let mut d = Digest::default();
        d.absorb(inputs.uts.seed);
        for &v in &inputs.sort {
            d.absorb(u64::from(v));
        }
        d.value()
    }

    #[test]
    fn same_seed_same_inputs_and_references() {
        let (a, b) = (Inputs::new(7), Inputs::new(7));
        assert_eq!(digest(&a), digest(&b));
        let (ra, rb) = (Refs::new(&a), Refs::new(&b));
        assert_eq!((ra.fib, ra.uts, ra.sort), (rb.fib, rb.uts, rb.sort));
    }

    #[test]
    fn another_seed_changes_inputs_and_references() {
        let (a, b) = (Inputs::new(7), Inputs::new(8));
        assert_ne!(digest(&a), digest(&b));
        let (ra, rb) = (Refs::new(&a), Refs::new(&b));
        assert_ne!(ra.uts, rb.uts);
        assert_ne!(ra.sort, rb.sort);
        // Fib takes no seed.
        assert_eq!(ra.fib, rb.fib);
    }
}
