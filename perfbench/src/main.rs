//! The xgomp benchmark: one workload a run, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <regions|serve|loops> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every input is generated from `--seed`; every output is checked. The
//! last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! Every workload reports the same metrics, those of `BENCHMARK.json`:
//! with `--trace 0` the [`END_TO_END`] ones, with `--trace 1` the
//! [`PER_LAYER`] ones (measured around the public calls into each layer,
//! with spans written to `.bench_out/`). The line before the result,
//! `{"detail": {..}}`, breaks the figures down per kernel or phase. An
//! untraced run measures in `PROCS` child processes of its own, one
//! after the other (see [`PROCS`]); a traced run measures in-process.
//! The first line records the host: `nproc`, the NUMA zones the runtime
//! fits the team into, and the git revision when one is available. A
//! wrong output makes the run exit with status 1.

mod loops;
mod measure;
mod regions;
mod serve;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use measure::{Report, Trace};
use xgomp::MachineTopology;

/// Spans kept in memory per trace (the rest are counted as dropped). A
/// traced run keeps one trace per phase or kernel, so a busy phase
/// cannot crowd the others out.
pub const TRACE_CAP: usize = 50_000;
/// A traced run alternates this many untraced and traced slices, so the
/// trace overhead is measured under the same host conditions.
pub const TRACE_SLICES: usize = 5;
/// Set-ups per process; its `setup_s` is their median.
pub const SETUPS: usize = 3;
/// An untraced run is split over this many child processes run one
/// after the other, each measuring `seconds / PROCS`. The makespans of
/// one process sit in a mode of their own (fib 20–25 ms and UTS
/// 40–57 ms across processes on one seed and a 2-vCPU host, steady
/// within each), so a single process would set the run's figures. Each
/// metric is the mean of the children's values without the lowest and
/// highest, so one child caught in a burst of host noise does not set
/// it either.
pub const PROCS: usize = 10;

/// The end-to-end metrics of `BENCHMARK.json`, in its order. Every
/// untraced run reports each of them:
///
/// * `setup_s` — median time of the workload's set-up;
/// * `op_ms` — geometric mean, over the workload's kinds of operation,
///   of the median wall time of one operation, so each kind weighs the
///   same whatever its length. A median, not a mean: a burst of host
///   steal stalls a few operations and leaves the median in place (on
///   a 2-vCPU virtual machine, a mean-based operations-per-second
///   figure moved by a third between runs while it held).
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("op_ms", "ms")];

/// The per-layer metrics of `BENCHMARK.json`, in its order. Every traced
/// run reports each of them; one of a layer the workload does not reach
/// (the loop layer in `regions`, say) reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.team.entry_us.p50", "us"),
    ("core.barrier.exit_us.p50", "us"),
    ("core.sched.imm_exec_frac", "ratio"),
    ("core.sched.self_frac", "ratio"),
    ("core.sched.spawn_ns.p50", "ns"),
    ("core.sched.spawn_to_start_us.p50", "us"),
    ("core.sched.spawn_to_start_us.p99", "us"),
    ("core.dlb.req_sent", "count/ktask"),
    ("core.dlb.req_handled", "count/ktask"),
    ("core.dlb.steal_hit_frac", "ratio"),
    ("core.dlb.src_empty_frac", "ratio"),
    ("core.dlb.target_full", "count/ktask"),
    ("core.dlb.stolen_per_ktask", "count/ktask"),
    ("core.dlb.remote_exec_frac", "ratio"),
    ("core.loops.chunks", "count/loop"),
    ("core.loops.iters_per_chunk", "iters/chunk"),
    ("core.loops.claim_local_frac", "ratio"),
    ("core.loops.range_steals", "count/loop"),
    ("core.loops.rebalances", "count/loop"),
    ("core.loops.migrated_iters", "iters/loop"),
    ("core.loops.auto_reports_to_converge", "count"),
    ("core.loops.auto_explored_while_measuring", "count"),
    ("service.server.submit_ns.p50", "ns"),
    ("service.server.submit_ns.p99", "ns"),
    ("service.server.refused", "count"),
    ("service.ingress.queued_us.p50", "us"),
    ("service.ingress.queued_us.p99", "us"),
    ("service.handle.run_us.p50", "us"),
    ("service.handle.join_wake_us.p50", "us"),
    ("service.handle.join_wake_us.p99", "us"),
    ("xqueue.parker.parks_per_kjob", "count/kjob"),
    ("xqueue.parker.wakes_per_kjob", "count/kjob"),
    ("xqueue.parker.parks_per_kjob.lo", "count/kjob"),
    ("xqueue.parker.wakes_per_kjob.lo", "count/kjob"),
    ("service.controller.retunes", "count"),
    ("lo_p50_us", "us"),
    ("lo_p99_us", "us"),
    ("hi_p50_us", "us"),
    ("hi_p99_us", "us"),
    ("bots.seq_ms", "ms"),
    ("bench.gen_late_us.p99", "us"),
    ("bench.trace_overhead_frac", "ratio"),
];

/// Command-line options shared by every workload.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set in the child processes of an untraced run: measure in this
    /// process and hand the report to the parent.
    pub child: bool,
    /// Team size: one worker per available core.
    pub workers: usize,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        child: false,
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" | "--child" => {
                let on = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                };
                if flag == "--trace" {
                    opts.trace = on;
                } else {
                    opts.child = on;
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !(opts.seconds > 0.0 && opts.seconds <= 120.0) {
        return Err(format!("--seconds {} is outside (0, 120]", opts.seconds));
    }
    Ok(opts)
}

/// The checkout's git revision, read from `.git` without running git;
/// `"unknown"` outside a repository.
fn git_rev() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(Path::new(".git/HEAD")) else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&Path::new(".git").join(name))
        .or_else(|| {
            read(Path::new(".git/packed-refs"))?
                .lines()
                .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Where a traced run writes the spans of one phase or kernel.
fn trace_path(opts: &Opts, part: &str) -> PathBuf {
    PathBuf::from(".bench_out").join(format!(
        "{}-seed{}.{part}.spans.jsonl",
        opts.workload, opts.seed
    ))
}

/// Writes the spans of one phase or kernel of a traced run; a failed
/// write is reported on stderr and does not fail the run.
pub fn write_trace(opts: &Opts, part: &str, trace: &Trace) {
    let path = trace_path(opts, part);
    match trace.write(&path) {
        Ok(()) => eprintln!("spans: {} ({} kept)", path.display(), trace.spans().len()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
}

/// Runs an untraced measurement as `PROCS` child processes of this
/// program, one after the other, and folds their reports into `rep`.
/// Their other output lines are passed on.
fn run_children(opts: &Opts, rep: &mut Report) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let seconds = (opts.seconds / PROCS as f64).to_string();
    let seed = opts.seed.to_string();
    let mut children = Vec::with_capacity(PROCS);
    for k in 0..PROCS {
        let out = Command::new(&exe)
            .args(["--workload", &opts.workload, "--seed", &seed])
            .args(["--seconds", &seconds, "--trace", "0", "--child", "1"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("child {k}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let child = Report::decode(last)
            .ok_or_else(|| format!("child {k} ({}) gave no report", out.status))?;
        children.push(child);
    }
    rep.fold(&children);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run = match opts.workload.as_str() {
        "regions" => regions::run,
        "serve" => serve::run,
        "loops" => loops::run,
        w => {
            eprintln!("perfbench: unknown workload {w:?} (regions, serve, loops)");
            return ExitCode::from(2);
        }
    };

    if !opts.child {
        let topo = MachineTopology::fit_workers(opts.workers);
        println!(
            "{{\"host\": {{\"nproc\": {}, \"zones\": {}, \"workers_per_zone\": {}, \"git_rev\": \"{}\"}}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
            opts.workers,
            topo.zones(),
            topo.cores_per_socket(),
            git_rev(),
            opts.workload,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace)
        );
    }

    let mut rep = Report::default();
    let res = if opts.trace || opts.child {
        run(&opts, &mut rep)
    } else {
        run_children(&opts, &mut rep)
    };
    if let Err(e) = res {
        rep.errors.push(e);
    }
    let details = match (opts.child, opts.trace) {
        // The parent conforms the folded report.
        (true, _) => Vec::new(),
        (false, true) => rep.conform(PER_LAYER, true),
        (false, false) => rep.conform(END_TO_END, false),
    };
    for e in &rep.errors {
        eprintln!("perfbench: WRONG OUTPUT: {e}");
    }
    if opts.child {
        // The parent judges the report; the exit status stays 0.
        println!("{}", rep.encode());
        return ExitCode::SUCCESS;
    }
    for m in details.iter().chain(&rep.metrics) {
        eprintln!("{:<44} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{{\"detail\": {}}}", measure::metrics_json(&details));
    println!("{}", rep.to_json());
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = parse_args(&args("--workload serve --seed 42 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("serve", 42, 10.0, true)
        );
        assert!(!o.child);
        assert!(parse_args(&args("--child 1")).unwrap().child);
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }

    /// `"name": "<n>", "unit": "<u>"` entries of one list of the manifest.
    fn manifest_list(manifest: &str, key: &str) -> Vec<(String, String)> {
        let start = manifest
            .find(&format!("\"{key}\""))
            .expect("list in manifest");
        let list = &manifest[start..];
        let list = &list[..list.find(']').expect("list ends")];
        list.split("\"name\": \"")
            .skip(1)
            .map(|e| {
                let name = e.split('"').next().unwrap().to_string();
                let unit = e.split("\"unit\": \"").nth(1).unwrap();
                (name, unit.split('"').next().unwrap().to_string())
            })
            .collect()
    }

    #[test]
    fn the_manifest_lists_exactly_the_reported_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let manifest = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (key, code) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let code: Vec<(String, String)> = code
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(manifest_list(&manifest, key), code, "{key}");
        }
    }
}
