//! Measurement primitives shared by every workload: percentile picking,
//! the result report and its JSON line, and the in-memory span trace
//! with per-span self time.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`p` in `0..=100`) of `samples`. Infinite
/// samples (refused or failed jobs) sort above every finite one, so they
/// can only push a percentile up. Empty input gives `0.0`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (the nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or `0.0` when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Microseconds in a duration, as a float.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Mean of `samples` without their lowest and highest value (when there
/// are at least three), so one outlier cannot move it.
pub fn trimmed_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let kept = if sorted.len() >= 3 {
        &sorted[1..sorted.len() - 1]
    } else {
        &sorted[..]
    };
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Geometric mean of `values`: a change of x% in any one of them moves
/// it by the same share whatever that value's size. Empty input gives
/// `0.0`.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Runs `setup` `times` times and keeps the last state; returns it with
/// the median set-up time in seconds. Earlier states are dropped (and so
/// torn down) before the next set-up starts.
pub fn repeat_setup<S>(
    times: usize,
    mut setup: impl FnMut() -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut secs = Vec::with_capacity(times);
    let mut state = None;
    for _ in 0..times.max(1) {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(setup()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up ran"), median(&secs)))
}

/// One named metric of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What one benchmark run reports: operations attempted and failed,
/// whether every checked output was right, and the metrics.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong outputs, in the order found; any entry fails the run.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric. A NaN value (a ratio over nothing measured) is a
    /// wrong output, not a number to report.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.check(!value.is_nan(), || format!("metric {name} is NaN"));
        self.metrics.push(Metric {
            name,
            value,
            unit: unit.to_string(),
        });
    }

    /// Adds a detail figure: reported on its own line before the result,
    /// folded over child processes like a metric, and not part of the
    /// manifest.
    pub fn detail(&mut self, name: impl std::fmt::Display, value: f64, unit: &'static str) {
        self.metric(format!("{DETAIL}{name}"), value, unit);
    }

    /// Brings the metrics into the manifest's list `want` (name, unit),
    /// in its order, and moves detail figures out of them. A metric
    /// missing from `want` or in the wrong unit is a wrong output. A
    /// wanted metric the workload did not report reads `0.0` when
    /// `unreached_is_zero` (a layer the workload does not reach) and is
    /// a wrong output otherwise.
    pub fn conform(&mut self, want: &[(&str, &str)], unreached_is_zero: bool) -> Vec<Metric> {
        let mut have = std::mem::take(&mut self.metrics);
        let mut details = Vec::new();
        have.retain(|m| match m.name.strip_prefix(DETAIL) {
            Some(name) => {
                details.push(Metric {
                    name: name.to_string(),
                    ..m.clone()
                });
                false
            }
            None => true,
        });
        for &(name, unit) in want {
            match have.iter().position(|m| m.name == name) {
                Some(i) => {
                    let m = have.remove(i);
                    self.check(m.unit == unit, || {
                        format!("metric {name} in {}, the manifest says {unit}", m.unit)
                    });
                    self.metrics.push(m);
                }
                None if unreached_is_zero => self.metrics.push(Metric {
                    name: name.to_string(),
                    value: 0.0,
                    unit: unit.to_string(),
                }),
                None => self.errors.push(format!("metric {name} was not measured")),
            }
        }
        for m in have {
            self.errors
                .push(format!("metric {} is not in the manifest", m.name));
        }
        details
    }

    /// Records a wrong output unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }

    /// The report as one line of whitespace-separated fields, for a child
    /// process to hand to its parent: `correct attempted failed` and then
    /// `name unit value` per metric (values in full precision).
    pub fn encode(&self) -> String {
        let mut s = format!(
            "{} {} {}",
            u8::from(self.correct()),
            self.attempted,
            self.failed
        );
        for m in &self.metrics {
            let _ = write!(s, " {} {} {}", m.name, m.unit, m.value);
        }
        s
    }

    /// Parses [`Report::encode`]'s line; a report that was not correct
    /// comes back with one error (the child printed its own).
    pub fn decode(line: &str) -> Option<Report> {
        let mut f = line.split_whitespace();
        let correct = f.next()? == "1";
        let attempted = f.next()?.parse().ok()?;
        let failed = f.next()?.parse().ok()?;
        let fields: Vec<&str> = f.collect();
        if !fields.len().is_multiple_of(3) {
            return None;
        }
        let metrics = fields
            .chunks(3)
            .map(|m| {
                Some(Metric {
                    name: m[0].to_string(),
                    unit: m[1].to_string(),
                    value: m[2].parse().ok()?,
                })
            })
            .collect::<Option<_>>()?;
        Some(Report {
            attempted,
            failed,
            errors: if correct {
                Vec::new()
            } else {
                vec!["a child process found a wrong output".into()]
            },
            metrics,
        })
    }

    /// Folds the reports of several child processes into this one:
    /// operations and errors add up, and each metric becomes the
    /// [`trimmed_mean`] of the children's values.
    pub fn fold(&mut self, children: &[Report]) {
        for c in children {
            self.attempted += c.attempted;
            self.failed += c.failed;
            self.errors.extend(c.errors.iter().cloned());
        }
        let Some(first) = children.first() else {
            return;
        };
        for m in &first.metrics {
            let values: Vec<f64> = children
                .iter()
                .filter_map(|c| c.metrics.iter().find(|n| n.name == m.name))
                .map(|n| n.value)
                .collect();
            self.check(values.len() == children.len(), || {
                format!("metric {} missing from a child's report", m.name)
            });
            self.metrics.push(Metric {
                value: trimmed_mean(&values),
                ..m.clone()
            });
        }
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.metrics)
        )
    }
}

/// Prefix that marks a detail figure among a report's metrics.
const DETAIL: &str = "detail:";

/// `metrics` as one JSON object: `{"name": {"value": .., "unit": ..}, ..}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut s = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push('}');
    s
}

/// A JSON number for `v`. JSON has no infinity: a percentile that landed
/// on a refused job (infinitely late) is written as the largest finite
/// double, which no real latency reaches.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "1.7976931348623157e308".to_string()
    }
}

/// One timed interval of the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Shared by the spans of one job (its `JobHandle::job_id`) or one
    /// region (the benchmark's region counter).
    pub id: u64,
    /// Index of the parent span in the trace, if any.
    pub parent: Option<usize>,
    /// Nanoseconds since the trace's epoch.
    pub start: u64,
    pub end: u64,
}

/// In-memory span store of a traced run, written out when the run ends.
/// Stores at most `cap` spans; later spans are counted as dropped so a
/// long traced run cannot exhaust memory.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    cap: usize,
    spans: Vec<Span>,
    dropped: u64,
}

impl Trace {
    pub fn new(cap: usize) -> Self {
        Trace {
            epoch: Instant::now(),
            cap,
            spans: Vec::with_capacity(cap.min(1 << 16)),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span from `start` to `end`; returns its index, which
    /// children pass as their parent (`None` once the store is full).
    pub fn span(
        &mut self,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            id,
            parent,
            start,
            end: end.max(start),
        });
        Some(self.spans.len() - 1)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (overlapping children are counted once, and a
    /// child sticking out of its parent only counts inside it).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Writes every stored span, one JSON object a line, with its self
    /// time; the last line counts the spans that did not fit.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {i}, \"name\": \"{}\", \"id\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                s.name, s.id, s.start, s.end
            )?;
        }
        writeln!(out, "{{\"dropped\": {}}}", self.dropped)?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&[], 99.0), 0.0);
    }

    #[test]
    fn refused_jobs_count_as_infinitely_late() {
        // 98 fast jobs and 2 refusals: p99 lands on a refusal, p50 does not.
        let mut v = vec![10.0; 98];
        v.extend([f64::INFINITY, f64::INFINITY]);
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 99.0), f64::INFINITY);
        // Refusing the slow jobs instead of serving them cannot help.
        let mut served = vec![10.0; 98];
        served.extend([500.0, 500.0]);
        assert!(percentile(&v, 99.0) > percentile(&served, 99.0));
        assert_eq!(json_number(f64::INFINITY), "1.7976931348623157e308");
    }

    #[test]
    fn report_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("fib_ms", 1.25, "ms");
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"fib_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
        r.check(false, || "wrong digest".into());
        assert!(!r.correct());
    }

    #[test]
    fn a_nan_metric_is_a_wrong_output() {
        let mut r = Report::default();
        r.metric("bench.trace_overhead_frac.serve", f64::NAN, "ratio");
        assert!(!r.correct());
    }

    #[test]
    fn geomean_weighs_every_value_alike() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // 10% slower in the small value or in the large one: same move.
        let base = geomean(&[3.0, 45.0]);
        let small = geomean(&[3.3, 45.0]) / base;
        let large = geomean(&[3.0, 49.5]) / base;
        assert!((small - large).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn conform_orders_fills_and_rejects() {
        let want = [("op_ms", "ms"), ("setup_s", "s")];
        let mut r = Report::default();
        r.metric("setup_s", 0.5, "s");
        r.detail("fib_ms", 21.0, "ms");
        r.metric("op_ms", 2.0, "ms");
        let details = r.conform(&want, false);
        assert!(r.correct());
        let names: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["op_ms", "setup_s"]);
        assert_eq!(details[0].name, "fib_ms");
        assert_eq!(
            metrics_json(&details),
            "{\"fib_ms\": {\"value\": 21, \"unit\": \"ms\"}}"
        );

        // An unreached layer reads 0 only where that is allowed.
        let mut r = Report::default();
        r.metric("op_ms", 2.0, "ms");
        r.conform(&want, true);
        assert!(r.correct());
        assert_eq!(r.metrics[1].value, 0.0);
        let mut r = Report::default();
        r.metric("op_ms", 2.0, "ms");
        r.conform(&want, false);
        assert!(!r.correct());

        // A metric outside the manifest, or in another unit, is wrong.
        let mut r = Report::default();
        r.metric("op_ms", 2.0, "us");
        r.metric("setup_s", 0.5, "s");
        r.conform(&want, false);
        assert!(!r.correct());
        let mut r = Report::default();
        r.metric("opms", 2.0, "ms");
        r.conform(&want, true);
        assert!(!r.correct());
    }

    #[test]
    fn trimmed_mean_drops_one_outlier_each_side() {
        assert_eq!(trimmed_mean(&[21.0, 25.0, 90.0, 22.0, 1.0]), 68.0 / 3.0);
        assert_eq!(trimmed_mean(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn child_reports_round_trip_and_fold() {
        let child = |v: f64, ok: bool| {
            let mut r = Report {
                attempted: 10,
                failed: 1,
                ..Report::default()
            };
            r.metric("fib_ms", v, "ms");
            r.metric("burst_jobs_per_s", 1e6 / 3.0, "1/s");
            r.check(ok, || "wrong".into());
            Report::decode(&r.encode()).expect("a report decodes")
        };
        let c = child(21.123456789, true);
        assert_eq!(c.metrics[0].value, 21.123456789);
        assert_eq!(c.metrics[1].value, 1e6 / 3.0);
        assert_eq!(c.metrics[1].unit, "1/s");
        assert!(c.correct());
        assert!(Report::decode("1 3").is_none());
        assert!(Report::decode("1 3 0 fib_ms ms").is_none());

        let mut r = Report::default();
        r.fold(&[child(20.0, true), child(30.0, true), child(22.0, true)]);
        assert_eq!((r.attempted, r.failed), (30, 3));
        assert_eq!(r.metrics[0].value, 22.0);
        assert!(r.correct());
        let mut r = Report::default();
        r.fold(&[child(20.0, true), child(22.0, false)]);
        assert!(!r.correct());
    }

    fn at(t: &Trace, ns: u64) -> Instant {
        t.epoch + Duration::from_nanos(ns)
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new(16);
        let root = t.span("job", 1, None, at(&t, 0), at(&t, 100));
        // Two overlapping children cover 10..50 once (40 ns).
        t.span("submit", 1, root, at(&t, 10), at(&t, 30));
        t.span("queued", 1, root, at(&t, 20), at(&t, 50));
        // A child running past its parent counts only up to 100.
        let run = t.span("run", 1, root, at(&t, 90), at(&t, 120));
        t.span("leaf", 1, run, at(&t, 95), at(&t, 100));
        assert_eq!(t.self_times(), vec![100 - 40 - 10, 20, 30, 25, 5]);
    }

    #[test]
    fn full_trace_drops_instead_of_growing() {
        let mut t = Trace::new(1);
        assert_eq!(t.span("a", 0, None, at(&t, 0), at(&t, 1)), Some(0));
        assert_eq!(t.span("b", 0, Some(0), at(&t, 0), at(&t, 1)), None);
        assert_eq!(t.spans().len(), 1);
        assert_eq!(t.dropped, 1);
    }
}
