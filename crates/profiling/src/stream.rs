//! Rolling on-disk trace stream: the continuous half of the flight
//! recorder.
//!
//! [`Tracer::snapshot`](crate::Tracer::snapshot) is point-in-time — it
//! answers "what just happened" at a panic or an explicit call. This
//! module streams instead: a [`TraceStream`] owns one private
//! [`RingCursor`] per worker ring and, on every
//! [`drain_cycle`](TraceStream::drain_cycle), tails whatever the rings
//! accumulated since the last cycle into an append-only **JSONL
//! segment** on disk, rotating by size or age
//! (`trace-<epoch>-<seq>.jsonl`) and pruning rolled segments beyond a
//! retention cap. Because the stream's cursors are independent of the
//! tracer's snapshot cursors, both readers coexist: each sees every
//! retained record, and neither consumes the other's view.
//!
//! ## Conservation across rotations
//!
//! The flight-recorder identity `drained + dropped == emitted` is
//! carried *into the files*: every drain cycle appends a `drain`
//! summary line with the cumulative per-worker cursor accounting
//! (`position == drained + dropped`) next to the ring's `emitted`
//! counter, and [`finish`](TraceStream::finish) writes one final
//! summary after the writers quiesce — so the last summary of the last
//! segment states the identity exactly, no matter how many times the
//! stream rotated underneath it.
//!
//! ## Line format
//!
//! Each line of a segment is one JSON object:
//!
//! * `{"segment":{"epoch":…,"seq":…,"cycles_per_ns":…}}` — first line
//!   of every segment;
//! * a serialized [`TraceEvent`] — one per drained record, plus one
//!   synthetic [`EventKind::DrainCycle`] marker per non-empty cycle on
//!   the collector's pseudo-track (the collector thread never emits
//!   into a worker's SPSC ring);
//! * `{"drain":{…,"workers":[…]}}` — the cumulative accounting
//!   summary described above, read back by [`DrainSummary::parse`].
//!
//! [`chrome_json_from_jsonl`] (and the directory-walking
//! [`chrome_json_from_dir`]) convert any concatenation of segments —
//! in rotation order — back into one Perfetto-loadable Chrome-trace
//! JSON document: the `trace2chrome` path.

use std::fmt::Write as _;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use serde::Value;
use xgomp_xqueue::{EventRing, RingCursor};

use crate::clock;
use crate::events::EventKind;
use crate::trace::{TraceEvent, TraceSnapshot, Tracer};

/// Shape of the rolling stream: where segments live, when they rotate,
/// how many survive.
#[derive(Debug, Clone)]
pub struct TraceStreamConfig {
    /// Directory the segments are written into (created on demand).
    pub dir: PathBuf,
    /// Rotate the current segment once it exceeds this many bytes.
    pub rotate_bytes: u64,
    /// Rotate the current segment once it is older than this, even if
    /// small — bounds how stale the newest *closed* segment can be.
    pub rotate_after: Duration,
    /// Segments retained on disk (the live one included); older rolled
    /// segments of this stream are deleted, newest kept. Minimum 1.
    pub keep: usize,
}

impl TraceStreamConfig {
    /// Defaults: 4 MiB size rotation, 60 s age rotation, 8 segments
    /// retained.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        TraceStreamConfig {
            dir: dir.into(),
            rotate_bytes: 4 << 20,
            rotate_after: Duration::from_secs(60),
            keep: 8,
        }
    }

    /// Sets the size-rotation threshold (bytes, ≥ 1 KiB).
    pub fn rotate_bytes(mut self, n: u64) -> Self {
        self.rotate_bytes = n.max(1024);
        self
    }

    /// Sets the age-rotation threshold.
    pub fn rotate_after(mut self, d: Duration) -> Self {
        self.rotate_after = d;
        self
    }

    /// Sets the retention cap (segments kept, ≥ 1).
    pub fn keep(mut self, n: usize) -> Self {
        self.keep = n.max(1);
        self
    }
}

/// Cumulative counters of one [`TraceStream`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStreamStats {
    /// Drain cycles run (empty ones included).
    pub cycles: u64,
    /// Records written to disk across all segments.
    pub drained: u64,
    /// Records the stream's cursors lost to ring overwrite — `0` means
    /// the collector kept up with every writer.
    pub dropped: u64,
    /// Segment rotations performed.
    pub rotations: u64,
    /// Segments opened (`rotations + 1`).
    pub segments: u64,
}

/// The rolling sink (see the [module docs](self)).
pub struct TraceStream {
    cfg: TraceStreamConfig,
    /// Unix-seconds stamp naming this stream's segment family.
    epoch: u64,
    seq: u64,
    file: BufWriter<File>,
    bytes: u64,
    segment_events: u64,
    opened_at: Instant,
    cursors: Vec<RingCursor>,
    stats: TraceStreamStats,
}

impl std::fmt::Debug for TraceStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceStream")
            .field("dir", &self.cfg.dir)
            .field("segment", &self.segment_path())
            .field("stats", &self.stats)
            .finish()
    }
}

fn open_segment_file(path: &Path) -> io::Result<BufWriter<File>> {
    Ok(BufWriter::new(File::create(path)?))
}

impl TraceStream {
    /// Opens the stream: creates `cfg.dir` and segment 0 with its
    /// header line.
    pub fn create(cfg: TraceStreamConfig) -> io::Result<Self> {
        fs::create_dir_all(&cfg.dir)?;
        let epoch = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut stream = TraceStream {
            file: open_segment_file(&segment_path_of(&cfg.dir, epoch, 0))?,
            cfg,
            epoch,
            seq: 0,
            bytes: 0,
            segment_events: 0,
            opened_at: Instant::now(),
            cursors: Vec::new(),
            stats: TraceStreamStats::default(),
        };
        stream.stats.segments = 1;
        stream.write_header()?;
        Ok(stream)
    }

    /// Path of the live segment.
    pub fn segment_path(&self) -> PathBuf {
        segment_path_of(&self.cfg.dir, self.epoch, self.seq)
    }

    /// Cumulative stream counters.
    pub fn stats(&self) -> TraceStreamStats {
        self.stats
    }

    fn write_line(&mut self, line: &str) -> io::Result<()> {
        writeln!(self.file, "{line}")?;
        self.bytes += line.len() as u64 + 1;
        Ok(())
    }

    fn write_header(&mut self) -> io::Result<()> {
        let line = format!(
            "{{\"segment\":{{\"epoch\":{},\"seq\":{},\"cycles_per_ns\":{:.6}}}}}",
            self.epoch,
            self.seq,
            clock::cycles_per_ns()
        );
        self.write_line(&line)
    }

    /// Appends the cumulative conservation summary: stream totals plus
    /// one per-worker row of `position == drained + dropped` next to
    /// the ring's `emitted` counter.
    fn write_summary(&mut self, rings: &[Arc<EventRing>]) -> io::Result<()> {
        let mut line = format!(
            "{{\"drain\":{{\"cycle\":{},\"rotations\":{},\"drained\":{},\"dropped\":{},\"workers\":[",
            self.stats.cycles, self.stats.rotations, self.stats.drained, self.stats.dropped
        );
        for (w, cur) in self.cursors.iter().enumerate() {
            if w > 0 {
                line.push(',');
            }
            let emitted = rings.get(w).map(|r| r.emitted()).unwrap_or(0);
            let _ = write!(
                line,
                "{{\"worker\":{w},\"position\":{},\"drained\":{},\"dropped\":{},\"emitted\":{emitted}}}",
                cur.position(),
                cur.drained(),
                cur.dropped(),
            );
        }
        line.push_str("]}}");
        self.write_line(&line)
    }

    /// One collector cycle: tails every ring through the stream's own
    /// cursors, appends the new records (plus the synthetic
    /// [`EventKind::DrainCycle`] marker and the conservation summary
    /// when anything arrived), and rotates/prunes as configured. Size
    /// rotation applies *mid-cycle* — one burst cycle draining far more
    /// than `rotate_bytes` (a ring holds up to its capacity between
    /// cycles) still produces bounded segments — while age rotation is
    /// checked once per cycle. Returns the records written this cycle.
    pub fn drain_cycle(&mut self, tracer: &Tracer) -> io::Result<u64> {
        let rings = tracer.ring_handles();
        while self.cursors.len() < rings.len() {
            self.cursors.push(RingCursor::new());
        }
        let mut cycle_drained = 0u64;
        for (w, ring) in rings.iter().enumerate() {
            // Buffer this ring's records (bounded by its capacity),
            // then write — rotation between lines needs `&mut self`,
            // which the drain closure cannot share with the cursor.
            let mut lines: Vec<String> = Vec::new();
            ring.drain(&mut self.cursors[w], &mut |raw| {
                let Some(kind) = EventKind::from_u8(raw.kind) else {
                    return;
                };
                let ev = TraceEvent {
                    worker: w as u32,
                    ts: raw.ts,
                    kind,
                    a: raw.a,
                    b: raw.b,
                    c: raw.c,
                };
                lines.push(serde_json::to_string(&ev).expect("trace event serializes"));
            });
            for line in lines {
                self.write_line(&line)?;
                self.segment_events += 1;
                cycle_drained += 1;
                if self.bytes >= self.cfg.rotate_bytes {
                    self.rotate()?;
                }
            }
        }
        self.stats.cycles += 1;
        self.stats.dropped = self.cursors.iter().map(|c| c.dropped()).sum();
        if cycle_drained > 0 {
            self.stats.drained += cycle_drained;
            // The cycle marker rides the collector's pseudo-track (one
            // past the worker rings) — never a worker's SPSC ring.
            let marker = TraceEvent {
                worker: rings.len() as u32,
                ts: clock::now(),
                kind: EventKind::DrainCycle,
                a: self.stats.rotations.min(u32::MAX as u64) as u32,
                b: cycle_drained,
                c: self.stats.dropped,
            };
            let line = serde_json::to_string(&marker).expect("trace event serializes");
            self.write_line(&line)?;
            self.write_summary(&rings)?;
        }
        self.maybe_rotate()?;
        Ok(cycle_drained)
    }

    fn maybe_rotate(&mut self) -> io::Result<()> {
        // Never roll a segment that carries no events yet: an idle
        // stream must not churn header-only files through retention.
        if self.segment_events == 0 {
            return Ok(());
        }
        if self.bytes < self.cfg.rotate_bytes && self.opened_at.elapsed() < self.cfg.rotate_after {
            return Ok(());
        }
        self.rotate()
    }

    /// Unconditionally rolls to the next segment: flush, bump the
    /// sequence number, open the new file with its header, prune old
    /// segments past the retention cap.
    fn rotate(&mut self) -> io::Result<()> {
        self.file.flush()?;
        self.seq += 1;
        self.stats.rotations += 1;
        self.stats.segments += 1;
        self.file = open_segment_file(&self.segment_path())?;
        self.bytes = 0;
        self.segment_events = 0;
        self.opened_at = Instant::now();
        self.write_header()?;
        self.apply_retention();
        Ok(())
    }

    /// Deletes this stream's oldest rolled segments beyond the
    /// retention cap (best-effort; other epochs in the directory are
    /// left alone).
    fn apply_retention(&self) {
        let Ok(rd) = fs::read_dir(&self.cfg.dir) else {
            return;
        };
        let prefix = format!("trace-{}-", self.epoch);
        let mut segs: Vec<PathBuf> = rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".jsonl"))
            })
            .collect();
        // Zero-padded sequence numbers make name order rotation order.
        segs.sort();
        while segs.len() > self.cfg.keep.max(1) {
            let _ = fs::remove_file(segs.remove(0));
        }
    }

    /// Flushes buffered lines to the OS (pause-coordination point: a
    /// paused server's stream is complete on disk after this).
    pub fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }

    /// Final cycle: drains whatever remains, writes one last
    /// conservation summary — exact once the emitters have quiesced —
    /// and flushes. Returns the final counters.
    pub fn finish(mut self, tracer: &Tracer) -> io::Result<TraceStreamStats> {
        self.drain_cycle(tracer)?;
        let rings = tracer.ring_handles();
        self.write_summary(&rings)?;
        self.file.flush()?;
        Ok(self.stats)
    }
}

/// One per-worker row of a `drain` summary line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainWorkerRow {
    /// Worker (ring) index.
    pub worker: u64,
    /// The stream cursor's position in the ring.
    pub position: u64,
    /// Records this cursor wrote to disk.
    pub drained: u64,
    /// Records this cursor lost to ring overwrite.
    pub dropped: u64,
    /// Records the ring's writer emitted.
    pub emitted: u64,
}

/// A parsed `{"drain":…}` summary line: the stream totals plus one row
/// per worker ring, as [`TraceStream`] writes them after each non-empty
/// drain cycle and at [`finish`](TraceStream::finish).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainSummary {
    /// Drain cycles run.
    pub cycle: u64,
    /// Segment rotations performed.
    pub rotations: u64,
    /// Records written to disk across all segments.
    pub drained: u64,
    /// Records the stream's cursors lost to ring overwrite.
    pub dropped: u64,
    /// Per-worker cursor accounting.
    pub workers: Vec<DrainWorkerRow>,
}

impl DrainSummary {
    /// Parses one `drain` summary line. Every key is required: a missing
    /// or non-integer one is an [`InvalidData`](io::ErrorKind::InvalidData)
    /// error, never a `0` that would let `drained + dropped == emitted`
    /// hold as `0 == 0`.
    pub fn parse(line: &str) -> io::Result<Self> {
        let invalid = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let count = |v: &Value, key: &str| match serde::field(v, key) {
            Ok(Value::UInt(n)) => Ok(*n),
            Ok(other) => Err(invalid(format!(
                "drain summary `{key}` is not a count: {other:?}"
            ))),
            Err(e) => Err(invalid(format!("drain summary: {e}"))),
        };
        let v: Value = serde_json::from_str(line).map_err(|e| invalid(e.to_string()))?;
        let d = serde::field(&v, "drain").map_err(|e| invalid(e.to_string()))?;
        let rows = match serde::field(d, "workers") {
            Ok(Value::Seq(rows)) => rows,
            other => return Err(invalid(format!("drain summary `workers`: {other:?}"))),
        };
        let workers = rows
            .iter()
            .map(|w| {
                Ok(DrainWorkerRow {
                    worker: count(w, "worker")?,
                    position: count(w, "position")?,
                    drained: count(w, "drained")?,
                    dropped: count(w, "dropped")?,
                    emitted: count(w, "emitted")?,
                })
            })
            .collect::<io::Result<_>>()?;
        Ok(DrainSummary {
            cycle: count(d, "cycle")?,
            rotations: count(d, "rotations")?,
            drained: count(d, "drained")?,
            dropped: count(d, "dropped")?,
            workers,
        })
    }

    /// Parses the last summary line of `segment` (one segment's text):
    /// the newest segment's last summary carries the final totals.
    pub fn last_in(segment: &str) -> io::Result<Self> {
        let line = segment
            .lines()
            .rev()
            .find(|l| l.starts_with("{\"drain\""))
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no drain summary"))?;
        Self::parse(line)
    }

    /// Records emitted across every worker ring.
    pub fn emitted(&self) -> u64 {
        self.workers.iter().map(|w| w.emitted).sum()
    }
}

fn segment_path_of(dir: &Path, epoch: u64, seq: u64) -> PathBuf {
    dir.join(format!("trace-{epoch}-{seq:06}.jsonl"))
}

fn num_u64(v: &Value) -> u64 {
    match v {
        Value::UInt(n) => *n,
        Value::Int(n) => (*n).max(0) as u64,
        Value::Float(f) => *f as u64,
        _ => 0,
    }
}

fn num_f64(v: &Value) -> f64 {
    match v {
        Value::UInt(n) => *n as f64,
        Value::Int(n) => *n as f64,
        Value::Float(f) => *f,
        _ => 0.0,
    }
}

/// `trace2chrome`: converts concatenated stream segments (JSONL text,
/// in rotation order) into one Chrome-trace / Perfetto JSON document.
///
/// Segment headers contribute the tick calibration, `drain` summaries
/// contribute the drop accounting (cumulative — the largest value
/// wins), and every event line becomes a trace event; the result is
/// rendered through [`TraceSnapshot::to_chrome_json`], so rolled
/// segments concatenate into a single loadable stream.
pub fn chrome_json_from_jsonl(text: &str) -> Result<String, serde_json::Error> {
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut dropped = 0u64;
    let mut cycles_per_ns = 0.0f64;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)?;
        if let Ok(seg) = serde::field(&v, "segment") {
            if cycles_per_ns == 0.0 {
                if let Ok(f) = serde::field(seg, "cycles_per_ns") {
                    cycles_per_ns = num_f64(f);
                }
            }
        } else if let Ok(sum) = serde::field(&v, "drain") {
            if let Ok(d) = serde::field(sum, "dropped") {
                dropped = dropped.max(num_u64(d));
            }
        } else {
            events.push(<TraceEvent as serde::Deserialize>::from_value(&v)?);
        }
    }
    if cycles_per_ns == 0.0 {
        cycles_per_ns = clock::cycles_per_ns();
    }
    events.sort_by_key(|e| e.ts);
    let snapshot = TraceSnapshot {
        events,
        dropped,
        cycles_per_ns,
    };
    Ok(snapshot.to_chrome_json())
}

/// Reads every `trace-*.jsonl` segment under `dir` in rotation order,
/// concatenates them, and converts the result with
/// [`chrome_json_from_jsonl`].
pub fn chrome_json_from_dir(dir: &Path) -> io::Result<String> {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("trace-") && n.ends_with(".jsonl"))
        })
        .collect();
    segs.sort();
    let mut text = String::new();
    for seg in &segs {
        text.push_str(&fs::read_to_string(seg)?);
        if !text.ends_with('\n') {
            text.push('\n');
        }
    }
    chrome_json_from_jsonl(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceLevel;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "xgomp-stream-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn rolling_stream_rotates_prunes_and_conserves() {
        let dir = scratch("rotate");
        let tracer = Tracer::with_capacity(TraceLevel::Full, 256);
        let r0 = tracer.ring(0);
        let r1 = tracer.ring(1);
        let cfg = TraceStreamConfig::new(&dir).rotate_bytes(1024).keep(3);
        let mut stream = TraceStream::create(cfg).unwrap();

        let mut ts = 0u64;
        for _round in 0..40 {
            for i in 0..20u64 {
                ts += 1;
                r0.emit(ts, EventKind::Steal as u8, 0, i, 0);
                ts += 1;
                r1.emit(ts, EventKind::ChunkClaim as u8, 1, i, i + 1);
            }
            stream.drain_cycle(&tracer).unwrap();
        }
        let stats = stream.finish(&tracer).unwrap();
        assert!(stats.rotations >= 3, "tiny segments must rotate");
        assert_eq!(stats.dropped, 0, "a keeping-up collector drops nothing");
        assert_eq!(stats.drained, 40 * 40, "every record reaches the stream");

        // Retention: at most `keep` segments remain, newest last.
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert!(names.len() <= 3, "retention cap violated: {names:?}");
        assert!(names
            .last()
            .unwrap()
            .ends_with(&format!("{:06}.jsonl", stats.rotations)));

        // The retained concatenation converts to parseable Chrome JSON
        // with the synthetic DrainCycle markers on the pseudo-track.
        let chrome = chrome_json_from_dir(&dir).unwrap();
        let v: Value = serde_json::from_str(&chrome).unwrap();
        drop(v);
        assert!(chrome.contains("\"name\":\"DRAIN_CYCLE\""));

        // The final summary of the last segment carries the exact
        // conservation identity per worker.
        let last = fs::read_to_string(dir.join(names.last().unwrap())).unwrap();
        let summary = DrainSummary::last_in(&last).expect("final summary present");
        assert_eq!(summary.workers.len(), 2);
        for w in &summary.workers {
            assert_eq!(w.position, w.drained + w.dropped);
            assert_eq!(w.position, w.emitted, "quiesced stream reaches the head");
        }
        assert_eq!(summary.drained, stats.drained);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lapped_collector_accounts_drops_in_the_stream() {
        let dir = scratch("lapped");
        let tracer = Tracer::with_capacity(TraceLevel::Full, 8);
        let ring = tracer.ring(0);
        let mut stream = TraceStream::create(TraceStreamConfig::new(&dir)).unwrap();
        // Lap the tiny ring between cycles: the gap must surface as
        // stream-side drops, keeping the identity.
        for i in 0..100u64 {
            ring.emit(i, EventKind::Steal as u8, 0, i, 0);
        }
        stream.drain_cycle(&tracer).unwrap();
        let stats = stream.finish(&tracer).unwrap();
        assert_eq!(stats.drained + stats.dropped, 100);
        assert!(stats.dropped > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_summary_parses_totals_and_rows() {
        let line = concat!(
            "{\"drain\":{\"cycle\":4,\"rotations\":1,\"drained\":9,\"dropped\":2,\"workers\":[",
            "{\"worker\":0,\"position\":5,\"drained\":4,\"dropped\":1,\"emitted\":5},",
            "{\"worker\":1,\"position\":6,\"drained\":5,\"dropped\":1,\"emitted\":6}]}}",
        );
        let sum = DrainSummary::parse(line).unwrap();
        assert_eq!((sum.cycle, sum.rotations), (4, 1));
        assert_eq!((sum.drained, sum.dropped), (9, 2));
        assert_eq!(sum.workers.len(), 2);
        assert_eq!(sum.workers[1].position, 6);
        assert_eq!(sum.drained + sum.dropped, sum.emitted());
        let text =
            format!("{{\"segment\":{{\"epoch\":1,\"seq\":0,\"cycles_per_ns\":1.0}}}}\n{line}\n");
        assert_eq!(DrainSummary::last_in(&text).unwrap(), sum);
    }

    #[test]
    fn drain_summary_without_emitted_is_rejected() {
        let line = concat!(
            "{\"drain\":{\"cycle\":1,\"rotations\":0,\"drained\":0,\"dropped\":0,\"workers\":[",
            "{\"worker\":0,\"position\":0,\"drained\":0,\"dropped\":0}]}}",
        );
        let err = DrainSummary::parse(line).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("emitted"), "{err}");
        assert!(DrainSummary::last_in("{\"segment\":{}}\n").is_err());
    }

    #[test]
    fn jsonl_conversion_survives_headers_and_summaries() {
        let text = concat!(
            "{\"segment\":{\"epoch\":1,\"seq\":0,\"cycles_per_ns\":1.000000}}\n",
            "{\"worker\":0,\"ts\":1000,\"kind\":\"Park\",\"a\":0,\"b\":0,\"c\":0}\n",
            "{\"worker\":0,\"ts\":2000,\"kind\":\"Wake\",\"a\":0,\"b\":0,\"c\":0}\n",
            "{\"drain\":{\"cycle\":1,\"rotations\":0,\"drained\":2,\"dropped\":7,\"workers\":[]}}\n",
            "{\"segment\":{\"epoch\":1,\"seq\":1,\"cycles_per_ns\":1.000000}}\n",
            "{\"worker\":1,\"ts\":3000,\"kind\":\"JobStart\",\"a\":0,\"b\":42,\"c\":2500}\n",
            "{\"worker\":1,\"ts\":4000,\"kind\":\"JobEnd\",\"a\":0,\"b\":42,\"c\":3000}\n",
            "{\"drain\":{\"cycle\":2,\"rotations\":1,\"drained\":4,\"dropped\":9,\"workers\":[]}}\n",
        );
        let chrome = chrome_json_from_jsonl(text).unwrap();
        let v: Value = serde_json::from_str(&chrome).unwrap();
        drop(v);
        assert!(chrome.contains("\"name\":\"parked\""), "park/wake paired");
        assert!(chrome.contains("\"name\":\"job 42\""));
        assert!(
            chrome.contains("\"dropped_events\":9"),
            "cumulative drop accounting survives conversion"
        );
    }
}
