//! # xgomp-profiling
//!
//! Reproduction of the paper's §V software profiling tools: light-weight
//! per-thread event timelines stamped with the processor timestamp counter
//! and per-thread statistical counters, plus the renderers that produce
//! the paper's Fig. 3 (per-thread timeline summary and task-count
//! summary) and the Tables II/III statistics rows.
//!
//! Design points carried over from the paper:
//!
//! * **`rdtscp`-class timestamps.** On x86-64 we use `rdtsc` (the paper
//!   uses `rdtscp`; both are monotone non-serializing reads of the TSC —
//!   the `p` variant additionally orders prior loads, a distinction that
//!   does not matter for coarse event bracketing). Elsewhere we fall back
//!   to a monotonic-nanosecond clock.
//! * **Event classes**: `TASK` (running a task body), `GOMP_TASK` (task
//!   creation), `TASKWAIT`, `BARRIER`, `STALL` (idle polling).
//! * **Thread-local, non-atomic recording.** Each worker owns its log and
//!   counter block; nothing is shared while profiling, so the overhead is
//!   a store per event as in the paper.
//! * **`xomp_perflog_dump`**: JSON dump of logs + counters to a path from
//!   the `XOMP_PERFLOG_PATH` environment variable or an explicit path.

#![warn(missing_docs)]

pub mod clock;
mod counters;
mod events;
mod histogram;
mod live;
mod loopstats;
pub mod stream;
mod timeline;
pub mod trace;

pub use counters::{StatsSnapshot, TeamStats, WorkerStats};
pub use events::{EventKind, EventRecord, PerfLog, ProfileDump};
pub use histogram::{decade_index, TaskSizeHistogram};
pub use live::LiveTaskSampler;
pub use loopstats::{
    LoopTelemetry, LoopTelemetrySnapshot, ScheduleSnapshot, SpaceKindSnapshot, LOOP_SCHEDULES,
    LOOP_SCHEDULE_NAMES, LOOP_SPACE_KINDS, LOOP_SPACE_KIND_NAMES,
};
pub use stream::{
    chrome_json_from_dir, chrome_json_from_jsonl, DrainSummary, TraceStream, TraceStreamConfig,
    TraceStreamStats,
};
pub use timeline::{render_task_counts, render_timeline, state_summary, StateSummaryRow};
pub use trace::{PromText, TraceEvent, TraceLevel, TraceSnapshot, Tracer};
