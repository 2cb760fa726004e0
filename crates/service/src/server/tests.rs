use super::exposition::{LatencyHist, LATENCY_BUCKETS_SECS};
use super::*;
use std::sync::atomic::AtomicBool;
use xgomp_core::{clock, EventKind, TraceLevel};

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
