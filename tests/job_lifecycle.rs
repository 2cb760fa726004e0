//! Job-cell lifecycle: every closure and every result is dropped exactly
//! once, whatever ends the job, and no join loses its wake-up.
//!
//! * Drop-once: canaries captured by job closures and returned as
//!   results count their drops, for jobs that complete, panic, are
//!   cancelled while queued, are shed by a deadline, are dropped
//!   unjoined (with or without a deadline), are spilled across a pause,
//!   or are still queued when the server shuts down.
//! * Lost wakes: `join`, `join_timeout`, `try_join` and `cancel` race
//!   completions from several threads. Every wait is bounded, so a lost
//!   wake-up fails the test instead of hanging it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use xgomp::service::{ServerConfig, TaskServer};
use xgomp::{JobError, JobHandle, SubmitOptions};

/// Bound on any single wait in this file.
const PATIENCE: Duration = Duration::from_secs(20);

/// Counts its drops into a shared counter.
#[derive(Debug)]
struct Canary(Arc<AtomicUsize>);

impl Drop for Canary {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn counter() -> Arc<AtomicUsize> {
    Arc::new(AtomicUsize::new(0))
}

fn server(threads: usize) -> TaskServer {
    let mut cfg = ServerConfig::new(threads);
    cfg.trace_dump = None;
    TaskServer::start(cfg)
}

/// A bounded join: a lost wake-up fails instead of hanging.
fn join<R>(h: JobHandle<R>) -> Result<R, JobError> {
    match h.join_timeout(PATIENCE) {
        Ok(r) => r,
        Err(t) => panic!("lost wake-up: job {} never resolved", t.handle.job_id()),
    }
}

/// Waits until every admitted job is accounted (the wrapper's drain
/// accounting trails the handle's resolution).
fn quiesce(server: &TaskServer) {
    let give_up = Instant::now() + PATIENCE;
    loop {
        let s = server.stats();
        if s.in_flight == 0 && s.submitted == s.completed + s.cancelled + s.shed {
            return;
        }
        assert!(Instant::now() < give_up, "server never quiesced: {s:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn completed_jobs_drop_closure_and_result_once() {
    let server = server(2);
    let (body, result) = (counter(), counter());
    let handles: Vec<_> = (0..64)
        .map(|_| {
            let canary = Canary(body.clone());
            let result = result.clone();
            server
                .submit(move |_| {
                    let _keep = &canary;
                    Canary(result)
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        drop(join(h).unwrap());
    }
    quiesce(&server);
    assert_eq!(body.load(Ordering::SeqCst), 64);
    assert_eq!(result.load(Ordering::SeqCst), 64);
    server.shutdown();
}

#[test]
fn panicking_jobs_drop_their_closure_once() {
    let server = server(2);
    let body = counter();
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let canary = Canary(body.clone());
            server
                .submit(move |_| -> Canary {
                    let _keep = &canary;
                    panic!("job {i} fails on purpose");
                })
                .unwrap()
        })
        .collect();
    for h in handles {
        assert!(join(h).unwrap_err().panic().is_some());
    }
    quiesce(&server);
    assert_eq!(body.load(Ordering::SeqCst), 16);
    server.shutdown();
}

#[test]
fn jobs_cancelled_while_queued_drop_their_closure_once() {
    let server = server(2);
    let (body, result) = (counter(), counter());
    server.pause().unwrap();
    let handles: Vec<_> = (0..32)
        .map(|_| {
            let canary = Canary(body.clone());
            let result = result.clone();
            server
                .submit(move |_| {
                    let _keep = &canary;
                    Canary(result)
                })
                .unwrap()
        })
        .collect();
    for h in &handles {
        h.cancel();
    }
    // Half the handles go away before the shed jobs drain.
    let mut kept = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        if i % 2 == 0 {
            kept.push(h);
        }
    }
    server.resume().unwrap();
    for h in kept {
        assert!(join(h).unwrap_err().is_cancelled());
    }
    quiesce(&server);
    let stats = server.stats();
    assert_eq!(stats.shed, 32);
    assert_eq!(body.load(Ordering::SeqCst), 32);
    assert_eq!(result.load(Ordering::SeqCst), 0, "no body ran");
    server.shutdown();
}

#[test]
fn jobs_shed_by_a_deadline_drop_their_closure_once() {
    let server = server(2);
    let (body, result) = (counter(), counter());
    server.pause().unwrap();
    let handles: Vec<_> = (0..32)
        .map(|_| {
            let canary = Canary(body.clone());
            let result = result.clone();
            server
                .submit_with(
                    SubmitOptions::new().deadline(Duration::from_millis(1)),
                    move |_| {
                        let _keep = &canary;
                        Canary(result)
                    },
                )
                .unwrap()
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    server.resume().unwrap();
    for h in handles {
        assert!(join(h).unwrap_err().is_deadline_exceeded());
    }
    quiesce(&server);
    assert_eq!(server.stats().shed, 32);
    assert_eq!(body.load(Ordering::SeqCst), 32);
    assert_eq!(result.load(Ordering::SeqCst), 0, "no body ran");
    server.shutdown();
}

#[test]
fn unjoined_jobs_drop_closure_and_result_once() {
    let server = server(2);
    let (body, result) = (counter(), counter());
    for i in 0..256 {
        let canary = Canary(body.clone());
        let result = result.clone();
        let h = server
            .submit(move |_| {
                let _keep = &canary;
                Canary(result)
            })
            .unwrap();
        if i % 2 == 0 {
            drop(h); // most likely before the job ran
        } else {
            while !h.is_done() {
                std::hint::spin_loop();
            }
            drop(h); // after it ran, result untaken
        }
    }
    quiesce(&server);
    assert_eq!(body.load(Ordering::SeqCst), 256);
    assert_eq!(result.load(Ordering::SeqCst), 256);
    server.shutdown();
}

/// A deadline keeps nothing alive: a job that completes well inside a
/// roomy deadline, with its handle already dropped, releases its cell —
/// and the result in it — as soon as it completes, not when the
/// deadline passes.
#[test]
fn completed_jobs_under_a_deadline_release_their_result_at_completion() {
    let server = server(2);
    let (body, result) = (counter(), counter());
    for _ in 0..64 {
        let canary = Canary(body.clone());
        let result = result.clone();
        let h = server
            .submit_with(
                SubmitOptions::new().deadline(Duration::from_secs(600)),
                move |_| {
                    let _keep = &canary;
                    Canary(result)
                },
            )
            .unwrap();
        drop(h);
    }
    quiesce(&server);
    assert_eq!(server.stats().completed, 64);
    // The worker releases its reference just after the accounting that
    // `quiesce` watches; give that a moment, not the deadline's 600 s.
    let give_up = Instant::now() + Duration::from_secs(5);
    while result.load(Ordering::SeqCst) < 64 && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(body.load(Ordering::SeqCst), 64);
    assert_eq!(
        result.load(Ordering::SeqCst),
        64,
        "every unjoined result is dropped once its job completes"
    );
    server.shutdown();
}

#[test]
fn spilled_jobs_drop_closure_and_result_once_across_pause_resume() {
    let server = server(2);
    let (body, result) = (counter(), counter());
    let submit = |server: &TaskServer| {
        let canary = Canary(body.clone());
        let result = result.clone();
        server
            .submit(move |_| {
                let _keep = &canary;
                Canary(result)
            })
            .unwrap()
    };
    let mut handles = Vec::new();
    for _ in 0..4 {
        server.pause().unwrap();
        handles.extend((0..16).map(|_| submit(&server)));
        server.resume().unwrap();
        handles.extend((0..16).map(|_| submit(&server)));
    }
    for h in handles {
        drop(join(h).unwrap());
    }
    quiesce(&server);
    assert_eq!(body.load(Ordering::SeqCst), 128);
    assert_eq!(result.load(Ordering::SeqCst), 128);
    server.shutdown();
}

#[test]
fn jobs_queued_at_shutdown_drop_closure_and_result_once() {
    let server = server(2);
    let (body, result) = (counter(), counter());
    server.pause().unwrap();
    let handles: Vec<_> = (0..64)
        .map(|_| {
            let canary = Canary(body.clone());
            let result = result.clone();
            server
                .submit(move |_| {
                    let _keep = &canary;
                    Canary(result)
                })
                .unwrap()
        })
        .collect();
    // Shutdown of a paused server runs a closing generation that drains
    // every queued job; half the handles are already gone by then.
    let mut kept = Vec::new();
    for (i, h) in handles.into_iter().enumerate() {
        if i % 2 == 0 {
            kept.push(h);
        }
    }
    let report = server.shutdown();
    assert_eq!(report.stats.completed, 64);
    for h in kept {
        drop(join(h).unwrap());
    }
    assert_eq!(body.load(Ordering::SeqCst), 64);
    assert_eq!(result.load(Ordering::SeqCst), 64);
}

/// Several threads submit and then resolve their jobs through every
/// join flavour, some after a `cancel`, while the workers complete them.
/// Each thread reports back over a channel the main thread waits on with
/// a bound, so even an unbounded `join` that lost its wake-up fails the
/// test rather than hanging it.
#[test]
fn joins_and_cancels_racing_completion_lose_no_wake() {
    const THREADS: usize = 4;
    const JOBS: usize = 2_000;
    let server = Arc::new(server(2));
    let (body, result) = (counter(), counter());
    let (tx, rx) = mpsc::channel();
    for t in 0..THREADS {
        let server = server.clone();
        let (body, result) = (body.clone(), result.clone());
        let tx = tx.clone();
        std::thread::spawn(move || {
            let (mut ok, mut cancelled) = (0usize, 0usize);
            for i in 0..JOBS {
                let canary = Canary(body.clone());
                let result = result.clone();
                let spin = (i * 7 + t) % 200;
                let h = server
                    .submit(move |_| {
                        let _keep = &canary;
                        for _ in 0..spin {
                            std::hint::spin_loop();
                        }
                        Canary(result)
                    })
                    .unwrap();
                let outcome = match (i + t) % 5 {
                    0 => h.join(),
                    1 => join(h),
                    2 => {
                        let mut h = h;
                        loop {
                            match h.join_timeout(Duration::from_micros(5)) {
                                Ok(r) => break r,
                                Err(timeout) => h = timeout.handle,
                            }
                        }
                    }
                    3 => {
                        let give_up = Instant::now() + PATIENCE;
                        let mut h = h;
                        loop {
                            match h.try_join() {
                                Ok(r) => break r,
                                Err(back) => {
                                    assert!(Instant::now() < give_up, "try_join never resolved");
                                    h = back;
                                    std::hint::spin_loop();
                                }
                            }
                        }
                    }
                    _ => {
                        h.cancel();
                        join(h)
                    }
                };
                match outcome {
                    Ok(_) => ok += 1,
                    Err(e) => {
                        assert!(e.is_cancelled(), "unexpected outcome: {e}");
                        cancelled += 1;
                    }
                }
            }
            tx.send((ok, cancelled)).unwrap();
        });
    }
    let (mut ok, mut cancelled) = (0, 0);
    for _ in 0..THREADS {
        let (o, c) = rx
            .recv_timeout(PATIENCE * 3)
            .expect("a joiner thread hung: lost wake-up");
        ok += o;
        cancelled += c;
    }
    assert_eq!(ok + cancelled, THREADS * JOBS);
    quiesce(&server);
    let s = server.stats();
    assert_eq!(s.submitted as usize, THREADS * JOBS);
    assert_eq!(s.submitted, s.completed + s.cancelled + s.shed);
    assert_eq!(
        s.cancelled + s.shed,
        cancelled as u64,
        "every cancelled outcome is accounted once"
    );
    assert_eq!(body.load(Ordering::SeqCst), THREADS * JOBS);
    assert_eq!(result.load(Ordering::SeqCst), ok, "one result per run body");
}
