//! NUMA-sharded MPSC ingress built on the lock-less B-queue.
//!
//! External submitter threads are strangers to the runtime: they own no
//! worker slot, so they cannot touch the XQueue lattice (whose SPSC
//! roles are worker-bound). Ingress therefore runs on its own tier:
//!
//! * one [`IngressShard`] per NUMA zone of the team's placement, so a
//!   submitter consistently feeds the shard whose workers will spawn its
//!   jobs (creator-locality for everything the job spawns afterwards);
//! * each shard is a set of *lanes* — bounded SPSC
//!   [`BQueue`](xgomp_xqueue::BQueue)s — multiplexed into an MPSC by two
//!   single-word atomic claims: a producer claim per lane and one drain
//!   claim per shard. The claims are the only read-modify-write atomics
//!   on the submission path; every queue operation stays the paper's
//!   plain load/store B-queue protocol, and the worker-to-worker
//!   scheduling fabric behind it remains fully lock-less.
//!
//! ## Registered lanes
//!
//! A lane can be *reserved* for one submitter
//! ([`IngressShard::reserve_lane`]): the reservation is a permanent
//! producer claim, making the lane an honest SPSC channel — the pinned
//! submitter pushes with plain loads and stores and never races another
//! producer's claim CAS, while anonymous submitters skip reserved lanes.
//! Registration on a live shard is safe: winning the reservation does
//! not hand the lane over until any in-flight anonymous producer claim
//! has drained (a SeqCst Dekker handshake between the reservation flag
//! and the producer claim — see [`reserve_lane`](IngressShard::reserve_lane)),
//! so the lane never has two concurrent producers. This is what
//! `TaskServer::register_submitter` hands out, replacing the old
//! thread-hash lane choice whose collisions let two submitters contend
//! on one lane while others sat empty.
//!
//! Jobs travel as [`JobRef`]s — one thin pointer to the job's cell. One
//! drain claim hands out at most one job, which the idle worker that won
//! the claim spawns as a task after releasing it.
//!
//! ## Generations
//!
//! The ingress tier belongs to the *server*, not to any one team
//! generation: shards, lanes, reservations and their counters all
//! survive a `TaskServer::pause()`/`resume()` cycle and a config swap.
//! A pause *drains* the rings (jobs that reached them were admitted
//! before the pause and must complete with that generation); pause-time
//! submissions divert to the server's spill queue and re-enter through
//! the first polls of the next generation. A config swap that changes
//! the team's zone map
//! *re-maps* workers and doorbells onto the existing shard set rather
//! than reallocating it — which is exactly what lets a pinned
//! [`SubmitterHandle`](crate::SubmitterHandle)'s `(shard, lane)`
//! coordinates stay valid across every generation.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

use xgomp_xqueue::{BQueue, Backoff};

use crate::handle::{JobHeader, JobRef};

struct Lane {
    q: BQueue<JobHeader>,
    /// Producer-side claim: holder is the lane's unique producer.
    producing: AtomicBool,
    /// Permanent reservation (registered submitter). While set, the
    /// anonymous push path skips this lane entirely.
    reserved: AtomicBool,
    /// Jobs ever pushed into this lane (conservation accounting).
    pushed: AtomicU64,
    /// Jobs ever drained out of this lane.
    drained: AtomicU64,
}

/// One NUMA zone's ingress: lanes of SPSC rings + a drain claim making
/// the ensemble MPSC.
pub struct IngressShard {
    lanes: Box<[Lane]>,
    /// Consumer-side claim: holder is the unique consumer of all lanes.
    draining: AtomicBool,
    /// First lane the next drain scans. Only the `draining` claim
    /// holder touches it, so relaxed loads and stores suffice (the
    /// claim's acquire/release orders them).
    drain_cursor: AtomicUsize,
    /// Rotates the first lane probed by producers, spreading contention.
    next_lane: AtomicUsize,
    /// Anonymous pushes that found a lane's producer claim held — the
    /// cross-submitter contention registered lanes exist to eliminate.
    claim_conflicts: AtomicU64,
}

impl IngressShard {
    fn new(lanes: usize, lane_capacity: usize) -> Self {
        IngressShard {
            lanes: (0..lanes.max(1))
                .map(|_| Lane {
                    q: BQueue::with_capacity(lane_capacity),
                    producing: AtomicBool::new(false),
                    reserved: AtomicBool::new(false),
                    pushed: AtomicU64::new(0),
                    drained: AtomicU64::new(0),
                })
                .collect(),
            draining: AtomicBool::new(false),
            drain_cursor: AtomicUsize::new(0),
            next_lane: AtomicUsize::new(0),
            claim_conflicts: AtomicU64::new(0),
        }
    }

    /// Number of lanes in this shard.
    pub fn n_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Slots across all lanes (actual ring capacities).
    pub fn capacity(&self) -> usize {
        self.lanes.iter().map(|l| l.q.capacity()).sum()
    }

    /// Reserves a free lane for one registered submitter; `None` when
    /// none is reservable (the caller falls back to the anonymous claim
    /// path). Lane 0 is never reservable: anonymous submitters must
    /// always have somewhere to land, or a fully registered shard would
    /// starve them. Release with [`release_lane`](Self::release_lane).
    pub(crate) fn reserve_lane(&self) -> Option<usize> {
        let lane = self
            .lanes
            .iter()
            .skip(1)
            .position(|l| {
                l.reserved
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok()
            })
            .map(|i| i + 1)?;
        // Registration handshake (Dekker with `try_push`): an
        // anonymous producer that claimed `producing` before this
        // reservation became visible may still be mid-enqueue, and
        // returning now would let the reservation holder become a second
        // concurrent producer on an SPSC ring. Both sides' flag
        // store→load pairs are SeqCst, so every anonymous claimant
        // either sees the reservation at its re-check and bails without
        // touching the ring, or this load sees its `producing` claim and
        // waits for the release — whose Release/Acquire pairing also
        // makes the in-flight enqueue happen-before the holder's first
        // `push_reserved`. Claimants that bail still toggle
        // `producing`, but never enqueue, so one observed `false` here
        // is enough; the wait spans at most one in-flight enqueue plus
        // brief bail toggles from claimants whose pre-check missed the
        // reservation. The backoff yields in case the mid-enqueue
        // producer was preempted on an oversubscribed host.
        let mut backoff = Backoff::new();
        while self.lanes[lane].producing.load(Ordering::SeqCst) {
            backoff.snooze();
        }
        Some(lane)
    }

    /// Returns a reserved lane to the anonymous pool.
    pub(crate) fn release_lane(&self, lane: usize) {
        let was = self.lanes[lane].reserved.swap(false, Ordering::AcqRel);
        debug_assert!(was, "released lane {lane} was not reserved");
    }

    /// Pushes through a reserved lane. The caller must hold the
    /// reservation of `lane` — that makes it the lane's unique producer,
    /// so the push is a plain SPSC enqueue with no claim traffic. A full
    /// lane hands the job back.
    pub(crate) fn push_reserved(&self, lane: usize, job: JobRef) -> Result<(), JobRef> {
        let l = &self.lanes[lane];
        debug_assert!(l.reserved.load(Ordering::Relaxed), "lane not reserved");
        // SAFETY: the reservation makes the holder the unique producer.
        match unsafe { l.q.enqueue(job.into_raw()) } {
            Ok(()) => {
                l.pushed.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            // SAFETY: the ring handed back the pointer it refused.
            Err(back) => Err(unsafe { JobRef::from_raw(back) }),
        }
    }

    /// Attempts to enqueue `job` into any lane of this shard. Fails —
    /// handing the job back — when every lane is full or
    /// producer-claimed by someone else. Skips reserved lanes.
    pub(crate) fn try_push(&self, job: JobRef) -> Result<(), JobRef> {
        let mut ptr = job.into_raw();
        let start = self.next_lane.fetch_add(1, Ordering::Relaxed);
        for i in 0..self.lanes.len() {
            let lane = &self.lanes[(start + i) % self.lanes.len()];
            if lane.reserved.load(Ordering::Acquire) {
                continue;
            }
            if lane
                .producing
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                self.claim_conflicts.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            // The claim may have raced a registration: re-check so a
            // reserved lane never sees an anonymous producer. SeqCst on
            // the claim CAS above and this load is the anonymous half of
            // the handshake documented in `reserve_lane` — if this read
            // misses a reservation, the reserver is guaranteed to see
            // our `producing` claim and wait it out.
            if lane.reserved.load(Ordering::SeqCst) {
                lane.producing.store(false, Ordering::Release);
                continue;
            }
            // SAFETY: the `producing` claim makes this thread the lane's
            // unique producer for the duration of the call.
            let pushed = unsafe { lane.q.enqueue(ptr) };
            if pushed.is_ok() {
                lane.pushed.fetch_add(1, Ordering::Relaxed);
            }
            lane.producing.store(false, Ordering::Release);
            match pushed {
                Ok(()) => return Ok(()),
                Err(back) => ptr = back,
            }
        }
        // SAFETY: no ring accepted the pointer `into_raw` gave us.
        Err(unsafe { JobRef::from_raw(ptr) })
    }

    /// Takes one job if the drain claim is free: the first non-empty
    /// lane at or after the drain cursor gives it up, and the cursor
    /// moves past it, so every non-empty lane is served within
    /// `n_lanes` pops however busy the others are. The claim is released before
    /// the job is returned, so the caller's spawn (which may execute the
    /// job inline on queue overflow) never blocks other drainers. `None`
    /// when the claim is held or every lane is empty.
    pub(crate) fn try_pop(&self) -> Option<JobRef> {
        if self
            .draining
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return None;
        }
        let n = self.lanes.len();
        let start = self.drain_cursor.load(Ordering::Relaxed);
        let job = (start..start + n).find_map(|i| {
            let lane = &self.lanes[i % n];
            // SAFETY: the `draining` claim makes this thread the unique
            // consumer of every lane in the shard.
            let p = unsafe { lane.q.dequeue() }?;
            lane.drained.fetch_add(1, Ordering::Relaxed);
            self.drain_cursor.store((i + 1) % n, Ordering::Relaxed);
            // SAFETY: every queued pointer came from `JobRef::into_raw`
            // in a push path.
            Some(unsafe { JobRef::from_raw(p) })
        });
        self.draining.store(false, Ordering::Release);
        job
    }

    /// Whether every lane currently looks empty (racy hint).
    pub fn looks_empty(&self) -> bool {
        self.lanes.iter().all(|l| l.q.occupancy_scan() == 0)
    }

    /// Jobs currently sitting in this shard's lanes (racy scan; exact
    /// only while no push or drain is in flight — e.g. a paused server).
    pub fn occupancy(&self) -> usize {
        self.lanes.iter().map(|l| l.q.occupancy_scan()).sum()
    }

    /// Per-lane `(pushed, drained)` counters (conservation checks).
    pub fn lane_counters(&self) -> Vec<(u64, u64)> {
        self.lanes
            .iter()
            .map(|l| {
                (
                    l.pushed.load(Ordering::Relaxed),
                    l.drained.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// Anonymous pushes that lost a lane-claim race in this shard.
    pub fn claim_conflicts(&self) -> u64 {
        self.claim_conflicts.load(Ordering::Relaxed)
    }
}

impl Drop for IngressShard {
    fn drop(&mut self) {
        // Release any jobs that were never drained (only reachable when
        // a server is torn down without its shutdown drain, e.g. on
        // panic).
        for lane in self.lanes.iter() {
            // SAFETY: `&mut self` — no concurrent producers or consumers.
            while let Some(p) = unsafe { lane.q.dequeue() } {
                // SAFETY: pointer from `JobRef::into_raw` in a push path.
                drop(unsafe { JobRef::from_raw(p) });
            }
        }
    }
}

/// The full ingress tier: one shard per NUMA zone of the placement.
pub struct ShardedIngress {
    shards: Box<[IngressShard]>,
}

impl ShardedIngress {
    /// Builds `n_shards` shards of `lanes × lane_capacity` slots each.
    pub fn new(n_shards: usize, lanes: usize, lane_capacity: usize) -> Self {
        ShardedIngress {
            shards: (0..n_shards.max(1))
                .map(|_| IngressShard::new(lanes, lane_capacity))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i` (stats, registration).
    pub fn shard(&self, i: usize) -> &IngressShard {
        &self.shards[i]
    }

    /// Total slots across every shard.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| s.capacity()).sum()
    }

    /// Anonymous lane-claim conflicts summed over all shards.
    pub fn claim_conflicts(&self) -> u64 {
        self.shards.iter().map(|s| s.claim_conflicts()).sum()
    }

    /// Pushes preferring shard `hint`, falling over to the others. `Ok`
    /// carries the index of the shard that accepted the job, so the
    /// caller can ring the doorbell of the zone the job actually landed
    /// in (fallover may pick a different shard than `hint`).
    pub(crate) fn push_from(&self, hint: usize, mut job: JobRef) -> Result<usize, JobRef> {
        for i in 0..self.shards.len() {
            let shard = (hint + i) % self.shards.len();
            match self.shards[shard].try_push(job) {
                Ok(()) => return Ok(shard),
                Err(back) => job = back,
            }
        }
        Err(job)
    }

    /// Takes one job, preferring shard `hint` (the caller's zone) and
    /// falling over to the other shards, in order, only when its claim is
    /// held or its lanes are empty — work conservation without giving up
    /// locality.
    pub(crate) fn pop(&self, hint: usize) -> Option<JobRef> {
        let n = self.shards.len();
        (0..n).find_map(|i| self.shards[(hint + i) % n].try_pop())
    }

    /// Racy emptiness hint across all shards.
    pub fn looks_empty(&self) -> bool {
        self.shards.iter().all(|s| s.looks_empty())
    }

    /// Jobs currently queued across all shards (racy scan; exact while
    /// quiescent — the paused-server "queued for the next generation"
    /// gauge).
    pub fn occupancy(&self) -> usize {
        self.shards.iter().map(|s| s.occupancy()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handle::JobCell;
    use crate::QosClass;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    /// A job whose body counts its runs (the ring tests only move jobs
    /// around, so `hits` must stay 0); its handle is dropped at once.
    fn counter_job(hits: Arc<AtomicU64>) -> JobRef {
        JobCell::create(0, 0, QosClass::Normal, u64::MAX, move |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
        .1
    }

    fn job(i: u64) -> JobRef {
        JobCell::create(i, 0, QosClass::Normal, u64::MAX, move |_| {
            std::hint::black_box(i);
        })
        .1
    }

    #[test]
    fn push_drain_roundtrip() {
        let shard = IngressShard::new(2, 8);
        let hits = Arc::new(AtomicU64::new(0));
        for _ in 0..5 {
            shard.try_push(counter_job(hits.clone())).ok().unwrap();
        }
        assert!(!shard.looks_empty());
        let mut drained: Vec<JobRef> = Vec::new();
        while let Some(j) = shard.try_pop() {
            drained.push(j);
        }
        assert_eq!(drained.len(), 5);
        assert!(shard.looks_empty());
        let (pushed, got): (u64, u64) = shard
            .lane_counters()
            .iter()
            .fold((0, 0), |(a, b), &(p, d)| (a + p, b + d));
        assert_eq!((pushed, got), (5, 5));
        drop(drained); // dropping undrained bodies must not leak or run them
        assert_eq!(hits.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn undrained_jobs_are_released_once_at_teardown() {
        struct Canary(Arc<AtomicU64>);
        impl Drop for Canary {
            fn drop(&mut self) {
                self.0.fetch_add(1, Ordering::SeqCst);
            }
        }
        let drops = Arc::new(AtomicU64::new(0));
        let hits = Arc::new(AtomicU64::new(0));
        let ingress = ShardedIngress::new(2, 2, 8);
        for i in 0..20 {
            let canary = Canary(drops.clone());
            let hits = hits.clone();
            let (handle, job) = JobCell::create(i, 0, QosClass::Normal, u64::MAX, move |_| {
                let _keep = &canary;
                hits.fetch_add(1, Ordering::Relaxed);
            });
            drop(handle);
            ingress.push_from(i as usize, job).ok().unwrap();
        }
        assert_eq!(drops.load(Ordering::SeqCst), 0, "queued jobs are alive");
        drop(ingress);
        assert_eq!(drops.load(Ordering::SeqCst), 20, "each body dropped once");
        assert_eq!(hits.load(Ordering::Relaxed), 0, "and never run");
    }

    #[test]
    fn full_shard_hands_the_job_back() {
        let shard = IngressShard::new(1, 2); // one lane, two slots
        let hits = Arc::new(AtomicU64::new(0));
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        assert!(shard.try_push(counter_job(hits.clone())).is_err());
    }

    #[test]
    fn drain_claim_is_exclusive() {
        let shard = IngressShard::new(1, 8);
        shard.try_push(job(0)).ok().unwrap();
        shard.draining.store(true, Ordering::Release);
        assert!(shard.try_pop().is_none(), "a held claim hands out nothing");
        shard.draining.store(false, Ordering::Release);
        assert!(shard.try_pop().is_some());
    }

    /// A registered lane is served within `n_lanes` pops even while
    /// anonymous pushes keep lane 0 non-empty: the drain cursor rotates
    /// past every lane it serves.
    #[test]
    fn busy_lane_zero_cannot_starve_a_registered_lane() {
        let shard = IngressShard::new(2, 8);
        let lane = shard.reserve_lane().expect("free lane");
        assert_eq!(lane, 1);
        shard.push_reserved(lane, job(u64::MAX)).ok().unwrap();
        let mut served_at = None;
        for round in 0..1_000u64 {
            shard.try_push(job(round)).ok().unwrap();
            let popped = shard.try_pop().expect("a job is queued");
            if popped.header().id == u64::MAX {
                served_at.get_or_insert(round);
            }
        }
        let served_at = served_at.expect("the registered job drained");
        assert!(
            served_at < shard.n_lanes() as u64,
            "registered job waited {served_at} pops"
        );
        let counters = shard.lane_counters();
        assert_eq!(counters[1], (1, 1), "registered lane drained");
        assert_eq!(counters[0].0 + counters[1].0, 1_001);
        assert_eq!(counters[0].1 + counters[1].1, 1_000);
    }

    #[test]
    fn reserved_lane_is_invisible_to_anonymous_pushes() {
        let shard = IngressShard::new(2, 2);
        let lane = shard.reserve_lane().expect("free lane");
        let hits = Arc::new(AtomicU64::new(0));
        // Anonymous pushes can only land in the one unreserved lane.
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        shard.try_push(counter_job(hits.clone())).ok().unwrap();
        assert!(
            shard.try_push(counter_job(hits.clone())).is_err(),
            "reserved lane must not absorb anonymous pushes"
        );
        let counters = shard.lane_counters();
        assert_eq!(counters[lane].0, 0, "reserved lane untouched");
        // The reservation holder pushes without a claim.
        shard
            .push_reserved(lane, counter_job(hits.clone()))
            .ok()
            .unwrap();
        assert_eq!(shard.lane_counters()[lane].0, 1);
        // Release: the lane rejoins the anonymous pool.
        shard.release_lane(lane);
        let mut n = 0;
        while shard.try_pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 3);
        shard.try_push(counter_job(hits)).ok().unwrap();
    }

    #[test]
    fn reservations_exhaust_then_fail() {
        let shard = IngressShard::new(3, 4);
        assert_eq!(shard.reserve_lane(), Some(1), "lane 0 stays anonymous");
        assert_eq!(shard.reserve_lane(), Some(2));
        assert!(shard.reserve_lane().is_none(), "no reservable lane left");
        shard.release_lane(1);
        assert_eq!(shard.reserve_lane(), Some(1));
    }

    #[test]
    fn fallover_spreads_to_other_shards() {
        let ingress = ShardedIngress::new(2, 1, 2);
        let hits = Arc::new(AtomicU64::new(0));
        // Shard 0 takes 2, then pushes must fall over to shard 1.
        for _ in 0..4 {
            ingress
                .push_from(0, counter_job(hits.clone()))
                .ok()
                .unwrap();
        }
        assert!(!ingress.shards[1].looks_empty());
        // A drainer hinted at shard 1 empties its own shard first, then
        // still collects everything.
        assert!(ingress.pop(1).is_some() && ingress.pop(1).is_some());
        assert!(ingress.shards[1].looks_empty() && !ingress.shards[0].looks_empty());
        let mut n = 2;
        while ingress.pop(1).is_some() {
            n += 1;
        }
        assert_eq!(n, 4);
    }

    /// Hammers live registration against anonymous pushes on a tiny
    /// shard: the reservation handshake must guarantee the reserved
    /// lane never has two concurrent producers, observable as exact job
    /// conservation (a lost or duplicated enqueue shows up as a count
    /// mismatch or a double-free under the test allocator).
    #[test]
    fn registration_racing_anonymous_pushes_conserves_jobs() {
        let shard = Arc::new(IngressShard::new(2, 4)); // lane 1 is the contended one
        const ANON_THREADS: u64 = 3;
        const ANON_JOBS: u64 = 4_000;
        const ROUNDS: u64 = 1_000;
        const PER_ROUND: u64 = 4;
        let drained = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let drainer = {
            let shard = shard.clone();
            let drained = drained.clone();
            let stop = stop.clone();
            std::thread::spawn(move || loop {
                if shard.try_pop().is_some() {
                    drained.fetch_add(1, Ordering::Relaxed);
                } else {
                    if stop.load(Ordering::Acquire) && shard.looks_empty() {
                        return;
                    }
                    std::thread::yield_now();
                }
            })
        };

        // Registrar: repeatedly reserve the lane on the live shard,
        // push through the reserved path, release — racing the
        // anonymous claimants below the whole time.
        let registrar = {
            let shard = shard.clone();
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    let lane = loop {
                        match shard.reserve_lane() {
                            Some(l) => break l,
                            None => std::thread::yield_now(),
                        }
                    };
                    for i in 0..PER_ROUND {
                        let mut job = job(i);
                        loop {
                            match shard.push_reserved(lane, job) {
                                Ok(()) => break,
                                Err(back) => {
                                    job = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                    shard.release_lane(lane);
                }
            })
        };

        let anons: Vec<_> = (0..ANON_THREADS)
            .map(|_| {
                let shard = shard.clone();
                std::thread::spawn(move || {
                    for i in 0..ANON_JOBS {
                        let mut job = job(i);
                        loop {
                            match shard.try_push(job) {
                                Ok(()) => break,
                                Err(back) => {
                                    job = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();

        registrar.join().unwrap();
        for a in anons {
            a.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        drainer.join().unwrap();
        let mut rest = 0;
        while shard.try_pop().is_some() {
            rest += 1;
        }
        let total = ANON_THREADS * ANON_JOBS + ROUNDS * PER_ROUND;
        assert_eq!(
            drained.load(Ordering::Relaxed) + rest,
            total,
            "registration race lost or duplicated jobs"
        );
        let (pushed, got): (u64, u64) = shard
            .lane_counters()
            .iter()
            .fold((0, 0), |(a, b), &(p, d)| (a + p, b + d));
        assert_eq!((pushed, got), (total, total));
    }

    #[test]
    fn concurrent_submitters_conserve_jobs() {
        let ingress = Arc::new(ShardedIngress::new(3, 4, 64));
        const PER_THREAD: u64 = 2_000;
        const THREADS: u64 = 6;
        let drained = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        // One drainer per shard hint, mimicking idle workers.
        let drainers: Vec<_> = (0..3usize)
            .map(|hint| {
                let ingress = ingress.clone();
                let drained = drained.clone();
                let stop = stop.clone();
                std::thread::spawn(move || loop {
                    if ingress.pop(hint).is_some() {
                        drained.fetch_add(1, Ordering::Relaxed);
                    } else {
                        if stop.load(Ordering::Acquire) && ingress.looks_empty() {
                            return;
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();

        let submitters: Vec<_> = (0..THREADS)
            .map(|t| {
                let ingress = ingress.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let mut job = job(i);
                        loop {
                            match ingress.push_from(t as usize, job) {
                                Ok(_) => break,
                                Err(back) => {
                                    job = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                })
            })
            .collect();

        for s in submitters {
            s.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        for d in drainers {
            d.join().unwrap();
        }
        // Post-join sweep for anything left between the emptiness check
        // and the last push.
        let mut rest = 0;
        while ingress.pop(0).is_some() {
            rest += 1;
        }
        assert_eq!(
            drained.load(Ordering::Relaxed) + rest,
            PER_THREAD * THREADS,
            "ingress lost or duplicated jobs"
        );
    }
}
