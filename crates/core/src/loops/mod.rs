//! Data-parallel loops: NUMA-aware iteration-space scheduling
//! ([`TaskCtx::parallel_for`]) with **two-level dynamic load balancing**.
//!
//! The runtime's tasking side reproduces the paper's *task* parallelism;
//! this module adds the other half of the fine-grained-parallelism
//! story, in the spirit of LB4OMP's dynamic loop-scheduling library and
//! the two-level balancing literature: a `parallel_for` over an
//! iteration space with a family of [`LoopSchedule`]s, built so loop
//! work flows through the *same* NUMA machinery as tasks.
//!
//! ## Architecture
//!
//! * The logical [`IterSpace`] (1D range, 2D rectangle, triangular —
//!   see the `space` module) lowers to flat u64 *scheduling units*,
//!   blocked across NUMA zones proportionally to each zone's worker
//!   count; each zone's share is seeded into the `main`
//!   [`PaneSet`] of its `ZonePool`, which waves
//!   it through ≤u32 panes drained by one packed atomic word — claims
//!   and steals cost one CAS per *chunk*, never per iteration, plus one
//!   CAS per pane refill. Each zone also carries an initially empty
//!   `inbox` pane set, the landing pad for balancer migrations.
//! * One *loop-drain task* per worker is spawned with zone-affine
//!   placement ([`Scope::spawn_on`](crate::Scope::spawn_on) → the
//!   scheduler's targeted push). Drain tasks are ordinary tasks: the DLB
//!   engine can migrate them like any other task, the tree barrier
//!   counts them, and parked workers are woken for them through the
//!   ordinary `xqueue::parker` push-wake path — loop quiescence needs no
//!   second mechanism.
//! * **Fine level (reactive, intra-loop):** a drain task claims chunks
//!   from **its executor's own zone pools first** (main, then inbox);
//!   only when both are dry does it *steal-split* a remote zone's pools
//!   (taking the upper half, exactly like stealing the cold end of a
//!   deque), visiting remote pools in nearest-first rotation — the NA-RP
//!   zone-local-first victim order applied to iteration ranges. A stolen
//!   range's tail is re-deposited into the thief's own zone pool when
//!   that pool is empty, so one steal feeds a whole zone.
//! * **Coarse level (proactive, cross-loop):** every pool-backed loop
//!   registers with the team's [`LoopBalancer`], which watches per-zone
//!   claim-rate EWMAs across *all* live loops and migrates back-half
//!   ranges from the slowest zone into starved zones' inboxes *before*
//!   they run dry — see the `balancer` module docs for the policy and
//!   the seqlock protocol that keeps migrations invisible to the drain
//!   tasks' exit scan.
//! * The loop completes through the ordinary structured-spawn path: the
//!   calling task `scope`s the drain tasks (helping while it waits), and
//!   every drain task `taskwait`s its own children, so a body that
//!   spawns nested tasks is fully quiesced before `parallel_for`
//!   returns — which is what lets loops compose with the task server's
//!   `pause()`/generation machinery unchanged.
//!
//! ## Schedules
//!
//! | Schedule | Chunking | Use |
//! |----------|----------|-----|
//! | [`Static`](LoopSchedule::Static) | one NUMA-blocked contiguous block per worker, no pools | uniform iteration cost |
//! | [`Dynamic(c)`](LoopSchedule::Dynamic) | fixed chunks of `c` from the zone pools | known-irregular cost, small loops |
//! | [`Guided(m)`](LoopSchedule::Guided) | `remaining / (2 · zone workers)`, floored at `m` | irregular cost, decreasing tail |
//! | [`Adaptive`](LoopSchedule::Adaptive) | chunk ≈ `TARGET_TICKS` ÷ live per-iteration cost estimate (decade histogram, LB4OMP-style), scaled down per zone by its relative drain rate | unknown or shifting cost |
//! | [`Tss { first, last }`](LoopSchedule::Tss) | trapezoid: linear decrement from `first` to `last` over `⌈2N/(first+last)⌉` chunks | mildly decreasing cost, low scheduling overhead |
//! | [`Factoring`](LoopSchedule::Factoring) | batched halving: `⌈N/(P·2^(b+1))⌉` per chunk of batch `b` (P chunks per batch) | high-variance cost |
//! | [`WeightedFactoring`](LoopSchedule::WeightedFactoring) | factoring × per-zone weight from the balancer's claim-rate EWMAs | high variance on asymmetric sockets |
//! | [`Awf`](LoopSchedule::Awf) | factoring × per-zone weight from *measured* chunk execution rates | variance + unknown machine asymmetry |
//! | [`Auto`](LoopSchedule::Auto) | online per-loop-site selection over the portfolio (server-owned [`AutoSelector`]) | repeated loop sites with unknown best schedule |
//!
//! The TSS/Factoring/WF/AWF family is a pure *chunk-size policy layer*
//! (`portfolio` module) over the same pane-set claim path — see its
//! docs for the closed-form series and the `Auto` selection policy.

mod balancer;
mod portfolio;
mod space;

pub use balancer::LoopBalancer;
pub use portfolio::{
    auto_portfolio_member, AutoPick, AutoSelector, AutoSiteStatus, ChunkPolicy, LoopId,
    AUTO_CONFIRM_WINDOWS, AUTO_FALLBACK, AUTO_PORTFOLIO_LEN, AUTO_TRIALS_PER_MEMBER,
};
pub use space::{IterSpace, LoopSpace, SpaceKind, DEFAULT_TILE};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use xgomp_profiling::{clock, decade_index, EventKind, TraceLevel, WorkerStats};
// (`serde` is used by `LoopReport`; the shim derive cannot handle the
// data-carrying variants of `LoopSchedule`, which stays plain.)
use xgomp_xqueue::{Backoff, PaneSet, DEFAULT_PANE_UNITS};

use crate::ctx::TaskCtx;
use crate::util::CachePadded;

/// Iteration-space scheduling policy of a [`TaskCtx::parallel_for`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopSchedule {
    /// NUMA-blocked static partition: each worker gets one contiguous
    /// block, zone-affinely placed; no pools, no stealing. Lowest
    /// overhead, no balancing.
    Static,
    /// Fixed-size chunks claimed from the zone pools (OpenMP
    /// `schedule(dynamic, c)`); `0` is treated as `1`.
    Dynamic(u32),
    /// Exponentially decreasing chunks — half the pool's remainder
    /// divided by the zone's workers, floored at the given minimum
    /// (OpenMP `schedule(guided, m)`); `0` is treated as `1`.
    Guided(u32),
    /// Chunk size derived online from the loop's live per-iteration
    /// cost: each chunk's duration feeds a decade histogram, and the
    /// next chunk targets a fixed time budget divided by the modal
    /// per-iteration cost (LB4OMP-style self-tuning). v2: the budget is
    /// additionally scaled per *zone* — a zone draining slower than the
    /// fastest one (slow remote memory, fewer effective workers) claims
    /// proportionally smaller chunks, so its tail stays balanceable.
    Adaptive,
    /// Trapezoid self-scheduling (Tzen–Ni): chunk sizes decrease
    /// *linearly* from `first` to `last` over `⌈2N/(first+last)⌉`
    /// chunks — guided's decreasing tail with a bounded, predictable
    /// series. `first`/`last` are clamped into `1 ≤ last ≤ first`.
    Tss {
        /// First chunk's size (a common choice is `N / (2·P)`).
        first: u32,
        /// Smallest chunk the series decays to (commonly `1`).
        last: u32,
    },
    /// Factoring (Hummel–Schonberg–Flynn, exact-halving variant): each
    /// *batch* of `P` chunks hands out half the remaining work, so a
    /// chunk of batch `b` has `⌈N/(P·2^(b+1))⌉` units — more tail
    /// chunks than guided, robust to high iteration-cost variance.
    Factoring,
    /// [`Factoring`](Self::Factoring) with each zone's chunks scaled by
    /// its claim-rate weight (the balancer's EWMA signal): fast zones
    /// take proportionally bigger chunks, slow zones keep their tail
    /// balanceable.
    WeightedFactoring,
    /// Adaptive weighted factoring: like
    /// [`WeightedFactoring`](Self::WeightedFactoring), but the weights
    /// come from *measured* per-chunk execution rates (the same chunk
    /// timing that feeds the live sampler), so they track observed
    /// speed rather than the claim-rate proxy.
    Awf,
    /// Online per-loop-site auto-selection: the serving team's
    /// [`AutoSelector`] trials the portfolio across repeated instances
    /// of the same loop site (keyed by [`LoopId`] or space shape),
    /// scores by measured makespan and converges on the fastest with
    /// two-window hysteresis. Outside a server (no selector attached)
    /// it falls back to [`AUTO_FALLBACK`].
    Auto,
}

impl LoopSchedule {
    /// Stable index into the per-schedule telemetry
    /// ([`xgomp_profiling::LOOP_SCHEDULE_NAMES`] order).
    pub fn index(self) -> usize {
        match self {
            LoopSchedule::Static => 0,
            LoopSchedule::Dynamic(_) => 1,
            LoopSchedule::Guided(_) => 2,
            LoopSchedule::Adaptive => 3,
            LoopSchedule::Tss { .. } => 4,
            LoopSchedule::Factoring => 5,
            LoopSchedule::WeightedFactoring => 6,
            LoopSchedule::Awf => 7,
            LoopSchedule::Auto => 8,
        }
    }

    /// Human-readable schedule name.
    pub fn name(self) -> &'static str {
        xgomp_profiling::LOOP_SCHEDULE_NAMES[self.index()]
    }
}

/// Why a loop could not be run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopError {
    /// The space exceeds what the waving layer can schedule: more than
    /// 2⁶² scheduling units ([`xgomp_xqueue::MAX_SHARE_UNITS`]), or an
    /// element count that overflows u64. Ordinary giant spaces —
    /// including >u32::MAX-iteration ranges — are *not* errors anymore;
    /// they auto-wave through panes.
    RangeTooLarge {
        /// The rejected space's element count (saturated at `u64::MAX`
        /// when the true count overflows).
        len: u64,
    },
}

impl std::fmt::Display for LoopError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopError::RangeTooLarge { len } => write!(
                f,
                "iteration space exceeds the schedulable bound of 2^62 units \
                 (got {len} elements); split it into multiple loops"
            ),
        }
    }
}

impl std::error::Error for LoopError {}

/// What a completed [`TaskCtx::parallel_for`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LoopReport {
    /// Iterations executed (the full range length unless the job's
    /// cancellation token fired mid-loop).
    pub iterations: u64,
    /// Iterations abandoned *un-executed* because the job's cancellation
    /// token fired mid-loop (drain tasks empty the remaining pools
    /// without running them). `iterations + cancelled_iters` equals the
    /// range length exactly — the cancellation conservation identity.
    pub cancelled_iters: u64,
    /// Chunks the iteration space was claimed in.
    pub chunks: u64,
    /// Chunks claimed from the executing worker's own zone pools (the
    /// zone-local-first fast path; static blocks count when they ran in
    /// their home zone).
    pub claimed_local: u64,
    /// Cross-zone range steal-splits performed (the fine, reactive
    /// balancing level).
    pub range_steals: u64,
    /// Inter-socket balancer migrations applied to this loop (the
    /// coarse, proactive level).
    pub rebalances: u64,
    /// Iterations the balancer moved *into* starved zones' inboxes.
    /// Always equals [`migrated_out`](Self::migrated_out) — the
    /// conservation identity the test suite asserts per loop.
    pub migrated_in: u64,
    /// Iterations the balancer moved *out of* rich zones' pools.
    pub migrated_out: u64,
}

/// Chunk-duration target of the adaptive schedule, in clock ticks
/// (~tens of µs on a GHz-class TSC: long enough to amortize a claim CAS,
/// short enough to rebalance a skewed tail).
const ADAPTIVE_TARGET_TICKS: u64 = 1 << 17;
/// First-chunk size while the cost histogram is still empty.
const ADAPTIVE_SEED_CHUNK: u32 = 32;
/// Hard ceiling on an adaptive chunk (keeps a mis-estimated cheap body
/// from swallowing a whole pool in one claim).
const ADAPTIVE_MAX_CHUNK: u32 = 1 << 16;
/// Static blocks have no chunk boundaries, so they poll the job's
/// cancellation token every this-many iterations instead (a power of
/// two: the gate is one mask + branch per iteration).
const STATIC_CANCEL_STRIDE: u32 = 256;

/// Live per-iteration cost model of one `Adaptive` loop: a decade
/// histogram updated once per chunk (weighted by the chunk's iteration
/// count) and read as its modal decade.
#[derive(Debug)]
struct AdaptiveCost {
    buckets: [AtomicU64; 9],
}

impl AdaptiveCost {
    fn new() -> Self {
        AdaptiveCost {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Folds one chunk of `iters` iterations that took `ticks` in.
    fn record_chunk(&self, iters: u64, ticks: u64) {
        let per_iter = ticks / iters.max(1);
        self.buckets[decade_index(per_iter)].fetch_add(iters, Ordering::Relaxed);
    }

    /// Modal per-iteration cost estimate: the geometric midpoint
    /// (≈ 3·10^i) of the decade holding the most iterations. `None`
    /// before the first sample. Allocation-free: this runs on the chunk
    /// claim path.
    fn estimate(&self) -> Option<u64> {
        let (mut best_i, mut best_c) = (0usize, 0u64);
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > best_c {
                (best_i, best_c) = (i, c);
            }
        }
        if best_c == 0 {
            return None;
        }
        Some(3 * 10u64.pow(best_i as u32))
    }
}

/// Pane-size override for tests: forces waved pools on small spaces so
/// the refill/steal/abandon machinery is exercised without giant loops.
/// `0` = use [`DEFAULT_PANE_UNITS`]. Set-once and process-global (never
/// reset): a consistent small pane size is correctness-neutral for every
/// loop test.
static TEST_PANE_UNITS: AtomicU64 = AtomicU64::new(0);

/// Forces every subsequently seeded zone pool to wave in panes of 4096
/// scheduling units. Test hook — not part of the public API.
#[doc(hidden)]
pub fn force_small_panes_for_tests() {
    TEST_PANE_UNITS.store(4096, Ordering::Relaxed);
}

fn pane_units() -> u64 {
    match TEST_PANE_UNITS.load(Ordering::Relaxed) {
        0 => DEFAULT_PANE_UNITS,
        p => p,
    }
}

/// One NUMA zone's iteration pools: the seeded `main` share plus the
/// balancer-fed `inbox` (empty until a migration lands). Both are
/// [`PaneSet`]s — u64 unit shares waved through ≤u32 panes — so a zone's
/// share of a giant space costs the same one CAS per chunk as before,
/// plus one CAS per pane refill.
#[derive(Debug)]
pub(crate) struct ZonePool {
    /// The zone's seeded share of the unit space.
    pub(crate) main: PaneSet,
    /// Landing pad for inter-socket migrations. A separate pool — rather
    /// than depositing into `main` — is what makes the coarse level
    /// *proactive*: a zone can receive work while its own share still
    /// has units left (deposits only land in empty pools).
    pub(crate) inbox: PaneSet,
}

impl ZonePool {
    fn new(lo: u64, hi: u64, pane: u64) -> Self {
        ZonePool {
            main: PaneSet::with_pane_units(lo, hi, pane),
            inbox: PaneSet::with_pane_units(0, 0, pane),
        }
    }

    /// Racy total remaining units across both pools — the zone's whole
    /// *logical* share (all pending panes), not just the active pane.
    pub(crate) fn remaining(&self) -> u64 {
        self.main.remaining().saturating_add(self.inbox.remaining())
    }

    /// Racy zone claim-rate estimate (units per tick).
    fn claim_rate(&self) -> f64 {
        self.main.claim_rate() + self.inbox.claim_rate()
    }

    /// Seqlock-validated emptiness of both pane sets (a pane mid-refill
    /// is in neither pool, so the racy `remaining() == 0` is not enough
    /// for an exit decision).
    fn definitely_empty(&self) -> bool {
        self.main.is_definitely_empty() && self.inbox.is_definitely_empty()
    }
}

/// The `'static` heart of one running pool-backed loop: the per-zone
/// pools plus the balancer-facing state. Shared between the loop's
/// drain tasks (via [`LoopShared`]) and the team's [`LoopBalancer`]
/// registry, which is why it is split out of the stack-borrowing
/// `LoopShared`.
#[derive(Debug)]
pub(crate) struct LoopCore {
    /// One pool pair per NUMA zone that hosts workers, zone-rank order.
    pub(crate) pools: Box<[CachePadded<ZonePool>]>,
    /// pool index → worker count of that zone (guided/adaptive divisor).
    pub(crate) zone_workers: Box<[u32]>,
    /// Migration seqlock: odd while a balancer migration is in flight
    /// (range in neither pool). Drain tasks validate their final
    /// all-pools-empty scan against an even, unchanged epoch before
    /// concluding the loop's iteration space is fully claimed.
    pub(crate) epoch: AtomicU64,
    /// Balancer migrations applied to this loop.
    pub(crate) rebalances: AtomicU64,
    /// Iterations migrated into inboxes / out of mains (conserved).
    pub(crate) migrated_in: AtomicU64,
    pub(crate) migrated_out: AtomicU64,
}

impl LoopCore {
    /// Seqlock-validated scan: every pool (mains and inboxes) is empty
    /// with no pane refill in flight anywhere.
    fn all_empty(&self) -> bool {
        self.pools.iter().all(|p| p.0.definitely_empty())
    }

    /// Adaptive v2 zone scaling: shrink `base` by this zone's claim rate
    /// relative to the fastest zone's (per worker), clamped to `[¼, 1]`.
    /// Unsampled rates (loop younger than one balancer probe) leave the
    /// chunk unscaled.
    fn zone_chunk_scale(&self, pool: usize, base: u32) -> u32 {
        let per_worker =
            |i: usize| self.pools[i].0.claim_rate() / f64::from(self.zone_workers[i].max(1));
        let mine = per_worker(pool);
        let best = (0..self.pools.len()).map(per_worker).fold(0.0, f64::max);
        if best <= f64::EPSILON || mine >= best {
            return base;
        }
        let scale = (mine / best).clamp(0.25, 1.0);
        (((f64::from(base)) * scale) as u32).max(1)
    }

    /// Weighted-factoring weight of `pool`: its per-worker claim rate
    /// relative to the *mean* across sampled zones, clamped to `[¼, 4]`
    /// (1.0 while this zone — or every zone — is unsampled). Unlike
    /// [`zone_chunk_scale`](Self::zone_chunk_scale) this is symmetric:
    /// fast zones scale *up* past 1, which is what lets WF hand them
    /// proportionally bigger factoring chunks.
    fn zone_weight(&self, pool: usize) -> f64 {
        let per_worker =
            |i: usize| self.pools[i].0.claim_rate() / f64::from(self.zone_workers[i].max(1));
        let mine = per_worker(pool);
        if mine <= f64::EPSILON {
            return 1.0;
        }
        let (sum, n) = (0..self.pools.len())
            .map(per_worker)
            .filter(|r| *r > f64::EPSILON)
            .fold((0.0f64, 0u32), |(s, n), r| (s + r, n + 1));
        if n == 0 {
            return 1.0;
        }
        (mine / (sum / f64::from(n))).clamp(0.25, 4.0)
    }
}

/// The monomorphization boundary between the shared, unit-typed
/// scheduling machinery and a specific space's point decode: runs units
/// `[lo, hi)` through the user body on the given ctx, returning the
/// *element* count executed. Built (generically, so the per-element loop
/// inlines) by `try_parallel_for`.
type UnitRunner<'b> = dyn Fn(u64, u64, &TaskCtx<'_>) -> u64 + Sync + 'b;

/// Shared state of one running loop (lives on `parallel_for`'s frame;
/// drain tasks borrow it through the scope).
struct LoopShared<'b> {
    /// The logical space (`pools` hold its scheduling units; element
    /// accounting converts through its O(1) prefix math).
    space: &'b IterSpace,
    schedule: LoopSchedule,
    /// The registered, balancer-visible pool state.
    core: Arc<LoopCore>,
    /// zone id → pool index (zones without workers map to pool 0 — they
    /// can only appear if a placement changes under a migrated task,
    /// which the runtime never does mid-region).
    pool_of_zone: Box<[usize]>,
    cost: AdaptiveCost,
    /// Per-loop state of the TSS/Factoring/WF/AWF chunk-size policy
    /// layer (`None` for the classic schedules).
    portfolio: Option<ChunkPolicy>,
    /// Loop-wide totals, flushed once per drain task. Iteration counts
    /// are *elements*; chunk/steal counts are claim events; the migrated
    /// counters on [`LoopCore`] are units.
    chunks: AtomicU64,
    iters: AtomicU64,
    claimed_local: AtomicU64,
    range_steals: AtomicU64,
    cancelled_iters: AtomicU64,
    runner: &'b UnitRunner<'b>,
}

/// Per-drain-task counter accumulator (flushed once, so the shared
/// totals see one `fetch_add` per drain task, not per chunk).
#[derive(Default)]
struct DriveStats {
    chunks: u64,
    iters: u64,
    claimed_local: u64,
    range_steals: u64,
    cancelled: u64,
}

impl<'b> LoopShared<'b> {
    /// Runs units `[lo, hi)` through the runner on `ctx`; `pool` is the
    /// zone pool the chunk is accounted to (AWF rate measurement).
    fn run_chunk(
        &self,
        ctx: &TaskCtx<'_>,
        lo: u64,
        hi: u64,
        pool: usize,
        local: bool,
        acc: &mut DriveStats,
    ) {
        let units = hi - lo;
        let adaptive = matches!(self.schedule, LoopSchedule::Adaptive);
        let awf = matches!(self.schedule, LoopSchedule::Awf);
        let sampler = ctx.team.sampler.as_deref();
        // Chunk durations feed the adaptive cost model, the AWF weight
        // accumulators and — when a live sampler is wired (task server)
        // — the Table-IV adaptive controller, so loop-heavy workloads
        // retune the DLB engine from their real chunk grain, not just
        // from whole drain-task sizes.
        let timed = adaptive || awf || sampler.is_some();
        let t0 = if timed { clock::now() } else { 0 };
        acc.iters += (self.runner)(lo, hi, ctx);
        if timed {
            let dt = clock::now().saturating_sub(t0);
            if adaptive {
                // The cost model is per *unit* (a tile for 2D/triangular
                // spaces), matching the unit-typed chunk sizes below.
                self.cost.record_chunk(units, dt);
            }
            if awf {
                if let Some(p) = &self.portfolio {
                    p.record_pool(pool, units, dt);
                }
            }
            if let Some(s) = sampler {
                s.record(ctx.worker_id(), dt);
            }
        }
        acc.chunks += 1;
        if local {
            acc.claimed_local += 1;
        }
    }

    /// Consumes one scheduling step of the portfolio policy (no-op for
    /// the classic schedules). Called once per *successful* claim, so a
    /// dry-pool probe never skips a series entry.
    fn note_claimed(&self) {
        if let Some(p) = &self.portfolio {
            p.advance();
        }
    }

    /// Next chunk size (in units) for a claim from pool `pool` (see the
    /// schedule table in the [module docs](self)).
    fn chunk_size(&self, pool: usize) -> u32 {
        let zone_workers = u64::from(self.core.zone_workers[pool].max(1));
        match self.schedule {
            LoopSchedule::Static => unreachable!("static loops never claim from pools"),
            LoopSchedule::Dynamic(c) => c.max(1),
            LoopSchedule::Guided(min) => {
                // `remaining` spans the zone's whole logical share (all
                // pending panes), so guided decay follows the space, not
                // the active pane.
                let remaining = self.core.pools[pool].0.remaining();
                (remaining / (2 * zone_workers)).clamp(u64::from(min.max(1)), u64::from(u32::MAX))
                    as u32
            }
            LoopSchedule::Adaptive => {
                let base = match self.cost.estimate() {
                    Some(per_unit) => (ADAPTIVE_TARGET_TICKS / per_unit.max(1))
                        .clamp(1, ADAPTIVE_MAX_CHUNK as u64)
                        as u32,
                    None => ADAPTIVE_SEED_CHUNK,
                };
                // v2: per-zone scaling from the balancer's rate signal.
                let base = self.core.zone_chunk_scale(pool, base);
                // Tail cap against the *logical* remaining share — a
                // giant waved loop keeps one continuous cost histogram
                // and its chunks are capped by the space's true tail,
                // never re-shrunk at each pane boundary.
                let fair = (self.core.pools[pool].0.remaining() / zone_workers).max(1);
                u64::from(base).min(fair) as u32
            }
            // The portfolio policies: size from the loop-global series
            // (peeked — the step advances on claim success), weighted
            // per zone for WF (claim-rate EWMAs) and AWF (measured
            // execution rates).
            LoopSchedule::Tss { .. } | LoopSchedule::Factoring => self
                .portfolio
                .as_ref()
                .expect("portfolio schedules build a ChunkPolicy")
                .peek(1.0),
            LoopSchedule::WeightedFactoring => {
                let p = self
                    .portfolio
                    .as_ref()
                    .expect("portfolio schedules build a ChunkPolicy");
                p.peek(self.core.zone_weight(pool))
            }
            LoopSchedule::Awf => {
                let p = self
                    .portfolio
                    .as_ref()
                    .expect("portfolio schedules build a ChunkPolicy");
                p.peek(p.pool_weight(pool))
            }
            LoopSchedule::Auto => {
                unreachable!("Auto resolves to a concrete schedule before run_loop")
            }
        }
    }

    /// The dynamic-family drain loop one worker runs: claim zone-local
    /// (main, then inbox), steal-split remote (nearest-first) when dry,
    /// share stolen tails through the local pool — and, at every chunk
    /// boundary, give the inter-socket balancer its probe chance and the
    /// job's cancellation token a checkpoint.
    fn drive(&self, ctx: &TaskCtx<'_>) {
        let zone = ctx.numa_zone();
        let my = *self.pool_of_zone.get(zone).unwrap_or(&0);
        let n_pools = self.core.pools.len();
        let balancer = &ctx.team.balancer;
        let my_stats = &ctx.team.stats[ctx.worker_id()];
        let token = ctx.cancel_token();
        let mut acc = DriveStats::default();
        let mut backoff = Backoff::new();
        'outer: loop {
            // Cancellation checkpoint, once per chunk claim: a fired
            // token turns this drain task into an abandoner — it empties
            // the remaining pools *without executing them*, conserving
            // every abandoned iteration into `cancelled_iters`.
            if token.as_ref().is_some_and(|t| t.poll().is_some()) {
                self.abandon_pools(&mut acc);
                break 'outer;
            }
            // Coarse level: the probe gate is one clock read when the
            // interval has not elapsed (and a no-op when disabled).
            if balancer.maybe_probe(Some(my_stats)) {
                // Our probe migrated a back-half range between zones —
                // a coarse-level decision worth a lifecycle record.
                ctx.trace_emit(TraceLevel::Lifecycle, EventKind::Rebalance, my as u32, 0, 0);
            }
            // Zone-local first: the claim costs one CAS and keeps the
            // iterations in the zone whose block they belong to. The
            // inbox holds balancer migrations — zone property too.
            let mine = &self.core.pools[my].0;
            let want = self.chunk_size(my);
            let claimed = mine.main.claim(want).or_else(|| mine.inbox.claim(want));
            if let Some((lo, hi)) = claimed {
                self.note_claimed();
                ctx.trace_emit(TraceLevel::Full, EventKind::ChunkClaim, my as u32, lo, hi);
                self.run_chunk(ctx, lo, hi, my, true, &mut acc);
                backoff.reset();
                continue;
            }
            // Local pools dry: steal-split a remote zone, nearest-first
            // rotation (the NA-RP victim order for iteration ranges). A
            // pane-set steal prefers whole pending panes, so a waved
            // space migrates pane tails, not scalar slivers.
            let mut stolen = None;
            for d in 1..n_pools {
                let p = &self.core.pools[(my + d) % n_pools].0;
                if let Some(r) = p.main.steal_half().or_else(|| p.inbox.steal_half()) {
                    stolen = Some(r);
                    break;
                }
            }
            if let Some((mut lo, hi)) = stolen {
                acc.range_steals += 1;
                ctx.trace_emit(TraceLevel::Full, EventKind::RangeSteal, my as u32, lo, hi);
                // Drain the stolen range: keep one chunk, hand the tail
                // to the (empty) local pool so zone peers share the
                // spoils.
                while lo < hi {
                    // A stolen range can be half a pool — keep the
                    // chunk-claim cancellation cadence inside it too.
                    // The un-run remainder is ours alone (already out of
                    // every pool), so its *elements* are counted here
                    // (O(1) prefix math) and the pools are abandoned
                    // separately.
                    if token.as_ref().is_some_and(|t| t.poll().is_some()) {
                        acc.cancelled += self.space.elems_in(lo, hi);
                        self.abandon_pools(&mut acc);
                        break 'outer;
                    }
                    let take = u64::from(self.chunk_size(my)).min(hi - lo);
                    self.note_claimed();
                    let (clo, chi) = (lo, lo + take);
                    lo += take;
                    if lo < hi && mine.main.deposit_if_empty(lo, hi) {
                        lo = hi;
                    }
                    self.run_chunk(ctx, clo, chi, my, false, &mut acc);
                }
                backoff.reset();
                continue;
            }
            // Every pool looked empty — but a balancer migration in
            // flight holds a range in *neither* pool. Seqlock-validate
            // the scan (even epoch, unchanged across a re-scan) before
            // concluding the iteration space is fully claimed; on
            // failure, yield and retry (migrations are two CASes, so the
            // window is nanoseconds unless the prober was preempted).
            let e = self.core.epoch.load(Ordering::SeqCst);
            let empty = e & 1 == 0 && self.core.all_empty();
            // Standard seqlock reader: the fence orders the (relaxed)
            // pool-word scan before the validating epoch re-read, so the
            // scan cannot be satisfied by values newer than the epoch we
            // validate against.
            std::sync::atomic::fence(Ordering::Acquire);
            if empty && self.core.epoch.load(Ordering::SeqCst) == e {
                break 'outer;
            }
            backoff.snooze();
        }
        self.flush(ctx, acc);
    }

    /// Cancellation drain: empties every pool without executing,
    /// counting the abandoned **elements** into `acc.cancelled` — each
    /// drained unit range converts through the space's O(1) prefix math,
    /// so abandoning billions of units never iterates them. The scan is
    /// validated against the migration seqlock exactly like the normal
    /// empty exit — a balancer migration in flight holds a range in
    /// *neither* pool, and a blind drain would strand those units and
    /// break the conservation identity. Concurrent abandoners are fine:
    /// a pane-set drain hands every unit to exactly one drainer.
    fn abandon_pools(&self, acc: &mut DriveStats) {
        let mut backoff = Backoff::new();
        loop {
            for p in self.core.pools.iter() {
                let mut cancelled = 0u64;
                p.0.main
                    .drain_all_with(|lo, hi| cancelled += self.space.elems_in(lo, hi));
                p.0.inbox
                    .drain_all_with(|lo, hi| cancelled += self.space.elems_in(lo, hi));
                acc.cancelled += cancelled;
            }
            let e = self.core.epoch.load(Ordering::SeqCst);
            let empty = e & 1 == 0 && self.core.all_empty();
            std::sync::atomic::fence(Ordering::Acquire);
            if empty && self.core.epoch.load(Ordering::SeqCst) == e {
                return;
            }
            backoff.snooze();
        }
    }

    /// Flushes a drain task's accumulated counters into the worker's
    /// stats block and the loop totals.
    fn flush(&self, ctx: &TaskCtx<'_>, acc: DriveStats) {
        let stats = &ctx.team.stats[ctx.worker_id()];
        WorkerStats::add(&stats.nloop_chunks, acc.chunks);
        WorkerStats::add(&stats.nloop_iters, acc.iters);
        WorkerStats::add(&stats.nloop_claim_local, acc.claimed_local);
        WorkerStats::add(&stats.nloop_range_steals, acc.range_steals);
        WorkerStats::add(&stats.nloop_cancelled_iters, acc.cancelled);
        self.chunks.fetch_add(acc.chunks, Ordering::Relaxed);
        self.iters.fetch_add(acc.iters, Ordering::Relaxed);
        self.claimed_local
            .fetch_add(acc.claimed_local, Ordering::Relaxed);
        self.range_steals
            .fetch_add(acc.range_steals, Ordering::Relaxed);
        self.cancelled_iters
            .fetch_add(acc.cancelled, Ordering::Relaxed);
    }
}

/// Deregisters a loop from the balancer when the loop frame unwinds or
/// returns — a panicking body must not leave its pools registered.
struct Registration {
    balancer: Arc<LoopBalancer>,
    core: Arc<LoopCore>,
}

impl Drop for Registration {
    fn drop(&mut self) {
        self.balancer.deregister(&self.core);
    }
}

impl<'t> TaskCtx<'t> {
    /// Executes `body` for every point of `space`, in parallel, under
    /// the given [`LoopSchedule`] — the data-parallel counterpart of
    /// [`scope`](Self::scope).
    ///
    /// `space` is anything implementing [`LoopSpace`]: a plain integer
    /// range (`Point = u64`; ranges beyond `u32::MAX` iterations
    /// auto-wave through panes) or an explicit [`IterSpace`]
    /// (`Point = (row, col)` for 2D/triangular shapes — see
    /// [`parallel_for_2d`](Self::parallel_for_2d) and
    /// [`parallel_for_tri`](Self::parallel_for_tri)).
    ///
    /// The space is NUMA-blocked across the team's zones and drained
    /// through per-zone pane sets by one loop-drain task per worker
    /// (zone-affinely placed; see the [module docs](self) for the two
    /// balancing levels). The call returns only when every iteration
    /// *and every task spawned by the body* has completed, so `body` may
    /// borrow from the enclosing frame, exactly like
    /// [`Scope::spawn`](crate::Scope::spawn).
    ///
    /// `body` runs on arbitrary workers; it receives the point and the
    /// executing worker's [`TaskCtx`] (for nested spawns and topology
    /// queries).
    ///
    /// # Panics
    ///
    /// Panics on an invalid space ([`LoopError`]: beyond 2⁶² scheduling
    /// units, or an element count overflowing u64); use
    /// [`try_parallel_for`](Self::try_parallel_for) to handle that as a
    /// value instead. Panics from `body` propagate like task panics
    /// (isolated per job under a serving team, poisoning otherwise).
    pub fn parallel_for<S, F>(&self, space: S, schedule: LoopSchedule, body: F) -> LoopReport
    where
        S: LoopSpace,
        F: Fn(S::Point, &TaskCtx<'_>) + Sync,
    {
        self.try_parallel_for(space, schedule, body)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`parallel_for`](Self::parallel_for): an invalid space
    /// comes back as [`LoopError::RangeTooLarge`] instead of a panic,
    /// with the body untouched (zero iterations run).
    pub fn try_parallel_for<S, F>(
        &self,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<LoopReport, LoopError>
    where
        S: LoopSpace,
        F: Fn(S::Point, &TaskCtx<'_>) + Sync,
    {
        self.try_parallel_for_impl(None, space, schedule, body)
    }

    /// [`parallel_for`](Self::parallel_for) with an explicit loop-site
    /// identity: [`LoopSchedule::Auto`] keys its per-site selection
    /// state by `site` instead of the space's shape, so distinct loops
    /// over same-shaped spaces converge independently (and one loop
    /// whose shape varies run-to-run still shares one site).
    ///
    /// # Panics
    ///
    /// As [`parallel_for`](Self::parallel_for).
    pub fn parallel_for_at<S, F>(
        &self,
        site: LoopId,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> LoopReport
    where
        S: LoopSpace,
        F: Fn(S::Point, &TaskCtx<'_>) + Sync,
    {
        self.try_parallel_for_at(site, space, schedule, body)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`parallel_for_at`](Self::parallel_for_at).
    pub fn try_parallel_for_at<S, F>(
        &self,
        site: LoopId,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<LoopReport, LoopError>
    where
        S: LoopSpace,
        F: Fn(S::Point, &TaskCtx<'_>) + Sync,
    {
        self.try_parallel_for_impl(Some(site), space, schedule, body)
    }

    fn try_parallel_for_impl<S, F>(
        &self,
        site: Option<LoopId>,
        space: S,
        schedule: LoopSchedule,
        body: F,
    ) -> Result<LoopReport, LoopError>
    where
        S: LoopSpace,
        F: Fn(S::Point, &TaskCtx<'_>) + Sync,
    {
        let desc = space.to_space();
        desc.validate()?;
        // `Auto` resolution: consult the team's server-owned selector
        // (keyed by the caller's `LoopId`, or the space's shape), run
        // under the concrete pick and report the measured makespan back.
        // Teams without a selector (plain `Runtime` regions) fall back
        // to a fixed member. Telemetry records under the *requested*
        // schedule, so auto-dispatched loops land in the `auto` family.
        let mut auto: Option<(&Arc<AutoSelector>, u64, AutoPick)> = None;
        let effective = if matches!(schedule, LoopSchedule::Auto) {
            match &self.team.auto_select {
                Some(sel) => {
                    let key = site.map_or_else(|| portfolio::space_site_key(&desc), |id| id.0);
                    let pick = sel.pick(key, desc.units(), self.n_workers() as u32);
                    auto = Some((sel, key, pick));
                    pick.schedule
                }
                None => AUTO_FALLBACK,
            }
        } else {
            schedule
        };
        // The monomorphization boundary: the per-element decode loop
        // inlines the body here; everything below `run_loop` is shared,
        // unit-typed machinery behind one dyn call per chunk.
        let runner =
            |lo: u64, hi: u64, ctx: &TaskCtx<'_>| S::run_units(&desc, lo, hi, |p| body(p, ctx));
        let t0 = if auto.is_some() { clock::now() } else { 0 };
        let report = run_loop(self, &desc, effective, &runner);
        if let Some((sel, key, pick)) = auto {
            sel.report(key, pick, clock::now().saturating_sub(t0).max(1));
        }
        if let Some(lt) = &self.team.loop_stats {
            lt.record_loop(
                schedule.index(),
                desc.kind().index(),
                report.chunks,
                report.iterations,
                report.range_steals,
                report.rebalances,
            );
        }
        Ok(report)
    }

    /// collapse(2): executes `body` for every `(row, col)` of the
    /// `rows × cols` rectangle, scheduled as [`DEFAULT_TILE`]² tiles
    /// (use [`IterSpace::rect_tiled`] with
    /// [`parallel_for`](Self::parallel_for) for explicit tiling).
    pub fn parallel_for_2d<F>(
        &self,
        rows: u64,
        cols: u64,
        schedule: LoopSchedule,
        body: F,
    ) -> LoopReport
    where
        F: Fn((u64, u64), &TaskCtx<'_>) + Sync,
    {
        self.parallel_for(IterSpace::rect(rows, cols), schedule, body)
    }

    /// Triangular loop: executes `body` for every `(row, col)` with
    /// `col ≤ row < n` — the natural space of pairwise kernels —
    /// scheduled as tiles of the lower-triangular tile grid, with zero
    /// wasted (guard-skipped) iterations (use
    /// [`IterSpace::triangular_tiled`] with
    /// [`parallel_for`](Self::parallel_for) for explicit tiling).
    pub fn parallel_for_tri<F>(&self, n: u64, schedule: LoopSchedule, body: F) -> LoopReport
    where
        F: Fn((u64, u64), &TaskCtx<'_>) + Sync,
    {
        self.parallel_for(IterSpace::triangular(n), schedule, body)
    }
}

/// Builds the zone layout, seeds the pools, registers with the balancer,
/// spawns the drain tasks and waits the loop (and everything the body
/// spawned) out. Operates purely on the space's scheduling units; the
/// runner owns the unit → point decode.
fn run_loop(
    ctx: &TaskCtx<'_>,
    space: &IterSpace,
    schedule: LoopSchedule,
    runner: &UnitRunner<'_>,
) -> LoopReport {
    let units = space.units();
    if units == 0 {
        return LoopReport {
            iterations: 0,
            cancelled_iters: 0,
            chunks: 0,
            claimed_local: 0,
            range_steals: 0,
            rebalances: 0,
            migrated_in: 0,
            migrated_out: 0,
        };
    }

    let placement = ctx.placement();
    let n = ctx.n_workers() as u64;

    // Zone-major worker order: zones (ascending) that actually host
    // workers, each zone's workers ascending. Position k of this order
    // owns the static block [units·k/n, units·(k+1)/n) — contiguous unit
    // blocks whose per-zone unions are exactly the zone shares the pools
    // seed. Unit order is row-major (tile) order, so a zone's share is a
    // contiguous band of tile rows — the NUMA-aware zone blocking for
    // 2D/triangular spaces. u128 intermediate: units can reach 2⁶².
    let zones: Vec<usize> = (0..placement.topology().zones())
        .filter(|&z| !placement.workers_in_zone(z).is_empty())
        .collect();
    let mut pool_of_zone = vec![0usize; placement.topology().zones()];
    for (rank, &z) in zones.iter().enumerate() {
        pool_of_zone[z] = rank;
    }
    let block = |k: u64| (units as u128 * k as u128 / n as u128) as u64;

    if matches!(schedule, LoopSchedule::Static) {
        return run_static(ctx, space, &zones, block, runner);
    }

    // Seed one pool pair per zone with the zone's contiguous unit share.
    let pane = pane_units();
    let mut pools = Vec::with_capacity(zones.len());
    let mut zone_workers = Vec::with_capacity(zones.len());
    let mut pos = 0u64;
    for &z in &zones {
        let w = placement.workers_in_zone(z).len() as u64;
        pools.push(CachePadded(ZonePool::new(block(pos), block(pos + w), pane)));
        zone_workers.push(w as u32);
        pos += w;
    }

    let core = Arc::new(LoopCore {
        pools: pools.into_boxed_slice(),
        zone_workers: zone_workers.into_boxed_slice(),
        epoch: AtomicU64::new(0),
        rebalances: AtomicU64::new(0),
        migrated_in: AtomicU64::new(0),
        migrated_out: AtomicU64::new(0),
    });

    // Coarse-level registration: the balancer only arbitrates across
    // zones, so single-zone loops stay off its probe list. The guard
    // deregisters on every exit path (body panics included).
    let _registration = (core.pools.len() > 1).then(|| {
        let balancer = ctx.team.balancer.clone();
        balancer.register(&core);
        Registration {
            balancer,
            core: core.clone(),
        }
    });

    let shared = LoopShared {
        space,
        schedule,
        portfolio: ChunkPolicy::for_schedule(schedule, units, n as u32, core.pools.len()),
        core: core.clone(),
        pool_of_zone: pool_of_zone.into_boxed_slice(),
        cost: AdaptiveCost::new(),
        chunks: AtomicU64::new(0),
        iters: AtomicU64::new(0),
        claimed_local: AtomicU64::new(0),
        range_steals: AtomicU64::new(0),
        cancelled_iters: AtomicU64::new(0),
        runner,
    };

    ctx.scope(|s| {
        let shared = &shared;
        for &z in &zones {
            for &tw in placement.workers_in_zone(z) {
                s.spawn_on(tw, move |tctx| {
                    shared.drive(tctx);
                    // Nested spawns from the body quiesce before the
                    // drain task completes, so `parallel_for`'s own
                    // scope-wait covers the whole loop subtree.
                    tctx.taskwait();
                });
            }
        }
    });

    let report = LoopReport {
        iterations: shared.iters.load(Ordering::Relaxed),
        cancelled_iters: shared.cancelled_iters.load(Ordering::Relaxed),
        chunks: shared.chunks.load(Ordering::Relaxed),
        claimed_local: shared.claimed_local.load(Ordering::Relaxed),
        range_steals: shared.range_steals.load(Ordering::Relaxed),
        rebalances: core.rebalances.load(Ordering::Relaxed),
        migrated_in: core.migrated_in.load(Ordering::Relaxed),
        migrated_out: core.migrated_out.load(Ordering::Relaxed),
    };
    debug_assert_eq!(
        report.iterations + report.cancelled_iters,
        space.len(),
        "executed + cancelled covers the space exactly"
    );
    report
}

/// The static schedule: one contiguous NUMA-blocked unit block per
/// worker, executed by its zone-affinely placed drain task; no pools.
fn run_static(
    ctx: &TaskCtx<'_>,
    space: &IterSpace,
    zones: &[usize],
    block: impl Fn(u64) -> u64,
    runner: &UnitRunner<'_>,
) -> LoopReport {
    let placement = ctx.placement();
    let chunks = AtomicU64::new(0);
    let claimed_local = AtomicU64::new(0);
    let iters = AtomicU64::new(0);
    let cancelled = AtomicU64::new(0);
    ctx.scope(|s| {
        let chunks = &chunks;
        let claimed_local = &claimed_local;
        let iters = &iters;
        let cancelled = &cancelled;
        let mut pos = 0u64;
        for &z in zones {
            for &tw in placement.workers_in_zone(z) {
                let (lo, hi) = (block(pos), block(pos + 1));
                pos += 1;
                if lo >= hi {
                    continue; // more workers than units
                }
                s.spawn_on(tw, move |tctx| {
                    let token = tctx.cancel_token();
                    let mut done = 0u64;
                    let mut next = lo;
                    while next < hi {
                        // Cancellation checkpoint every
                        // `STATIC_CANCEL_STRIDE` units (a unit is one
                        // iteration for 1D spaces, one tile otherwise);
                        // the rest of the block is abandoned, its
                        // element count conserved in O(1) below. With no
                        // token the whole block is one runner call.
                        if token.as_ref().is_some_and(|t| t.poll().is_some()) {
                            break;
                        }
                        let stride = if token.is_some() {
                            u64::from(STATIC_CANCEL_STRIDE).min(hi - next)
                        } else {
                            hi - next
                        };
                        done += runner(next, next + stride, tctx);
                        next += stride;
                    }
                    let abandoned = space.elems_in(next, hi);
                    let stats = &tctx.team.stats[tctx.worker_id()];
                    WorkerStats::add(&stats.nloop_iters, done);
                    WorkerStats::add(&stats.nloop_cancelled_iters, abandoned);
                    iters.fetch_add(done, Ordering::Relaxed);
                    cancelled.fetch_add(abandoned, Ordering::Relaxed);
                    // A block cancelled before its first iteration never
                    // counts as a chunk (`nloop_iters >= nloop_chunks`
                    // stays an invariant).
                    if done > 0 {
                        WorkerStats::inc(&stats.nloop_chunks);
                        chunks.fetch_add(1, Ordering::Relaxed);
                        // "Local" for a static block: it ran in its home
                        // zone (DLB may have migrated the drain task).
                        if tctx.numa_zone() == z {
                            WorkerStats::inc(&stats.nloop_claim_local);
                            claimed_local.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    tctx.taskwait();
                });
            }
        }
    });
    debug_assert_eq!(
        iters.load(Ordering::Relaxed) + cancelled.load(Ordering::Relaxed),
        space.len(),
        "static blocks partition the space exactly"
    );
    LoopReport {
        iterations: iters.load(Ordering::Relaxed),
        cancelled_iters: cancelled.load(Ordering::Relaxed),
        chunks: chunks.load(Ordering::Relaxed),
        claimed_local: claimed_local.load(Ordering::Relaxed),
        range_steals: 0,
        rebalances: 0,
        migrated_in: 0,
        migrated_out: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::dlb::{DlbConfig, DlbStrategy};
    use crate::team::Runtime;
    use std::sync::atomic::AtomicU8;
    use xgomp_topology::MachineTopology;

    fn schedules() -> [LoopSchedule; 8] {
        [
            LoopSchedule::Static,
            LoopSchedule::Dynamic(64),
            LoopSchedule::Guided(16),
            LoopSchedule::Adaptive,
            LoopSchedule::Tss {
                first: 512,
                last: 8,
            },
            LoopSchedule::Factoring,
            LoopSchedule::WeightedFactoring,
            LoopSchedule::Awf,
        ]
    }

    #[test]
    fn every_schedule_runs_every_iteration_exactly_once() {
        const N: usize = 50_000;
        for sched in schedules() {
            let rt =
                Runtime::new(RuntimeConfig::xgomptb(4).dlb(DlbConfig::new(DlbStrategy::WorkSteal)));
            let out = rt.parallel(|ctx| {
                let hits: Vec<AtomicU8> = (0..N).map(|_| AtomicU8::new(0)).collect();
                let report = ctx.parallel_for(0..N as u64, sched, |i, _| {
                    hits[i as usize].fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(report.iterations, N as u64, "{}", sched.name());
                assert_eq!(report.migrated_in, report.migrated_out, "{}", sched.name());
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)
            });
            assert!(
                out.result,
                "{}: some index not hit exactly once",
                sched.name()
            );
            out.stats.check_invariants().unwrap();
            let total = out.stats.total();
            assert_eq!(total.nloop_iters, N as u64, "{}", sched.name());
            assert!(total.nloop_chunks > 0);
        }
    }

    #[test]
    fn cancelled_loops_conserve_iterations_on_every_schedule() {
        // A token fired mid-loop makes drain tasks abandon the pooled
        // remainder (static blocks break at their stride); every
        // iteration is either executed once or counted as cancelled —
        // never both, never lost. Plain (non-isolating) runtime: the
        // checkpoints don't unwind, so the report surfaces directly.
        use crate::cancel::CancelToken;
        const N: u64 = 200_000;
        for sched in schedules() {
            let rt = Runtime::new(RuntimeConfig::xgomptb(4));
            let out = rt.parallel(move |ctx| {
                let token = CancelToken::new();
                ctx.set_cancel_token(token.clone());
                let ran = AtomicU64::new(0);
                let report = ctx.parallel_for(0..N, sched, |i, _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i == 10 {
                        token.cancel();
                    }
                });
                ctx.clear_cancel_token();
                (report, ran.load(Ordering::Relaxed))
            });
            let (report, ran) = out.result;
            assert_eq!(report.iterations, ran, "{}", sched.name());
            assert_eq!(
                report.iterations + report.cancelled_iters,
                N,
                "{}: conservation",
                sched.name()
            );
            assert!(report.cancelled_iters > 0, "{}", sched.name());
            out.stats.check_invariants().unwrap();
            let total = out.stats.total();
            assert_eq!(
                total.nloop_iters + total.nloop_cancelled_iters,
                N,
                "{}: worker-stat conservation",
                sched.name()
            );
        }
    }

    #[test]
    fn offset_ranges_and_empty_ranges() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(3));
        let out = rt.parallel(|ctx| {
            let sum = AtomicU64::new(0);
            let r = ctx.parallel_for(1_000u64..1_100, LoopSchedule::Dynamic(7), |i, _| {
                sum.fetch_add(i, Ordering::Relaxed);
            });
            assert_eq!(r.iterations, 100);
            let empty = ctx.parallel_for(5..5, LoopSchedule::Adaptive, |_, _| {
                panic!("empty range must not run")
            });
            assert_eq!(empty.iterations, 0);
            sum.load(Ordering::Relaxed)
        });
        assert_eq!(out.result, (1_000u64..1_100).sum::<u64>());
    }

    #[test]
    fn single_worker_team_runs_serially() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(1));
        let out = rt.parallel(|ctx| {
            let sum = AtomicU64::new(0);
            ctx.parallel_for(0u64..1_000, LoopSchedule::Guided(8), |i, _| {
                sum.fetch_add(i + 1, Ordering::Relaxed);
            });
            sum.load(Ordering::Relaxed)
        });
        assert_eq!(out.result, (1..=1_000u64).sum::<u64>());
    }

    #[test]
    fn body_can_spawn_nested_tasks_that_finish_before_return() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let nested = Arc::new(AtomicUsize::new(0));
        let n2 = nested.clone();
        let out = rt.parallel(move |ctx| {
            ctx.parallel_for(0..64, LoopSchedule::Dynamic(4), |_, ictx| {
                let n = n2.clone();
                ictx.spawn(move |_| {
                    n.fetch_add(1, Ordering::Relaxed);
                });
            });
            // parallel_for returned: every nested spawn is done.
            n2.load(Ordering::Relaxed)
        });
        assert_eq!(out.result, 64);
        assert_eq!(nested.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn parallel_for_borrows_from_the_frame() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(|ctx| {
            let data: Vec<u64> = (0..10_000).collect();
            let sum = AtomicU64::new(0);
            ctx.parallel_for(0..data.len() as u64, LoopSchedule::Guided(32), |i, _| {
                sum.fetch_add(data[i as usize], Ordering::Relaxed);
            });
            sum.load(Ordering::Relaxed)
        });
        assert_eq!(out.result, (0..10_000u64).sum::<u64>());
    }

    #[test]
    fn range_steals_follow_zone_local_first_order() {
        // Two zones. All the *work* (slow iterations) sits in zone 1's
        // half of the space; zone 0's workers finish their own block and
        // must steal across — while zone 1's workers never steal (their
        // own pool always has work until the very end). The balancer is
        // off so the fine (reactive) level is isolated.
        let topo = MachineTopology::new(2, 2, 1); // 2 sockets × 2 cores
        let rt = Runtime::new(
            RuntimeConfig::xgomptb(4)
                .topology(topo)
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal).rebalance_interval(0)),
        );
        let out = rt.parallel(|ctx| {
            ctx.parallel_for(0..4_000, LoopSchedule::Dynamic(16), |i, _| {
                if i >= 2_000 {
                    // Zone 1's block is ~100× the cost of zone 0's.
                    for _ in 0..2_000 {
                        std::hint::spin_loop();
                    }
                }
            })
        });
        let report = out.result;
        assert_eq!(report.iterations, 4_000);
        assert!(
            report.range_steals > 0,
            "zone 0 drained its pool and must have stolen from zone 1"
        );
        assert!(
            report.claimed_local > 0,
            "local claims happen before any steal"
        );
        assert_eq!(report.rebalances, 0, "balancer disabled");
        assert_eq!(report.migrated_in, 0);
        out.stats.check_invariants().unwrap();
        // Counter-verified victim order: every steal-split was performed
        // by a worker whose own pool was dry (the drive loop only
        // reaches the steal arm after a failed local claim), and local
        // claims dominate.
        let total = out.stats.total();
        assert!(total.nloop_claim_local >= total.nloop_range_steals);
        assert_eq!(total.nloop_rebalances, 0);
    }

    #[test]
    fn balancer_migrates_into_a_starved_zone() {
        // Same skew as above, but with an aggressive probe cadence: the
        // coarse level must re-split zone 1's block into zone 0's inbox
        // (visible as rebalances on the report and on the §V counters).
        let topo = MachineTopology::new(2, 2, 1);
        let rt = Runtime::new(
            RuntimeConfig::xgomptb(4)
                .topology(topo)
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal).rebalance_interval(256)),
        );
        let out = rt.parallel(|ctx| {
            ctx.parallel_for(0..4_000, LoopSchedule::Dynamic(16), |i, _| {
                if i >= 2_000 {
                    for _ in 0..2_000 {
                        std::hint::spin_loop();
                    }
                }
            })
        });
        let report = out.result;
        assert_eq!(report.iterations, 4_000);
        assert!(
            report.rebalances > 0,
            "a starved zone with a rich neighbor must trigger a migration"
        );
        assert_eq!(report.migrated_in, report.migrated_out, "conservation");
        assert!(report.migrated_in > 0);
        out.stats.check_invariants().unwrap();
        let total = out.stats.total();
        assert_eq!(total.nloop_migrated_in, total.nloop_migrated_out);
    }

    #[test]
    fn local_pools_with_work_are_never_stolen_from_remotely() {
        // Deterministic victim-order check at the pool level: a worker
        // whose zone pools have iterations claims locally; the remote
        // pools are untouched until the local ones are dry.
        let pools: Box<[CachePadded<ZonePool>]> = vec![
            CachePadded(ZonePool::new(0, 100, DEFAULT_PANE_UNITS)),
            CachePadded(ZonePool::new(100, 200, DEFAULT_PANE_UNITS)),
        ]
        .into_boxed_slice();
        let core = LoopCore {
            pools,
            zone_workers: vec![1, 1].into_boxed_slice(),
            epoch: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            migrated_in: AtomicU64::new(0),
            migrated_out: AtomicU64::new(0),
        };
        // Claim as zone 0 until its pools are dry: no steals yet.
        while core.pools[0].0.main.claim(10).is_some() {}
        assert!(core.pools[0].0.inbox.is_empty());
        assert_eq!(core.pools[1].0.remaining(), 100, "remote pool untouched");
        // Only now does the steal arm fire: upper half of the remote
        // main pool (nearest-first rotation from the local pool).
        let my = 0usize;
        let remote = &core.pools[(my + 1) % 2].0;
        let stolen = remote
            .main
            .steal_half()
            .or_else(|| remote.inbox.steal_half());
        assert_eq!(stolen, Some((150, 200)));
    }

    #[test]
    fn loops_conserve_on_every_scheduler_backend() {
        // GOMP/LOMP have no per-worker placement queues: `spawn_to`
        // degrades to a plain spawn, and the loop must still conserve.
        for cfg in [
            RuntimeConfig::gomp(3),
            RuntimeConfig::lomp(3),
            RuntimeConfig::xgomptb(3),
        ] {
            let rt = Runtime::new(cfg);
            let out = rt.parallel(|ctx| {
                let sum = AtomicU64::new(0);
                ctx.parallel_for(0u64..5_000, LoopSchedule::Dynamic(32), |i, _| {
                    sum.fetch_add(i + 1, Ordering::Relaxed);
                });
                sum.load(Ordering::Relaxed)
            });
            assert_eq!(out.result, (1..=5_000u64).sum::<u64>());
        }
    }

    #[test]
    fn adaptive_chunks_grow_toward_the_target() {
        let cost = AdaptiveCost::new();
        assert_eq!(cost.estimate(), None, "no samples yet");
        // 1000 iterations at ~40 ticks each → decade 1 → estimate 30.
        cost.record_chunk(1_000, 40_000);
        assert_eq!(cost.estimate(), Some(30));
        // A minority of expensive chunks does not move the mode.
        cost.record_chunk(10, 10_000_000);
        assert_eq!(cost.estimate(), Some(30));
    }

    #[test]
    fn adaptive_v2_scales_chunks_by_zone_rate() {
        let core = LoopCore {
            pools: vec![
                CachePadded(ZonePool::new(0, 100, DEFAULT_PANE_UNITS)),
                CachePadded(ZonePool::new(100, 200, DEFAULT_PANE_UNITS)),
            ]
            .into_boxed_slice(),
            zone_workers: vec![1, 1].into_boxed_slice(),
            epoch: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            migrated_in: AtomicU64::new(0),
            migrated_out: AtomicU64::new(0),
        };
        // No rate samples yet: unscaled.
        assert_eq!(core.zone_chunk_scale(0, 64), 64);
        // Zone 1 claims 8× faster than zone 0 over a sampled window.
        core.pools[0].0.main.sample_rate(1_000);
        core.pools[1].0.main.sample_rate(1_000);
        core.pools[0].0.main.claim(10);
        core.pools[1].0.main.claim(80);
        core.pools[0].0.main.sample_rate(2_000);
        core.pools[1].0.main.sample_rate(2_000);
        // Slow zone's chunk shrinks (floored at ¼); fast zone unscaled.
        assert_eq!(core.zone_chunk_scale(0, 64), 16);
        assert_eq!(core.zone_chunk_scale(1, 64), 64);
    }

    #[test]
    fn oversized_spaces_return_a_typed_error() {
        use xgomp_xqueue::MAX_SHARE_UNITS;
        let rt = Runtime::new(RuntimeConfig::xgomptb(1));
        let out = rt.parallel(|ctx| {
            let err = ctx
                .try_parallel_for(0..MAX_SHARE_UNITS + 1, LoopSchedule::Static, |_, _| {
                    panic!("body must not run on a rejected space")
                })
                .unwrap_err();
            assert_eq!(
                err,
                LoopError::RangeTooLarge {
                    len: MAX_SHARE_UNITS + 1
                }
            );
            assert!(err.to_string().contains("2^62"));
            // The context stays fully usable after the rejection.
            ctx.parallel_for(0..10, LoopSchedule::Dynamic(2), |_, _| {})
                .iterations
        });
        assert_eq!(out.result, 10);
    }

    #[test]
    #[should_panic(expected = "2^62 units")]
    fn parallel_for_still_panics_loudly_on_oversized_spaces() {
        let rt = Runtime::new(RuntimeConfig::xgomptb(1));
        rt.parallel(|ctx| {
            ctx.parallel_for(
                IterSpace::rect(1 << 40, 1 << 40),
                LoopSchedule::Static,
                |_, _| {},
            );
        });
    }

    #[test]
    fn rect2d_loops_cover_every_cell_exactly_once() {
        use std::sync::atomic::AtomicU8;
        const R: u64 = 130;
        const C: u64 = 75;
        for sched in schedules() {
            let rt = Runtime::new(RuntimeConfig::xgomptb(4));
            let out = rt.parallel(|ctx| {
                let hits: Vec<AtomicU8> = (0..R * C).map(|_| AtomicU8::new(0)).collect();
                let space = IterSpace::rect_tiled(R, C, 16, 16);
                let report = ctx.parallel_for(space, sched, |(r, c), _| {
                    hits[(r * C + c) as usize].fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(report.iterations, R * C, "{}", sched.name());
                assert_eq!(report.cancelled_iters, 0, "{}", sched.name());
                assert_eq!(report.migrated_in, report.migrated_out, "{}", sched.name());
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)
            });
            assert!(
                out.result,
                "{}: some cell not hit exactly once",
                sched.name()
            );
            out.stats.check_invariants().unwrap();
        }
    }

    #[test]
    fn triangular_static_loops_waste_zero_iterations() {
        // The acceptance shape: a static triangular loop visits exactly
        // the n(n+1)/2 lower-triangle points — no guard-skipped no-ops.
        use std::sync::atomic::AtomicU8;
        const N: u64 = 101;
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(|ctx| {
            let hits: Vec<AtomicU8> = (0..N * N).map(|_| AtomicU8::new(0)).collect();
            let visits = AtomicU64::new(0);
            let report = ctx.parallel_for(
                IterSpace::triangular_tiled(N, 16),
                LoopSchedule::Static,
                |(r, c), _| {
                    assert!(c <= r && r < N, "({r},{c}) outside the triangle");
                    hits[(r * N + c) as usize].fetch_add(1, Ordering::Relaxed);
                    visits.fetch_add(1, Ordering::Relaxed);
                },
            );
            assert_eq!(report.iterations, N * (N + 1) / 2);
            assert_eq!(visits.load(Ordering::Relaxed), N * (N + 1) / 2);
            (0..N * N).all(|i| {
                let (r, c) = (i / N, i % N);
                hits[i as usize].load(Ordering::Relaxed) == u8::from(c <= r)
            })
        });
        assert!(out.result, "triangle coverage is exact — zero waste");
    }

    #[test]
    fn parallel_for_tri_balances_tiles_with_conserved_migration() {
        // Two zones, skewed tile cost, aggressive probing: the balancer
        // must migrate triangular *tiles* (pane tails) between zones and
        // the per-loop conservation identity must hold for 2D spaces.
        let topo = MachineTopology::new(2, 2, 1);
        let rt = Runtime::new(
            RuntimeConfig::xgomptb(4)
                .topology(topo)
                .dlb(DlbConfig::new(DlbStrategy::WorkSteal).rebalance_interval(256)),
        );
        let out = rt.parallel(|ctx| {
            ctx.parallel_for(
                IterSpace::triangular_tiled(256, 8),
                LoopSchedule::Dynamic(2),
                |(r, _), _| {
                    if r >= 128 {
                        for _ in 0..500 {
                            std::hint::spin_loop();
                        }
                    }
                },
            )
        });
        let report = out.result;
        assert_eq!(report.iterations, 256 * 257 / 2);
        assert_eq!(report.migrated_in, report.migrated_out, "conservation");
        out.stats.check_invariants().unwrap();
    }

    #[test]
    fn waved_loops_conserve_across_pane_refills() {
        // Small panes force the wave layer on a modest space: many
        // refills, pane-run steals and pane-tail migrations race the
        // claims, and every index is still hit exactly once.
        use std::sync::atomic::AtomicU8;
        force_small_panes_for_tests();
        const N: usize = 60_000;
        for sched in [LoopSchedule::Dynamic(64), LoopSchedule::Adaptive] {
            let topo = MachineTopology::new(2, 2, 1);
            let rt = Runtime::new(
                RuntimeConfig::xgomptb(4)
                    .topology(topo)
                    .dlb(DlbConfig::new(DlbStrategy::WorkSteal).rebalance_interval(256)),
            );
            let out = rt.parallel(|ctx| {
                let hits: Vec<AtomicU8> = (0..N).map(|_| AtomicU8::new(0)).collect();
                let report = ctx.parallel_for(0..N as u64, sched, |i, _| {
                    hits[i as usize].fetch_add(1, Ordering::Relaxed);
                });
                assert_eq!(report.iterations, N as u64, "{}", sched.name());
                assert_eq!(report.migrated_in, report.migrated_out, "{}", sched.name());
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1)
            });
            assert!(
                out.result,
                "{}: waved loop lost or repeated an index",
                sched.name()
            );
            out.stats.check_invariants().unwrap();
        }
    }

    #[test]
    fn cancelled_tiled_loops_conserve_elements() {
        use crate::cancel::CancelToken;
        const N: u64 = 600; // 180_300 elements in 8×8 tiles
        let rt = Runtime::new(RuntimeConfig::xgomptb(4));
        let out = rt.parallel(move |ctx| {
            let token = CancelToken::new();
            ctx.set_cancel_token(token.clone());
            let ran = AtomicU64::new(0);
            let report = ctx.parallel_for(
                IterSpace::triangular_tiled(N, 8),
                LoopSchedule::Dynamic(4),
                |(r, c), _| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if r == 10 && c == 10 {
                        token.cancel();
                    }
                },
            );
            ctx.clear_cancel_token();
            (report, ran.load(Ordering::Relaxed))
        });
        let (report, ran) = out.result;
        assert_eq!(report.iterations, ran);
        assert_eq!(
            report.iterations + report.cancelled_iters,
            N * (N + 1) / 2,
            "element conservation under cancellation of a tiled space"
        );
        assert!(report.cancelled_iters > 0);
        out.stats.check_invariants().unwrap();
    }
}
