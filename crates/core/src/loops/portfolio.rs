//! The LB4OMP self-scheduling **portfolio**: chunk-size policies with
//! closed-form series (TSS, Factoring, Weighted Factoring, AWF) plus the
//! online per-loop-site selector behind [`LoopSchedule::Auto`].
//!
//! The policies are a pure *chunk-size layer* over the existing
//! one-CAS-per-chunk pane-set claim path: [`ChunkPolicy`] only decides
//! *how many units* the next claim asks for, so every portfolio member
//! inherits u64 waves, 2D/triangular spaces, cancellation checkpoints
//! and seqlock-guarded migration from the shared drain loop unchanged.
//!
//! ## Chunk series
//!
//! With `N` total scheduling units and `P` workers, scheduling step `s`
//! (a loop-global counter advanced once per successful claim):
//!
//! * **TSS(f, l)** — trapezoid self-scheduling: `n = ⌈2N/(f+l)⌉` chunks,
//!   decrement `d = (f−l)/(n−1)`; chunk `s` has `max(f − s·d, l)` units.
//!   The linear decrement series of Tzen & Ni, clamped at `l`.
//! * **Factoring** — batched halving: batch `b = ⌊s/P⌋`, every chunk of
//!   a batch has `⌈N / (P·2^(b+1))⌉` units. Each batch of `P` chunks
//!   hands out half the remainder, so the series halves once per round
//!   (the exact-halving FAC2 variant of Hummel/Schonberg/Flynn).
//! * **Weighted Factoring** — the factoring series scaled per claiming
//!   *zone* by a weight from the balancer's claim-rate EWMAs (a zone
//!   draining `w×` the mean rate asks for `w×` the batch chunk).
//! * **AWF** — adaptive weighted factoring: the same shape, but the
//!   weights come from *measured per-chunk execution rates* (units per
//!   tick, folded per zone by the drain loop's existing chunk timing),
//!   so the weights track the machine actually observed, not the claim
//!   proxy.
//!
//! All sizes floor at 1 and cap at `u32::MAX` (the pane-claim width).
//!
//! ## `Schedule::Auto`
//!
//! [`AutoSelector`] is the server-owned per-loop-site selector: keyed by
//! a caller-supplied [`LoopId`] (or the space's shape when none is
//! given), it trials the portfolio across repeated loop instances,
//! scores each member by measured makespan over a fixed trial window,
//! and converges on the fastest once two consecutive sweep windows agree
//! (the Table-IV `confirm_windows` hysteresis idiom). A converged site
//! re-explores when the tuning swap epoch moves (`watch_swaps`, exactly
//! like the adaptive controller) or when its makespan drifts to ≥2× the
//! converged baseline for several consecutive runs (distribution shift).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use xgomp_profiling::LOOP_SCHEDULES;

use super::{IterSpace, LoopSchedule};
use crate::util::CachePadded;

/// Caller-supplied identity of one *loop site* — the "same loop, seen
/// again and again" key [`LoopSchedule::Auto`] selection state hangs
/// off. Use one id per static loop in your program (a hash of its name,
/// a line number, an enum — anything stable across instances).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LoopId(pub u64);

/// What `Auto` resolves to when no selector is attached to the team
/// (plain [`Runtime`](crate::Runtime) regions outside a task server).
pub const AUTO_FALLBACK: LoopSchedule = LoopSchedule::Guided(8);

/// Portfolio members the auto selector trials, in sweep order.
pub const AUTO_PORTFOLIO_LEN: usize = 7;

/// Loop instances per member per sweep window (the trial window).
pub const AUTO_TRIALS_PER_MEMBER: u32 = 2;

/// Consecutive sweep windows that must agree on a winner before the
/// site converges (the controller's `confirm_windows` hysteresis).
pub const AUTO_CONFIRM_WINDOWS: u32 = 2;

/// Consecutive converged runs at ≥2× the converged baseline makespan
/// that re-open exploration (distribution shift).
const AUTO_DRIFT_RUNS: u32 = 3;

/// The `i`-th portfolio member for a loop of `units` scheduling units on
/// `workers` workers (TSS derives its trapezoid from the shape).
pub fn auto_portfolio_member(i: usize, units: u64, workers: u32) -> LoopSchedule {
    let p = u64::from(workers.max(1));
    match i {
        0 => LoopSchedule::Dynamic(64),
        1 => LoopSchedule::Guided(8),
        2 => LoopSchedule::Adaptive,
        3 => LoopSchedule::Tss {
            first: (units / (2 * p)).clamp(1, u64::from(u32::MAX)) as u32,
            last: 1,
        },
        4 => LoopSchedule::Factoring,
        5 => LoopSchedule::WeightedFactoring,
        _ => LoopSchedule::Awf,
    }
}

/// splitmix64 — the test suites' standard mixer, reused here so site
/// keys derived from space shapes are well distributed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The implicit site key of a space: its shape, hashed. Two loops over
/// the same shape share selection state unless they pass an explicit
/// [`LoopId`].
pub(crate) fn space_site_key(space: &IterSpace) -> u64 {
    match *space {
        IterSpace::Range1D { start, len } => mix(1).wrapping_add(mix(start) ^ mix(len)),
        IterSpace::Rect2D {
            rows,
            cols,
            tile_rows,
            tile_cols,
        } => mix(2)
            .wrapping_add(mix(rows) ^ mix(cols))
            .wrapping_add(mix(u64::from(tile_rows) << 32 | u64::from(tile_cols))),
        IterSpace::Triangular { n, tile } => mix(3).wrapping_add(mix(n) ^ mix(u64::from(tile))),
    }
}

// ---------------------------------------------------------------------
// Chunk policies
// ---------------------------------------------------------------------

/// Which closed-form series a [`ChunkPolicy`] follows.
#[derive(Debug)]
enum PolicyKind {
    /// Precomputed trapezoid: `first`, per-step decrement, floor.
    Tss { first: u64, dec: u64, last: u64 },
    /// Batched halving (weight 1).
    Factoring,
    /// Batched halving, weight from the balancer's claim-rate EWMAs.
    WeightedFactoring,
    /// Batched halving, weight from measured per-zone execution rates.
    Awf,
}

/// Measured execution volume of one zone pool under AWF: units run and
/// ticks spent, folded once per chunk by the drain loop.
#[derive(Debug, Default)]
struct PoolRate {
    units: AtomicU64,
    ticks: AtomicU64,
}

/// Per-loop state of one portfolio schedule: the loop-global scheduling
/// step plus (for AWF) per-zone measured rates. Created by `run_loop`
/// for TSS/Factoring/WF/AWF loops; the golden-sequence tests drive it
/// directly, single-threaded, and pin the exact series.
#[derive(Debug)]
pub struct ChunkPolicy {
    kind: PolicyKind,
    /// Scheduling step: advanced once per successful chunk claim (not
    /// per size query, so a dry-pool probe never skips a series entry).
    step: AtomicU64,
    total: u64,
    workers: u64,
    /// Per-pool AWF rate accumulators (empty for the other kinds).
    rates: Box<[CachePadded<PoolRate>]>,
}

impl ChunkPolicy {
    /// Builds the policy for `schedule` over `total` scheduling units on
    /// `workers` workers across `pools` zone pools; `None` for the
    /// non-portfolio schedules.
    pub fn for_schedule(
        schedule: LoopSchedule,
        total: u64,
        workers: u32,
        pools: usize,
    ) -> Option<Self> {
        let kind = match schedule {
            LoopSchedule::Tss { first, last } => {
                // Tzen–Ni trapezoid: clamp the endpoints into sanity
                // (1 ≤ l ≤ f), then n = ⌈2N/(f+l)⌉ chunks and an
                // integer decrement d = (f−l)/(n−1).
                let f = u64::from(first.max(1));
                let l = u64::from(last.max(1)).min(f);
                let n = (2 * total).div_ceil(f + l).max(1);
                let dec = if n > 1 { (f - l) / (n - 1) } else { 0 };
                PolicyKind::Tss {
                    first: f,
                    dec,
                    last: l,
                }
            }
            LoopSchedule::Factoring => PolicyKind::Factoring,
            LoopSchedule::WeightedFactoring => PolicyKind::WeightedFactoring,
            LoopSchedule::Awf => PolicyKind::Awf,
            _ => return None,
        };
        let n_rates = if matches!(kind, PolicyKind::Awf) {
            pools
        } else {
            0
        };
        Some(ChunkPolicy {
            kind,
            step: AtomicU64::new(0),
            total: total.max(1),
            workers: u64::from(workers.max(1)),
            rates: (0..n_rates)
                .map(|_| CachePadded(PoolRate::default()))
                .collect(),
        })
    }

    /// The size the series assigns to scheduling step `s` under `weight`
    /// (1.0 = unweighted), floored at 1 and capped at the u32 pane-claim
    /// width.
    fn size_at(&self, s: u64, weight: f64) -> u32 {
        let base = match self.kind {
            PolicyKind::Tss { first, dec, last } => {
                first.saturating_sub(s.saturating_mul(dec)).max(last)
            }
            PolicyKind::Factoring | PolicyKind::WeightedFactoring | PolicyKind::Awf => {
                let batch = s / self.workers;
                // ⌈N / (P·2^(b+1))⌉ — half the remainder per batch of P.
                // u128 divisor: deep batches must floor to 1, not wrap.
                let div = u128::from(self.workers) << (batch + 1).min(64);
                (u128::from(self.total).div_ceil(div)).max(1) as u64
            }
        };
        let weighted = if (weight - 1.0).abs() <= f64::EPSILON {
            base
        } else {
            (base as f64 * weight).round() as u64
        };
        weighted.clamp(1, u64::from(u32::MAX)) as u32
    }

    /// Peeks the current step's chunk size without consuming it (the
    /// drain loop advances only on a successful claim).
    pub fn peek(&self, weight: f64) -> u32 {
        self.size_at(self.step.load(Ordering::Relaxed), weight)
    }

    /// Consumes one scheduling step (call once per successful claim).
    pub fn advance(&self) {
        self.step.fetch_add(1, Ordering::Relaxed);
    }

    /// `peek` + `advance` — the single-threaded driver the golden
    /// chunk-sequence tests use.
    pub fn next(&self, weight: f64) -> u32 {
        let s = self.step.fetch_add(1, Ordering::Relaxed);
        self.size_at(s, weight)
    }

    /// Folds one executed chunk (`units` over `ticks`) into pool `pool`'s
    /// AWF rate. No-op for the other kinds.
    pub fn record_pool(&self, pool: usize, units: u64, ticks: u64) {
        if let Some(r) = self.rates.get(pool) {
            r.0.units.fetch_add(units, Ordering::Relaxed);
            r.0.ticks.fetch_add(ticks.max(1), Ordering::Relaxed);
        }
    }

    /// Pool `pool`'s AWF weight: its measured execution rate relative to
    /// the mean across measured pools, clamped to `[¼, 4]`; `1.0` before
    /// any measurement (the seed batch runs unweighted).
    pub fn pool_weight(&self, pool: usize) -> f64 {
        let rate = |r: &CachePadded<PoolRate>| -> Option<f64> {
            let u = r.0.units.load(Ordering::Relaxed);
            let t = r.0.ticks.load(Ordering::Relaxed);
            (u > 0 && t > 0).then(|| u as f64 / t as f64)
        };
        let Some(mine) = self.rates.get(pool).and_then(rate) else {
            return 1.0;
        };
        let (sum, n) = self
            .rates
            .iter()
            .filter_map(rate)
            .fold((0.0, 0u32), |(s, n), r| (s + r, n + 1));
        if n == 0 {
            return 1.0;
        }
        (mine / (sum / f64::from(n))).clamp(0.25, 4.0)
    }
}

// ---------------------------------------------------------------------
// Auto selection
// ---------------------------------------------------------------------

/// One pick handed out by [`AutoSelector::pick`]: the concrete schedule
/// to run plus the attribution token the caller hands back to
/// [`AutoSelector::report`] with the measured makespan.
#[derive(Debug, Clone, Copy)]
pub struct AutoPick {
    /// The concrete portfolio member to run the loop under.
    pub schedule: LoopSchedule,
    /// Attribution token (portfolio member index).
    token: u32,
}

/// Selection phase of one loop site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Sweeping the portfolio, currently trialing `member`.
    Explore { member: usize },
    /// Converged on `member`; every pick returns it.
    Converged { member: usize },
}

/// Per-site selection state.
#[derive(Debug)]
struct SiteState {
    phase: Phase,
    /// Makespan-tick sums and run counts of the current sweep window.
    score: [u64; AUTO_PORTFOLIO_LEN],
    runs: [u32; AUTO_PORTFOLIO_LEN],
    /// Winner of the previous completed sweep + agreement streak.
    prev_winner: Option<usize>,
    agree: u32,
    /// Completed sweep windows (monotone; test observability).
    sweeps: u32,
    /// Converged-state EWMA baseline makespan and drift streak.
    baseline: u64,
    slow_runs: u32,
}

impl SiteState {
    fn fresh() -> Self {
        SiteState {
            phase: Phase::Explore { member: 0 },
            score: [0; AUTO_PORTFOLIO_LEN],
            runs: [0; AUTO_PORTFOLIO_LEN],
            prev_winner: None,
            agree: 0,
            sweeps: 0,
            baseline: 0,
            slow_runs: 0,
        }
    }

    /// Re-opens exploration (epoch change / drift), keeping only the
    /// monotone sweep counter.
    fn reexplore(&mut self) {
        let sweeps = self.sweeps;
        *self = SiteState::fresh();
        self.sweeps = sweeps;
    }
}

/// Point-in-time view of one site's selection state (test/debug
/// observability; see [`AutoSelector::site_status`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoSiteStatus {
    /// The converged member's portfolio index, `None` while exploring.
    pub converged: Option<usize>,
    /// Completed sweep windows (monotone — grows again after a
    /// re-exploration).
    pub sweeps: u32,
    /// Makespan reports folded in so far, current window only.
    pub window_runs: u32,
}

/// The server-owned online schedule selector behind
/// [`LoopSchedule::Auto`] (see the `loops::portfolio` module docs for the policy).
/// One instance rides across generations; `parallel_for` consults it
/// through the team when a loop is submitted as `Auto`.
#[derive(Debug, Default)]
pub struct AutoSelector {
    sites: Mutex<HashMap<u64, SiteState>>,
    /// External tuning-swap epoch (the server's `swap_epoch`); a change
    /// re-opens exploration at every site, mirroring the adaptive
    /// controller's `watch_swaps`.
    swap_epoch: Mutex<Option<Arc<AtomicU64>>>,
    epoch_seen: AtomicU64,
    /// Selections handed out, by concrete schedule family index
    /// (`xgomp_loop_auto_selected_total{schedule=...}`).
    selected: [AtomicU64; LOOP_SCHEDULES],
}

impl AutoSelector {
    /// A selector with no sites and no swap watch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the external tuning-swap epoch: every bump re-opens
    /// exploration at every site (the converged answer was measured
    /// under the old tuning).
    pub fn watch_swaps(&self, epoch: Arc<AtomicU64>) {
        *self
            .swap_epoch
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(epoch);
    }

    fn current_epoch(&self) -> u64 {
        self.swap_epoch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .map_or(0, |e| e.load(Ordering::Acquire))
    }

    /// Picks the schedule for the next instance of site `key` — a loop
    /// of `units` scheduling units on `workers` workers. Hand the
    /// returned pick's makespan back via [`report`](Self::report).
    pub fn pick(&self, key: u64, units: u64, workers: u32) -> AutoPick {
        let epoch = self.current_epoch();
        let mut sites = self.sites.lock().unwrap_or_else(PoisonError::into_inner);
        if self.epoch_seen.swap(epoch, Ordering::AcqRel) != epoch {
            // Tuning swapped: every converged answer is stale.
            for s in sites.values_mut() {
                s.reexplore();
            }
        }
        let st = sites.entry(key).or_insert_with(SiteState::fresh);
        let member = match st.phase {
            Phase::Explore { member } => member,
            Phase::Converged { member } => member,
        };
        let schedule = auto_portfolio_member(member, units, workers);
        self.selected[schedule.index().min(LOOP_SCHEDULES - 1)].fetch_add(1, Ordering::Relaxed);
        AutoPick {
            schedule,
            token: member as u32,
        }
    }

    /// Folds one completed instance's measured makespan (ticks) back
    /// into site `key`. `pick` is the value [`pick`](Self::pick)
    /// returned for that instance (attribution survives concurrent
    /// in-flight instances: a report whose member no longer matches the
    /// site's current focus is dropped rather than mis-scored).
    pub fn report(&self, key: u64, pick: AutoPick, makespan_ticks: u64) {
        let m = pick.token as usize;
        let mut sites = self.sites.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(st) = sites.get_mut(&key) else {
            return;
        };
        match st.phase {
            Phase::Explore { member } if member == m => {
                st.score[m] = st.score[m].saturating_add(makespan_ticks.max(1));
                st.runs[m] += 1;
                if st.runs[m] < AUTO_TRIALS_PER_MEMBER {
                    return;
                }
                if m + 1 < AUTO_PORTFOLIO_LEN {
                    st.phase = Phase::Explore { member: m + 1 };
                    return;
                }
                // Sweep complete: score by mean makespan, lowest wins.
                st.sweeps += 1;
                let winner = (0..AUTO_PORTFOLIO_LEN)
                    .min_by_key(|&i| st.score[i] / u64::from(st.runs[i].max(1)))
                    .unwrap_or(0);
                let mean = st.score[winner] / u64::from(st.runs[winner].max(1));
                if st.prev_winner == Some(winner) {
                    st.agree += 1;
                } else {
                    st.agree = 1;
                }
                st.prev_winner = Some(winner);
                if st.agree >= AUTO_CONFIRM_WINDOWS {
                    st.phase = Phase::Converged { member: winner };
                    st.baseline = mean.max(1);
                    st.slow_runs = 0;
                } else {
                    st.phase = Phase::Explore { member: 0 };
                    st.score = [0; AUTO_PORTFOLIO_LEN];
                    st.runs = [0; AUTO_PORTFOLIO_LEN];
                }
            }
            Phase::Converged { member } if member == m => {
                // Drift watch: sustained ≥2× the converged baseline
                // re-opens exploration; in-band runs keep the EWMA warm.
                if makespan_ticks > st.baseline.saturating_mul(2) {
                    st.slow_runs += 1;
                    if st.slow_runs >= AUTO_DRIFT_RUNS {
                        st.reexplore();
                    }
                } else {
                    st.slow_runs = 0;
                    st.baseline = (3 * st.baseline + makespan_ticks.max(1)) / 4;
                }
            }
            // Stale attribution (site moved on mid-flight): drop.
            _ => {}
        }
    }

    /// Selections handed out so far, by concrete schedule family index
    /// ([`xgomp_profiling::LOOP_SCHEDULE_NAMES`] order; the `auto` slot
    /// itself is always zero — picks are always concrete).
    pub fn selected_counts(&self) -> [u64; LOOP_SCHEDULES] {
        std::array::from_fn(|i| self.selected[i].load(Ordering::Relaxed))
    }

    /// Site `key`'s current selection state, `None` if never picked.
    pub fn site_status(&self, key: u64) -> Option<AutoSiteStatus> {
        let sites = self.sites.lock().unwrap_or_else(PoisonError::into_inner);
        sites.get(&key).map(|st| AutoSiteStatus {
            converged: match st.phase {
                Phase::Converged { member } => Some(member),
                Phase::Explore { .. } => None,
            },
            sweeps: st.sweeps,
            window_runs: st.runs.iter().sum(),
        })
    }
}
