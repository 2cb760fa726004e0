//! Cooperative cancellation: per-job [`CancelToken`]s checked at
//! chunk-claim and taskwait boundaries.
//!
//! Cancellation is *cooperative*: nothing preempts a running body.
//! A token is installed on the job's root task (and inherited by every
//! task it spawns); workers poll it at the runtime's natural scheduling
//! points — loop drain tasks before every chunk claim, `taskwait` after
//! its quiescence wait, static loop blocks every few hundred
//! iterations. A fired token makes loop-drain tasks abandon their
//! remaining `RangePool` ranges (conserved into `cancelled_iters`) and
//! makes the next checkpoint unwind with a [`CancelUnwind`] payload,
//! which panic isolation turns into a typed job error instead of a
//! worker death.
//!
//! Tokens fire for two reasons ([`CancelReason`]): an explicit
//! `JobHandle::cancel`, or a deadline tick carried by the token itself —
//! [`CancelToken::poll`] promotes an expired deadline into the fired
//! state, so deadline enforcement needs no extra plumbing at the
//! checkpoints.
//!
//! A token is an `Arc` over any [`CancelSource`]: a plain
//! [`CancelToken::new`] allocates a bare [`CancelFlag`], while the task
//! server builds its jobs' tokens over the job cell itself, so the
//! tokens a job's tasks inherit cost no allocation of their own.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use xgomp_profiling::clock;

const LIVE: u32 = 0;
const CANCELLED: u32 = 1;
const DEADLINE: u32 = 2;

/// Why a [`CancelToken`] fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelReason {
    /// `JobHandle::cancel` (or another explicit [`CancelToken::cancel`]).
    Cancelled,
    /// The token's deadline tick passed.
    DeadlineExceeded,
}

/// The flag word and deadline behind a [`CancelToken`].
///
/// Embeddable, so a reference-counted owner can hand out tokens that
/// share its own count instead of allocating a separate one (the task
/// server's job cell does; see [`CancelSource`]).
#[derive(Debug)]
pub struct CancelFlag {
    /// `LIVE` / `CANCELLED` / `DEADLINE`. Monotone: once non-live it
    /// never goes back, and the first writer's reason wins.
    state: AtomicU32,
    /// Deadline in [`clock::now`] ticks; `u64::MAX` = no deadline.
    deadline: u64,
}

impl CancelFlag {
    /// A live flag that fires on its own once `clock::now()` passes
    /// `deadline` (in clock ticks; `u64::MAX` = never).
    pub const fn new(deadline: u64) -> Self {
        CancelFlag {
            state: AtomicU32::new(LIVE),
            deadline,
        }
    }

    /// Fires the flag with [`CancelReason::Cancelled`]. Idempotent; a
    /// reason already recorded (either kind) is kept.
    pub fn cancel(&self) {
        let _ = self
            .state
            .compare_exchange(LIVE, CANCELLED, Ordering::Release, Ordering::Relaxed);
    }

    /// Fires the flag with [`CancelReason::DeadlineExceeded`].
    pub fn expire(&self) {
        let _ = self
            .state
            .compare_exchange(LIVE, DEADLINE, Ordering::Release, Ordering::Relaxed);
    }

    /// The deadline tick, if this flag carries one.
    pub fn deadline_tick(&self) -> Option<u64> {
        (self.deadline != u64::MAX).then_some(self.deadline)
    }

    /// Checkpoint poll: see [`CancelToken::poll`].
    #[inline]
    pub fn poll(&self) -> Option<CancelReason> {
        match self.state.load(Ordering::Acquire) {
            CANCELLED => Some(CancelReason::Cancelled),
            DEADLINE => Some(CancelReason::DeadlineExceeded),
            _ => {
                if self.deadline != u64::MAX && clock::now() >= self.deadline {
                    self.expire();
                    Some(CancelReason::DeadlineExceeded)
                } else {
                    None
                }
            }
        }
    }

    /// Whether the flag has fired (without promoting deadlines).
    #[inline]
    pub fn is_fired(&self) -> bool {
        self.state.load(Ordering::Acquire) != LIVE
    }
}

/// Anything that owns a [`CancelFlag`] and can be shared behind an
/// `Arc`: the allocation a [`CancelToken`] keeps alive.
pub trait CancelSource: Send + Sync + 'static {
    /// The flag every token over this source reads and fires.
    fn cancel_flag(&self) -> &CancelFlag;
}

impl CancelSource for CancelFlag {
    fn cancel_flag(&self) -> &CancelFlag {
        self
    }
}

/// A shared cancellation flag for one job, cloned into every task the
/// job spawns. Checking is one relaxed load on the fast path (plus one
/// clock read when a deadline is set).
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<dyn CancelSource>,
}

impl CancelToken {
    /// A live token with no deadline.
    pub fn new() -> Self {
        Self::with_deadline_tick(u64::MAX)
    }

    /// A live token that fires on its own once `clock::now()` passes
    /// `deadline` (in clock ticks; `u64::MAX` = never).
    pub fn with_deadline_tick(deadline: u64) -> Self {
        Self::from_source(Arc::new(CancelFlag::new(deadline)))
    }

    /// A token over an existing source's flag. Clones share the
    /// source's reference count, so no allocation of its own is made.
    pub fn from_source(source: Arc<dyn CancelSource>) -> Self {
        CancelToken { inner: source }
    }

    #[inline]
    fn flag(&self) -> &CancelFlag {
        self.inner.cancel_flag()
    }

    /// Fires the token with [`CancelReason::Cancelled`]. Idempotent;
    /// a reason already recorded (either kind) is kept.
    pub fn cancel(&self) {
        self.flag().cancel();
    }

    /// Fires the token with [`CancelReason::DeadlineExceeded`] now,
    /// ahead of its deadline tick ([`poll`](Self::poll) does the same
    /// once the tick passes).
    pub fn expire(&self) {
        self.flag().expire();
    }

    /// The deadline tick, if this token carries one.
    pub fn deadline_tick(&self) -> Option<u64> {
        self.flag().deadline_tick()
    }

    /// Checkpoint poll: the fired reason, if any. Promotes an expired
    /// deadline into the fired state as a side effect, so a token with a
    /// deadline fires even if nobody ever calls [`expire`](Self::expire).
    #[inline]
    pub fn poll(&self) -> Option<CancelReason> {
        self.flag().poll()
    }

    /// Whether the token has fired (without promoting deadlines).
    #[inline]
    pub fn is_fired(&self) -> bool {
        self.flag().is_fired()
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("fired", &self.poll())
            .field("deadline", &self.deadline_tick())
            .finish()
    }
}

/// The unwind payload raised at a cancellation checkpoint. Panic
/// isolation (`isolate_panics` teams — the task server always) catches
/// it like any panic; the service layer downcasts it to complete the
/// job's handle with a typed error instead of a `JobPanic`
/// (crate `xgomp-service`) message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CancelUnwind(pub CancelReason);

/// Raises the cancellation unwind for `reason`. `resume_unwind` rather
/// than `panic!`, so the default panic hook stays silent — a cancelled
/// job is not an error worth a backtrace.
#[cold]
pub fn raise_cancel(reason: CancelReason) -> ! {
    std::panic::resume_unwind(Box::new(CancelUnwind(reason)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_fires_once_and_first_reason_wins() {
        let t = CancelToken::new();
        assert_eq!(t.poll(), None);
        assert!(!t.is_fired());
        t.cancel();
        t.expire(); // lost: the cancel got there first
        assert_eq!(t.poll(), Some(CancelReason::Cancelled));
        assert!(t.is_fired());
    }

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        c.cancel();
        assert_eq!(t.poll(), Some(CancelReason::Cancelled));
    }

    #[test]
    fn tokens_over_a_source_share_its_count() {
        struct Owner {
            flag: CancelFlag,
        }
        impl CancelSource for Owner {
            fn cancel_flag(&self) -> &CancelFlag {
                &self.flag
            }
        }
        let owner = Arc::new(Owner {
            flag: CancelFlag::new(u64::MAX),
        });
        let t = CancelToken::from_source(owner.clone());
        let c = t.clone();
        assert_eq!(Arc::strong_count(&owner), 3, "clones share one count");
        c.cancel();
        assert!(owner.flag.is_fired());
        drop((t, c));
        assert_eq!(Arc::strong_count(&owner), 1);
    }

    #[test]
    fn deadline_promotes_on_poll() {
        let t = CancelToken::with_deadline_tick(1); // long past
        assert_eq!(t.poll(), Some(CancelReason::DeadlineExceeded));
        assert!(t.is_fired(), "poll promoted the expiry into the state");
        let far = CancelToken::with_deadline_tick(u64::MAX - 1);
        assert_eq!(far.poll(), None);
        assert_eq!(far.deadline_tick(), Some(u64::MAX - 1));
        assert_eq!(CancelToken::new().deadline_tick(), None);
    }

    #[test]
    fn raise_is_catchable_and_downcasts() {
        let caught = std::panic::catch_unwind(|| raise_cancel(CancelReason::DeadlineExceeded))
            .unwrap_err()
            .downcast::<CancelUnwind>()
            .expect("payload is CancelUnwind");
        assert_eq!(caught.0, CancelReason::DeadlineExceeded);
    }
}
