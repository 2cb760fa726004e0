//! Task representation and lifecycle.
//!
//! A [`Task`] is a heap-allocated record carrying its body, a pointer to
//! its parent task, an unfinished-children counter (the `taskwait`
//! condition), and an intrusive reference count that keeps the record
//! alive while children may still decrement the parent's counter.
//!
//! ## Inline bodies
//!
//! The body is a [`TaskBody`]: closures of up to [`INLINE_BODY_BYTES`]
//! (8-byte aligned) are stored *inside* the record, larger ones are
//! boxed and the box is stored inline instead. A typical task therefore
//! costs one allocation, its record, the way GOMP allocates a task and
//! its argument block in a single `malloc`; under
//! [`AllocKind::MultiLevel`](crate::AllocKind::MultiLevel) the record
//! itself is recycled, so such a task allocates nothing at all.
//!
//! ## Reference-counting protocol
//!
//! * A task is born with `refs = 1` (the *handle* reference owned by
//!   whoever will eventually execute it: a queue slot, or the spawning
//!   worker on the immediate-execution path).
//! * Spawning a child *retains* the parent once; the child *releases*
//!   that reference after it completes (right after decrementing the
//!   parent's `unfinished_children`).
//! * When `refs` reaches zero the record is returned to the allocator.
//!
//! The dependency updates are atomic RMW operations — exactly as in the
//! paper's XGOMP, which keeps "atomically update the parent task's
//! dependency" while removing the global task lock (§III-A). The
//! *lock-less* claims apply to the queues, the DLB messaging, and the
//! barrier release path, not to dependency counting.

use std::cell::UnsafeCell;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

use crate::cancel::CancelToken;
use crate::ctx::TaskCtx;

/// Bytes of closure a `TaskBody` stores without boxing.
pub const INLINE_BODY_BYTES: usize = 48;

type InlineBuf = MaybeUninit<[u64; INLINE_BODY_BYTES / 8]>;

/// The type-erased operations of one closure type stored in a body.
struct BodyVTable {
    /// Moves the closure out of the buffer and calls it.
    call: unsafe fn(*mut u8, &TaskCtx<'_>),
    /// Drops the closure in place, uncalled.
    drop: unsafe fn(*mut u8),
}

struct Thunk<F>(PhantomData<F>);

impl<F: FnOnce(&TaskCtx<'_>)> Thunk<F> {
    const VTABLE: BodyVTable = BodyVTable {
        call: Self::call,
        drop: Self::drop,
    };

    /// # Safety
    ///
    /// `p` holds a live `F`, which this call consumes.
    unsafe fn call(p: *mut u8, ctx: &TaskCtx<'_>) {
        // SAFETY: forwarded from the caller.
        let f = unsafe { p.cast::<F>().read() };
        f(ctx)
    }

    /// # Safety
    ///
    /// `p` holds a live `F`, which this call drops.
    unsafe fn drop(p: *mut u8) {
        // SAFETY: forwarded from the caller.
        unsafe { p.cast::<F>().drop_in_place() }
    }
}

/// A task body: a closure consumed exactly once when the task executes,
/// stored inline when it fits (see the module docs). A body without a
/// closure (implicit tasks, and every body once run) is *empty*.
pub(crate) struct TaskBody {
    /// `None` when empty.
    vtable: Option<&'static BodyVTable>,
    buf: InlineBuf,
}

// SAFETY: every constructor requires the stored closure to be `Send`.
unsafe impl Send for TaskBody {}

impl TaskBody {
    const EMPTY: TaskBody = TaskBody {
        vtable: None,
        buf: InlineBuf::uninit(),
    };

    /// Wraps a `'static` closure.
    pub(crate) fn new<F>(f: F) -> Self
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'static,
    {
        // SAFETY: a `'static` closure borrows nothing that could end.
        unsafe { Self::new_unchecked(f) }
    }

    /// Wraps a closure that may borrow from the spawning frame.
    ///
    /// # Safety
    ///
    /// The body must run or be dropped before any borrow `F` holds
    /// ends (the guarantee `TaskCtx::scope`'s implicit taskwait gives).
    pub(crate) unsafe fn new_unchecked<'a, F>(f: F) -> Self
    where
        F: FnOnce(&TaskCtx<'_>) + Send + 'a,
    {
        if Self::fits::<F>() {
            // SAFETY: checked just above.
            unsafe { Self::inline(f) }
        } else {
            // SAFETY: a box is one pointer, which always fits.
            unsafe { Self::inline(Box::new(f)) }
        }
    }

    const fn fits<F>() -> bool {
        std::mem::size_of::<F>() <= std::mem::size_of::<InlineBuf>()
            && std::mem::align_of::<F>() <= std::mem::align_of::<InlineBuf>()
    }

    /// # Safety
    ///
    /// `F` must fit the inline buffer (`fits::<F>()`).
    unsafe fn inline<F: FnOnce(&TaskCtx<'_>)>(f: F) -> Self {
        debug_assert!(Self::fits::<F>());
        let mut buf = InlineBuf::uninit();
        // SAFETY: the buffer is large and aligned enough for `F`.
        unsafe { buf.as_mut_ptr().cast::<F>().write(f) };
        TaskBody {
            vtable: Some(&Thunk::<F>::VTABLE),
            buf,
        }
    }

    /// Runs the body where it lies, leaving it empty; a no-op on an
    /// empty body. Running in place spares the executor's frame a copy
    /// of the buffer, which counts where `execute` frames nest.
    ///
    /// # Safety
    ///
    /// `this` must be valid, and nothing else may access it during the
    /// call.
    unsafe fn run_in_place(this: *mut TaskBody, ctx: &TaskCtx<'_>) {
        // SAFETY: forwarded from the caller. The vtable is cleared
        // before the call, so a panicking closure — moved out of the
        // buffer by `call` — is never dropped a second time.
        unsafe {
            if let Some(vt) = (*this).vtable.take() {
                (vt.call)(std::ptr::addr_of_mut!((*this).buf).cast(), ctx);
            }
        }
    }
}

impl Drop for TaskBody {
    fn drop(&mut self) {
        if let Some(vt) = self.vtable {
            // SAFETY: a non-empty body still holds its closure.
            unsafe { (vt.drop)(self.buf.as_mut_ptr().cast()) }
        }
    }
}

/// A caught panic payload, carried from a panicking child to its
/// parent's next `taskwait` (panic-isolating teams only).
pub(crate) type PanicPayload = Box<dyn std::any::Any + Send + 'static>;

/// One schedulable task.
///
/// Created by [`crate::ctx::TaskCtx::spawn`] and friends; users never see
/// this type directly — it is `pub` only for the benchmark harness's
/// allocator ablations.
pub struct Task {
    /// The body; empty for implicit (root) tasks and after execution.
    body: UnsafeCell<TaskBody>,
    /// Parent task; retained while this task is alive.
    parent: Option<NonNull<Task>>,
    /// Direct children that have not completed yet (taskwait condition).
    unfinished_children: AtomicU64,
    /// Intrusive reference count (see module docs).
    refs: AtomicU32,
    /// Worker that created this task (locality accounting).
    creator: u32,
    /// GOMP-style priority (higher runs first in the GOMP scheduler).
    priority: i32,
    /// Claim word for `child_panic` (first panicking child wins).
    child_panic_claimed: AtomicBool,
    /// Payload of the first child that panicked (panic-isolating teams;
    /// written under the claim, read by the executor after quiescence).
    child_panic: UnsafeCell<Option<PanicPayload>>,
    /// Cancellation token, inherited by spawned children. Written by
    /// the executing worker (job wrapper install) and read at spawn
    /// time by the same worker — the single-executor discipline that
    /// guards `body` covers it, and queue handoff publishes it to
    /// whichever worker executes a child.
    cancel: UnsafeCell<Option<CancelToken>>,
}

// The record must stay within one 128-byte allocator size class (a
// 120-byte request plus the allocator's header): inline bodies are only
// a gain while they do not push every task into the next class.
const _: () = assert!(std::mem::size_of::<Task>() <= 120);

// SAFETY: bodies are `Send`; all shared mutable state is atomic or
// guarded by the single-executor discipline (`body` is run exactly once
// by the executing worker).
unsafe impl Send for Task {}
unsafe impl Sync for Task {}

impl Task {
    /// Creates a task record. `parent`, when present, must already have
    /// been retained on behalf of this child.
    pub(crate) fn new(
        body: Option<TaskBody>,
        parent: Option<NonNull<Task>>,
        creator: u32,
        priority: i32,
    ) -> Self {
        Task {
            body: UnsafeCell::new(body.unwrap_or(TaskBody::EMPTY)),
            parent,
            unfinished_children: AtomicU64::new(0),
            refs: AtomicU32::new(1),
            creator,
            priority,
            child_panic_claimed: AtomicBool::new(false),
            child_panic: UnsafeCell::new(None),
            cancel: UnsafeCell::new(None),
        }
    }

    /// Re-initializes a recycled record in place (multi-level allocator
    /// fast path). The record must be dead (`refs == 0`, body empty).
    ///
    /// # Safety
    ///
    /// `this` must point to a record previously released to the allocator
    /// by [`release_ref`](Self::release_ref) returning `true`.
    pub(crate) unsafe fn reinit(
        this: NonNull<Task>,
        body: Option<TaskBody>,
        parent: Option<NonNull<Task>>,
        creator: u32,
        priority: i32,
    ) {
        // SAFETY: caller guarantees exclusive access to a dead record.
        let t = unsafe { &mut *this.as_ptr() };
        debug_assert_eq!(*t.refs.get_mut(), 0, "reinit of a live task");
        *t.body.get_mut() = body.unwrap_or(TaskBody::EMPTY);
        t.parent = parent;
        *t.unfinished_children.get_mut() = 0;
        *t.refs.get_mut() = 1;
        t.creator = creator;
        t.priority = priority;
        *t.child_panic_claimed.get_mut() = false;
        *t.child_panic.get_mut() = None;
        *t.cancel.get_mut() = None;
    }

    /// Installs (or clears) the cancellation token on this task.
    ///
    /// # Safety
    ///
    /// Only the executing worker may call this (single-executor
    /// discipline), and not while a child spawn could be reading it.
    #[inline]
    pub(crate) unsafe fn set_cancel(this: NonNull<Task>, token: Option<CancelToken>) {
        // SAFETY: single-executor discipline gives exclusive access.
        unsafe { *(*this.as_ptr()).cancel.get() = token };
    }

    /// The task's cancellation token, if one is installed.
    ///
    /// # Safety
    ///
    /// Only the executing worker may call this (single-executor
    /// discipline).
    #[inline]
    pub(crate) unsafe fn cancel_token(this: NonNull<Task>) -> Option<CancelToken> {
        // SAFETY: single-executor discipline; clone leaves the slot set.
        unsafe { (*(*this.as_ptr()).cancel.get()).clone() }
    }

    /// The worker that created this task.
    #[inline]
    pub(crate) fn creator(&self) -> usize {
        self.creator as usize
    }

    /// GOMP priority.
    #[inline]
    pub(crate) fn priority(&self) -> i32 {
        self.priority
    }

    /// Parent pointer (root/implicit tasks have none).
    #[inline]
    pub(crate) fn parent(&self) -> Option<NonNull<Task>> {
        self.parent
    }

    /// Number of direct children that have not completed.
    #[inline]
    pub(crate) fn unfinished_children(&self) -> u64 {
        self.unfinished_children.load(Ordering::Acquire)
    }

    /// Registers a new child (called by the spawning worker, which *is*
    /// the executor of this task, before making the child visible).
    #[inline]
    pub(crate) fn add_child(&self) {
        self.unfinished_children.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one child complete. `Release` so the parent's `taskwait`
    /// acquire-load observes everything the child did.
    #[inline]
    pub(crate) fn child_completed(&self) {
        let prev = self.unfinished_children.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "child_completed underflow");
    }

    /// Runs the body (a no-op for implicit tasks), leaving it empty.
    ///
    /// # Safety
    ///
    /// Only the executing worker may call this, exactly once per
    /// task activation (single-executor discipline).
    #[inline]
    pub(crate) unsafe fn run_body(this: NonNull<Task>, ctx: &TaskCtx<'_>) {
        // SAFETY: single-executor discipline gives exclusive body access.
        unsafe { TaskBody::run_in_place((*this.as_ptr()).body.get(), ctx) }
    }

    /// Deposits the panic payload of a failed child; the first child to
    /// panic wins, later payloads are dropped. Called by the child's
    /// executor *before* `child_completed`, so the parent's quiescence
    /// check (`unfinished_children == 0`, acquire) also orders this
    /// write before any `take_child_panic`.
    pub(crate) fn record_child_panic(&self, payload: PanicPayload) {
        if self
            .child_panic_claimed
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            // SAFETY: the claim grants exclusive write access; no reader
            // runs until this child has also counted as completed.
            unsafe { *self.child_panic.get() = Some(payload) };
        }
    }

    /// Takes the recorded child panic, if any, re-arming the slot so a
    /// later child panic (after the caller handled this one) is not
    /// silently swallowed. Only the task's executor may call this, and
    /// only while no child is in flight.
    pub(crate) fn take_child_panic(&self) -> Option<PanicPayload> {
        if self.child_panic_claimed.load(Ordering::Acquire) {
            // SAFETY: single-executor discipline + quiescence (no child
            // can be writing concurrently).
            let payload = unsafe { (*self.child_panic.get()).take() };
            self.child_panic_claimed.store(false, Ordering::Release);
            payload
        } else {
            None
        }
    }

    /// Increments the reference count.
    #[inline]
    pub(crate) fn retain(&self) {
        let prev = self.refs.fetch_add(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "retain of a dead task");
    }

    /// Decrements the reference count; returns `true` when this was the
    /// last reference and the record may be recycled.
    #[inline]
    pub(crate) fn release_ref(&self) -> bool {
        let prev = self.refs.fetch_sub(1, Ordering::Release);
        debug_assert!(prev > 0, "release_ref underflow");
        if prev == 1 {
            // Synchronize with all prior releases before the record is
            // reused (standard Arc-style protocol).
            std::sync::atomic::fence(Ordering::Acquire);
            true
        } else {
            false
        }
    }
}

impl std::fmt::Debug for Task {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Task")
            .field("creator", &self.creator)
            .field("priority", &self.priority)
            .field(
                "unfinished_children",
                &self.unfinished_children.load(Ordering::Relaxed),
            )
            .field("refs", &self.refs.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refcount_protocol() {
        let t = Task::new(None, None, 0, 0);
        t.retain();
        assert!(!t.release_ref());
        assert!(t.release_ref());
    }

    #[test]
    fn child_accounting() {
        let t = Task::new(None, None, 3, 0);
        assert_eq!(t.unfinished_children(), 0);
        t.add_child();
        t.add_child();
        assert_eq!(t.unfinished_children(), 2);
        t.child_completed();
        assert_eq!(t.unfinished_children(), 1);
        t.child_completed();
        assert_eq!(t.unfinished_children(), 0);
        assert_eq!(t.creator(), 3);
        assert!(t.release_ref());
    }

    #[test]
    fn reinit_resets_everything() {
        let boxed = Box::new(Task::new(None, None, 1, 5));
        let ptr = NonNull::new(Box::into_raw(boxed)).unwrap();
        // Kill it, then reinit as a different task.
        unsafe {
            assert!((*ptr.as_ptr()).release_ref());
            Task::reinit(ptr, None, None, 7, -2);
            let t = ptr.as_ref();
            assert_eq!(t.creator(), 7);
            assert_eq!(t.priority(), -2);
            assert_eq!(t.unfinished_children(), 0);
            assert!(t.release_ref());
            drop(Box::from_raw(ptr.as_ptr()));
        }
    }
}
