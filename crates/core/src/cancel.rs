//! Cooperative cancellation — per-call-tree deadlines and cancel tokens
//! for long-running factorizations.
//!
//! A production solve service cannot afford a job that ignores its
//! deadline: an `n = 4096` factorization holds a worker for seconds, and
//! the only alternatives to cooperation are killing threads (unsound in
//! Rust) or letting the deadline pass silently. This module provides the
//! cooperative half of the contract:
//!
//! * [`CancelToken`] — a cheap, cloneable handle carrying an optional
//!   absolute deadline and a manual cancel flag.
//! * [`with_token`] — installs a token on the current thread for the
//!   duration of a closure, exactly like [`crate::tune::with`]. Nested
//!   calls stack; the innermost token governs. The token (and the
//!   [`Heartbeat`]) live in the ambient frame of [`crate::ctx`], so they
//!   follow the call tree into every worker it fans out to.
//! * [`cancelled`] — the checkpoint the blocked factorizations poll at
//!   panel boundaries (`getrf`/`potrf` check once per `NB`-column step,
//!   so a cancel lands within one panel's worth of work, not after the
//!   whole O(n³)). With no token installed it is a single thread-local
//!   read returning `false` — the hot path of non-service callers is
//!   untouched.
//!
//! A routine that observes cancellation abandons its computation and
//! returns [`INFO_CANCELLED`] (`-103`); the output buffers are left in a
//! valid-but-unspecified partially-factored state. The `la90` drivers
//! route the code through `ERINFO` as [`crate::LaError::Cancelled`].
//!
//! ```
//! use la_core::cancel::{self, CancelToken};
//! let token = CancelToken::new();
//! token.cancel();
//! let seen = cancel::with_token(token, cancel::cancelled);
//! assert!(seen);
//! assert!(!cancel::cancelled()); // token uninstalled on exit
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::ctx;

/// `INFO` code returned by a computational routine that abandoned its
/// work at a cancellation checkpoint (deadline passed or token
/// cancelled). Maps to [`crate::LaError::Cancelled`] through `ERINFO`.
pub const INFO_CANCELLED: i32 = -103;

/// `INFO` code recorded for a job (a dag task) whose body panicked; the
/// panic was isolated to that job (caught at the job boundary,
/// [`crate::ctx::isolated`]) and its output is unspecified. Maps to [`crate::LaError::Panicked`] through `ERINFO`.
pub const INFO_PANICKED: i32 = -104;

struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A cancellation handle: cloneable, sendable, observed by whichever
/// thread has it installed via [`with_token`].
///
/// Cancellation is level-triggered and sticky — once [`CancelToken::cancel`]
/// fires or the deadline passes, every subsequent [`cancelled`] check on
/// a thread carrying this token reports `true`.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.inner.deadline)
            .finish()
    }
}

impl CancelToken {
    /// A token with no deadline; trips only via [`CancelToken::cancel`].
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that additionally trips once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// `true` once [`CancelToken::cancel`] has fired or the deadline has
    /// passed. The deadline comparison reads the monotonic clock, so call
    /// it at *checkpoints*, not in inner loops.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return true;
        }
        match self.inner.deadline {
            Some(d) if Instant::now() >= d => {
                // Latch, so later checks skip the clock read.
                self.inner.cancelled.store(true, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// The absolute deadline, if this token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

/// A liveness counter for watchdogs: a monotonically increasing beat
/// count stamped by [`cancelled`] every time the carrying thread passes a
/// cancellation checkpoint.
///
/// The blocked factorizations already poll [`cancelled`] once per
/// `NB`-column panel, so a thread with a heartbeat installed (via
/// [`with_heartbeat`]) proves forward progress as a side effect of the
/// checkpoints it was polling anyway — no extra instrumentation in the
/// compute kernels. A monitor that samples [`Heartbeat::beats`] and sees
/// the count stand still across its interval knows the thread is wedged
/// (stuck in a non-cooperative loop or blocked outside the library), not
/// merely slow: a slow panel still beats at its boundary.
#[derive(Clone, Default)]
pub struct Heartbeat {
    beats: Arc<AtomicU64>,
}

impl Heartbeat {
    /// A fresh heartbeat with a beat count of zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The number of checkpoints passed since creation. Monotonic;
    /// sampled by watchdog monitors, stamped by [`cancelled`].
    pub fn beats(&self) -> u64 {
        self.beats.load(Ordering::Relaxed)
    }

    /// Records one checkpoint passage. Public so dispatchers can stamp at
    /// their own boundaries (e.g. between queued jobs) in addition to the
    /// implicit stamps from [`cancelled`].
    pub fn stamp(&self) {
        self.beats.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Heartbeat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Heartbeat")
            .field("beats", &self.beats())
            .finish()
    }
}

/// Runs `f` with `token` installed on the current thread and on every
/// worker the call tree fans out to, restoring the previous state
/// afterwards (also on panic). Nested calls stack; the innermost token is
/// the one [`cancelled`] consults.
pub fn with_token<R>(token: CancelToken, f: impl FnOnce() -> R) -> R {
    ctx::scoped(|frame| frame.token = Some(token), f)
}

/// The token installed on this thread, if any (innermost [`with_token`]).
pub fn current() -> Option<CancelToken> {
    ctx::peek(|f| f.token.clone())
}

/// Runs `f` with `hb` installed as the heartbeat of the current thread and
/// of every worker the call tree fans out to, restoring the previous state
/// afterwards (also on panic). Nested calls stack; the innermost heartbeat
/// is the one [`cancelled`] stamps.
pub fn with_heartbeat<R>(hb: Heartbeat, f: impl FnOnce() -> R) -> R {
    ctx::scoped(|frame| frame.beat = Some(hb), f)
}

/// The heartbeat installed on this thread, if any (innermost
/// [`with_heartbeat`]).
pub fn heartbeat() -> Option<Heartbeat> {
    ctx::peek(|f| f.beat.clone())
}

/// Cancellation checkpoint: `true` when the innermost installed token has
/// been cancelled or its deadline has passed. Also stamps the innermost
/// installed [`Heartbeat`], proving liveness to any watchdog sampling it.
/// With no token and no heartbeat installed this is one thread-local read
/// returning `false`.
pub fn cancelled() -> bool {
    ctx::peek(|f| {
        if let Some(hb) = &f.beat {
            hb.stamp();
        }
        f.token.as_ref().is_some_and(CancelToken::is_cancelled)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn no_token_means_never_cancelled() {
        assert!(!cancelled());
        assert!(current().is_none());
    }

    #[test]
    fn manual_cancel_trips_and_uninstalls() {
        let tok = CancelToken::new();
        let clone = tok.clone();
        let seen = with_token(tok, || {
            assert!(!cancelled());
            clone.cancel();
            cancelled()
        });
        assert!(seen);
        assert!(!cancelled());
    }

    #[test]
    fn deadline_trips_and_latches() {
        let tok = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(tok.is_cancelled());
        assert!(tok.is_cancelled(), "deadline cancellation must latch");
        let fresh = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!fresh.is_cancelled());
        assert!(fresh.deadline().is_some());
    }

    #[test]
    fn nested_tokens_stack() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        inner.cancel();
        with_token(outer, || {
            assert!(!cancelled());
            with_token(inner.clone(), || assert!(cancelled()));
            assert!(!cancelled(), "outer token must govern again");
        });
    }

    #[test]
    fn checkpoints_stamp_the_innermost_heartbeat() {
        let hb = Heartbeat::new();
        assert_eq!(hb.beats(), 0);
        assert!(heartbeat().is_none());
        with_heartbeat(hb.clone(), || {
            assert!(!cancelled()); // no token: false, but the beat lands
            assert!(!cancelled());
            let inner = Heartbeat::new();
            with_heartbeat(inner.clone(), || {
                assert!(!cancelled());
                assert_eq!(inner.beats(), 1, "innermost heartbeat governs");
            });
            assert_eq!(
                heartbeat().map(|h| h.beats()),
                Some(2),
                "outer heartbeat reinstated"
            );
        });
        assert_eq!(hb.beats(), 2);
        assert!(heartbeat().is_none(), "heartbeat uninstalled on exit");
        cancelled(); // no heartbeat installed: no stamp, no panic
        assert_eq!(hb.beats(), 2);
    }

    #[test]
    fn heartbeat_crosses_threads_via_reinstall() {
        let hb = Heartbeat::new();
        std::thread::scope(|s| {
            let h = hb.clone();
            s.spawn(move || {
                with_heartbeat(h, || {
                    assert!(!cancelled());
                })
            })
            .join()
            .unwrap();
        });
        assert_eq!(hb.beats(), 1, "beats are visible across threads");
    }

    #[test]
    fn token_crosses_threads_via_reinstall() {
        let tok = CancelToken::new();
        tok.cancel();
        let seen = std::thread::scope(|s| {
            let t = tok.clone();
            s.spawn(move || with_token(t, cancelled)).join().unwrap()
        });
        assert!(seen);
    }
}
