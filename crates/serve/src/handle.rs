//! Job completion handle — a blocking future that is also a
//! [`std::future::Future`].

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use la_core::cancel::CancelToken;
use la_core::Demote;

use crate::{handoff, Rejection, SolveOutput};

/// The slot a worker fulfills and a caller drains.
struct Slot<T: Demote> {
    result: Option<Result<SolveOutput<T>, Rejection>>,
    waker: Option<Waker>,
    /// A blocking waiter is inside `cv.wait` right now (a handle has at
    /// most one: the blocking waits consume it). `fulfill` pays the futex
    /// wake-up only then.
    parked: bool,
}

/// Shared completion state between the service and the handle.
pub(crate) struct Shared<T: Demote> {
    slot: Mutex<Slot<T>>,
    cv: Condvar,
    /// Set, under the slot lock, once `result` is stored: what
    /// [`JobHandle::wait`] polls without taking the lock.
    ready: AtomicBool,
    /// Test probe: how many times a waiter went into `cv.wait`.
    #[cfg(test)]
    pub(crate) parks: std::sync::atomic::AtomicUsize,
}

impl<T: Demote> Shared<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Shared {
            slot: Mutex::new(Slot {
                result: None,
                waker: None,
                parked: false,
            }),
            cv: Condvar::new(),
            ready: AtomicBool::new(false),
            #[cfg(test)]
            parks: std::sync::atomic::AtomicUsize::new(0),
        })
    }

    /// One condvar wait of a blocking waiter (`timeout: None` waits until
    /// notified), bracketed by the `parked` mark `fulfill` reads.
    fn park<'a>(
        &self,
        mut slot: MutexGuard<'a, Slot<T>>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, Slot<T>> {
        #[cfg(test)]
        self.parks.fetch_add(1, Ordering::Relaxed);
        slot.parked = true;
        let mut slot = match timeout {
            None => self.cv.wait(slot).unwrap_or_else(|e| e.into_inner()),
            Some(t) => {
                self.cv
                    .wait_timeout(slot, t)
                    .unwrap_or_else(|e| e.into_inner())
                    .0
            }
        };
        slot.parked = false;
        slot
    }

    /// Delivers the job's outcome: wakes a parked blocking waiter (a
    /// polling one sees `ready`, and no wake-up is issued) and any stored
    /// async waker. Second fulfillment is ignored (first wins — e.g. a
    /// drain, or the watchdog's stage-2 `Stuck`, racing the worker that
    /// already responded). Returns `true` when this call won — the
    /// caller's outcome is the one the waiter sees, so only the winner
    /// should record stats for the job.
    pub(crate) fn fulfill(&self, r: Result<SolveOutput<T>, Rejection>) -> bool {
        let (waker, parked) = {
            let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
            if slot.result.is_some() {
                return false;
            }
            slot.result = Some(r);
            self.ready.store(true, Ordering::Release);
            (slot.waker.take(), slot.parked)
        };
        if parked {
            self.cv.notify_all();
        }
        if let Some(w) = waker {
            w.wake();
        }
        true
    }

    /// Test probe: the stored outcome, if any (crate-internal tests).
    #[cfg(test)]
    pub(crate) fn try_take_test(&self) -> Option<Result<SolveOutput<T>, Rejection>> {
        self.slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .result
            .take()
    }
}

/// Completion handle for one submitted job.
///
/// Consume it with blocking [`JobHandle::wait`] / [`JobHandle::wait_for`],
/// or `.await` it — the handle implements [`Future`] directly (the worker
/// wakes the stored waker on fulfillment), so it drops into any executor
/// without the service carrying one. [`JobHandle::cancel`] requests
/// cooperative cancellation of the job wherever it is (queued or at the
/// next panel checkpoint).
pub struct JobHandle<T: Demote> {
    pub(crate) shared: Arc<Shared<T>>,
    pub(crate) token: CancelToken,
}

impl<T: Demote> JobHandle<T> {
    /// Requests cancellation: a queued job is rejected when it reaches a
    /// worker; an in-flight factorization abandons at its next panel
    /// checkpoint. The outcome becomes [`Rejection::DeadlineExceeded`].
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// The job's cancel token (cloneable; share it to gang-cancel).
    pub fn token(&self) -> CancelToken {
        self.token.clone()
    }

    /// Blocks until the job completes and returns its outcome.
    ///
    /// When the host has a core to spare (see the crate docs, "hand-off"),
    /// the first ~100 µs of the wait poll the job's completion flag
    /// instead of sleeping, so a short solve is handed back without a
    /// thread wake-up; after that the thread parks. [`JobHandle::wait_for`]
    /// and the [`Future`] impl never poll.
    pub fn wait(self) -> Result<SolveOutput<T>, Rejection> {
        handoff::poll(handoff::Side::Waiter, || {
            self.shared.ready.load(Ordering::Acquire)
        });
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(r) = slot.result.take() {
                return r;
            }
            slot = self.shared.park(slot, None);
        }
    }

    /// Blocks up to `timeout` for completion; `Err(self)` gives the
    /// handle back on timeout so the caller can keep waiting or cancel.
    pub fn wait_for(self, timeout: Duration) -> Result<Result<SolveOutput<T>, Rejection>, Self> {
        let deadline = std::time::Instant::now() + timeout;
        {
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(r) = slot.result.take() {
                    return Ok(r);
                }
                // Wait on the budget *remaining this iteration*: a
                // spurious wakeup, or an OS timed wait that rounds a
                // sub-millisecond request down and returns early, must
                // not restart the full timeout — and a zero remainder
                // must not wait at all.
                let remaining = deadline.saturating_duration_since(std::time::Instant::now());
                if remaining.is_zero() {
                    break;
                }
                slot = self.shared.park(slot, Some(remaining));
            }
            // Timed out — one last look under the still-held lock, so a
            // fulfillment racing the deadline is delivered, not dropped.
            if let Some(r) = slot.result.take() {
                return Ok(r);
            }
        }
        Err(self)
    }

    /// Non-blocking probe: the outcome if the job has completed.
    pub fn try_take(&self) -> Option<Result<SolveOutput<T>, Rejection>> {
        self.shared
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .result
            .take()
    }
}

impl<T: Demote> Future for JobHandle<T> {
    type Output = Result<SolveOutput<T>, Rejection>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
        match slot.result.take() {
            Some(r) => Poll::Ready(r),
            None => {
                slot.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

impl<T: Demote> std::fmt::Debug for JobHandle<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let done = self
            .shared
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .result
            .is_some();
        f.debug_struct("JobHandle")
            .field("completed", &done)
            .field("cancelled", &self.token.is_cancelled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending() -> JobHandle<f64> {
        JobHandle {
            shared: Shared::new(),
            token: CancelToken::new(),
        }
    }

    #[test]
    fn zero_duration_wait_times_out_without_waiting() {
        // Regression: the remaining-budget computation must treat an
        // already-expired deadline as "don't wait", not underflow or
        // block on a 0-length OS wait.
        let h = pending();
        let t0 = std::time::Instant::now();
        let h = match h.wait_for(Duration::ZERO) {
            Err(h) => h,
            Ok(r) => panic!("nothing was fulfilled, got {r:?}"),
        };
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "zero-duration wait must return promptly"
        );
        // And a fulfilled handle returns its result even at 0 budget.
        h.shared.fulfill(Err(Rejection::ShuttingDown));
        match h.wait_for(Duration::ZERO) {
            Ok(Err(Rejection::ShuttingDown)) => {}
            other => panic!("expected the stored result, got {other:?}"),
        }
    }

    #[test]
    fn waiting_on_a_fulfilled_handle_never_touches_the_condvar() {
        let h = pending();
        let shared = Arc::clone(&h.shared);
        assert!(shared.fulfill(Err(Rejection::ShuttingDown)));
        assert_eq!(h.wait().unwrap_err(), Rejection::ShuttingDown);
        assert_eq!(shared.parks.load(Ordering::Relaxed), 0);
        // An unfulfilled one parks, is marked as parked while it does, and
        // is woken by the fulfilment.
        let h = pending();
        let shared = Arc::clone(&h.shared);
        let waiter = std::thread::spawn(move || h.wait());
        let t0 = std::time::Instant::now();
        while !shared.slot.lock().unwrap().parked {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "waiter never parked"
            );
            std::thread::yield_now();
        }
        assert!(shared.fulfill(Err(Rejection::DeadlineExceeded)));
        assert_eq!(
            waiter.join().unwrap().unwrap_err(),
            Rejection::DeadlineExceeded
        );
        assert!(shared.parks.load(Ordering::Relaxed) >= 1);
        assert!(!shared.slot.lock().unwrap().parked);
    }

    #[test]
    fn sub_millisecond_timeouts_accumulate_to_the_deadline() {
        // Regression: sub-ms budgets used to be at the mercy of the OS
        // rounding the timed wait; the loop must re-derive the remainder
        // each iteration and eventually time out (not spin forever, not
        // return before a fulfillment that lands mid-wait).
        let h = pending();
        let shared = Arc::clone(&h.shared);
        let worker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            shared.fulfill(Err(Rejection::DeadlineExceeded));
        });
        let mut h = h;
        let mut outcome = None;
        for _ in 0..100_000 {
            match h.wait_for(Duration::from_micros(700)) {
                Ok(r) => {
                    outcome = Some(r);
                    break;
                }
                Err(back) => h = back,
            }
        }
        worker.join().unwrap();
        match outcome {
            Some(Err(Rejection::DeadlineExceeded)) => {}
            other => panic!("fulfillment must be delivered, got {other:?}"),
        }
    }
}
