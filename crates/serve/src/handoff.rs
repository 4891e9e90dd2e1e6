//! The hand-off rule: when a thread polls for its peer instead of parking.
//!
//! A served request crosses two thread boundaries — the client hands a job
//! to a worker, the worker hands the answer back — and each crossing used
//! to be a condvar wait: a futex wake-up on the sender's side and a
//! scheduler round trip before the sleeper runs again. On the 2-vCPU guest
//! the numbers in EXPERIMENTS.md were taken on, one such wake-up costs the
//! sender ≈ 9 µs and the sleeper runs 18–33 µs after it (medians; a few
//! µs at best) whenever it has really gone to sleep — two of them per
//! request, beside an n = 96 solve of 35–50 µs. So the two waits that sit on every request poll
//! first: an idle worker polls the service's pending-job count before it
//! waits on the queue's condvar, and [`crate::JobHandle::wait`] polls the
//! job's `ready` flag before it waits on the job's. Both go through
//! [`poll`]; nothing else in the crate spins (`wait_for` and the
//! `Future` impl park at once), and the senders issue their wake-up only
//! when a thread is actually parked.
//!
//! Polling is bounded twice. In time by [`SPIN_BUDGET`], after which the
//! thread parks as before — an idle service burns no CPU. In cores by
//! [`spare_core`]: a thread polls only on a core nobody needs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use la_core::tune;

/// How long a thread polls before it parks: about two wake-ups (≈ 9 µs to
/// send plus 18–33 µs to take effect, each, on the measured host), the
/// cost polling exists to avoid. A shorter
/// budget gives up while a closed-loop client is still checking its last
/// answer and staging the next request (15–40 µs at n = 96); a longer one
/// spends more than parking would have cost. A served n = 96 solve
/// (35–50 µs) fits inside it, so a closed-loop waiter normally never parks.
pub(crate) const SPIN_BUDGET: Duration = Duration::from_micros(100);

/// Polls between two yields (and two reads of the clock): a microsecond or
/// two of `PAUSE`s, so a thread that wants the core waits no longer.
const POLLS_PER_YIELD: u32 = 32;

/// Which of the two polling sites a thread is at.
#[derive(Clone, Copy)]
pub(crate) enum Side {
    /// [`crate::JobHandle::wait`], polling its job's `ready` flag. The peer
    /// is the worker running that job, which the in-flight count covers.
    Waiter,
    /// An idle worker, polling the pending count. The peer is a client
    /// about to submit, which nothing counts: it is one more core.
    Worker,
}

/// Jobs admitted and not yet answered, in every service of the process
/// (cores are the host's, not a service's): each needs a core for the
/// worker that runs it, now or in a moment.
static IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);
/// Threads polling right now, per [`Side`], likewise process-wide.
static POLLING: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];
/// Test hook: makes [`spare_core`] answer `false`, so every wait takes the
/// parking path.
#[cfg(test)]
pub(crate) static NEVER_SPARE: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Waits that still park after the host was last seen full (as many jobs in
/// flight as cores). The in-flight count alone is an instantaneous reading:
/// with four clients on two cores it dips to one whenever three of them are
/// between requests — runnable, and invisible to the service — and a thread
/// that polls then yields its core to them and gets it back a scheduling
/// round later, a millisecond after its answer was ready. Every submit of
/// such a load renews the memory, so it never polls; a client left alone is
/// polled for again after this many round trips.
const CROWD_MEMORY: usize = 64;
static CROWDED: AtomicUsize = AtomicUsize::new(0);

/// A job entered a queue.
pub(crate) fn job_admitted() {
    if IN_FLIGHT.fetch_add(1, Ordering::Relaxed) + 1 >= tune::host_parallelism() {
        CROWDED.store(CROWD_MEMORY, Ordering::Relaxed);
    }
}

/// An admitted job no longer needs a core: its worker has stopped
/// computing (called before the answer is handed over), or it was drained
/// unserved. (A job the watchdog answered for a wedged worker is counted
/// until that worker comes back: the thread still holds a core.)
pub(crate) fn job_finished() {
    IN_FLIGHT.fetch_sub(1, Ordering::Relaxed);
}

/// Whether a core is left for this thread to poll on: every job in flight
/// needs one for its worker, each of the `others` polling on this side
/// holds one, and so will this thread — and, for an idle worker, the client
/// it waits for. So a one-core host never polls, an idle worker polls only
/// while nothing is in flight, and a process with as many jobs in flight as
/// cores (more clients than cores) parks everywhere: there a polling thread
/// would take its core from a runnable worker.
fn spare_core(side: Side, others: usize) -> bool {
    #[cfg(test)]
    if NEVER_SPARE.load(Ordering::Relaxed) {
        return false;
    }
    let crowded = CROWDED.load(Ordering::Relaxed);
    if crowded > 0 {
        // Racing decrements may skip or repeat a step; it is a memory, not
        // a count of anything.
        CROWDED.store(crowded - 1, Ordering::Relaxed);
        return false;
    }
    let own = match side {
        Side::Waiter => 1,
        Side::Worker => 2,
    };
    IN_FLIGHT.load(Ordering::Relaxed) + others + own <= tune::host_parallelism()
}

/// Polls `ready` until it holds, [`SPIN_BUDGET`] runs out or the spare core
/// is gone; returns at once when there is none. The caller then takes its
/// lock and parks unless what it waited for is there — polling is a hint,
/// the lock decides.
pub(crate) fn poll(side: Side, ready: impl Fn() -> bool) {
    if ready() {
        return;
    }
    let polling = &POLLING[side as usize];
    let others = polling.fetch_add(1, Ordering::Relaxed);
    if spare_core(side, others) {
        let started = Instant::now();
        'budget: loop {
            for _ in 0..POLLS_PER_YIELD {
                if ready() {
                    break 'budget;
                }
                std::hint::spin_loop();
            }
            // Lets a thread the counts cannot see (a client at work) onto
            // the core. If one took it, the budget is gone by the time this
            // thread runs again.
            std::thread::yield_now();
            let others = polling.load(Ordering::Relaxed).saturating_sub(1);
            if started.elapsed() >= SPIN_BUDGET || !spare_core(side, others) {
                break;
            }
        }
    }
    polling.fetch_sub(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poll_returns_at_once_when_ready_and_gives_up_after_the_budget() {
        let t0 = Instant::now();
        poll(Side::Waiter, || true);
        assert!(
            t0.elapsed() < SPIN_BUDGET,
            "a ready condition is not polled"
        );
        let reads = AtomicUsize::new(0);
        let t0 = Instant::now();
        poll(Side::Worker, || {
            reads.fetch_add(1, Ordering::Relaxed);
            false
        });
        // Generous: the thread can be descheduled inside the loop.
        assert!(t0.elapsed() < Duration::from_secs(5), "polling is bounded");
        assert!(reads.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn a_full_host_means_no_polling_now_or_for_a_while() {
        let host = tune::host_parallelism();
        // Pollers alone can fill the host.
        assert!(!spare_core(Side::Waiter, host));
        assert!(!spare_core(Side::Worker, host.saturating_sub(1)));
        // So can jobs in flight — and that is remembered: the only read of
        // the condition is then the one made before the rule is consulted.
        for _ in 0..host {
            job_admitted();
        }
        assert!(CROWDED.load(Ordering::Relaxed) > 0);
        let reads = AtomicUsize::new(0);
        poll(Side::Waiter, || {
            reads.fetch_add(1, Ordering::Relaxed);
            false
        });
        assert_eq!(reads.load(Ordering::Relaxed), 1);
        for _ in 0..host {
            job_finished();
        }
        // The memory runs down one refused wait at a time (other tests'
        // services may renew it meanwhile, so only the direction is pinned).
        let before = CROWDED.load(Ordering::Relaxed);
        if before > 0 {
            assert!(!spare_core(Side::Waiter, 0));
        }
    }
}
