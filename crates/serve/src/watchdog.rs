//! Stuck-job watchdog: per-worker liveness tracking and the two-stage
//! escalation (cooperative cancel → worker respawn).
//!
//! Cooperative cancellation handles every job that still reaches its
//! checkpoints — but a job wedged in a non-cooperative loop (foreign
//! code, a livelock, a pathological input) holds its worker forever and
//! quietly shrinks the pool. The watchdog closes that hole without ever
//! killing a thread (unsound in Rust):
//!
//! 1. Each worker publishes an [`ActiveJob`] registration in its
//!    [`WorkerSlot`] while it holds a job, carrying the job's
//!    [`Heartbeat`] — stamped for free at every cancellation checkpoint
//!    the factorizations already poll (once per `NB`-column panel).
//! 2. A monitor thread calls [`patrol`] on an interval. A job whose beat
//!    count moved is alive, however slow. A job silent for the stall
//!    budget is escalated **stage 1**: its cancel token fires, so a job
//!    that is merely slow to checkpoint abandons at the next panel
//!    (`INFO −103`) and resolves as a typed [`Rejection::Stuck`].
//! 3. A job still silent one budget after stage 1 is truly wedged —
//!    **stage 2**: the watchdog resolves the job's handle
//!    ([`Rejection::Stuck`]) itself, marks the worker abandoned, and
//!    reports it for respawn. The abandoned thread is left to exit on
//!    its own if the wedge ever breaks (it re-checks the flag); its
//!    siblings, and the job's waiter, never notice.
//!
//! First-fulfillment-wins on the completion slot makes the stage-2 race
//! benign: if the wedge breaks between patrol and fulfill, whichever
//! side resolves first is the answer the caller sees, and the other is
//! a no-op.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use la_core::cancel::{CancelToken, Heartbeat};
use la_core::Scalar;

use crate::handle::Shared;
use crate::Rejection;

/// The registration a worker publishes while it holds one job, plus the
/// watchdog's private bookkeeping against it.
pub(crate) struct ActiveJob<T: Scalar> {
    /// Monotone per-service job number (never reused).
    pub(crate) job_id: u64,
    pub(crate) heartbeat: Heartbeat,
    pub(crate) token: CancelToken,
    pub(crate) shared: Arc<Shared<T>>,
    /// Shared with the job's spec: registering allocates nothing.
    pub(crate) tenant: Arc<str>,
    /// Beat count at the last patrol that saw movement.
    beats_seen: u64,
    /// Last time the beat count moved (or the job started).
    silent_since: Instant,
    /// When stage 1 (cooperative cancel) fired, if it has.
    escalated_at: Option<Instant>,
}

/// One worker's mailbox to the watchdog.
pub(crate) struct WorkerSlot<T: Scalar> {
    current: Mutex<Option<ActiveJob<T>>>,
    /// Stage 2 happened while this worker held its job: the thread is
    /// written off (a replacement is running) and must exit at the next
    /// point it regains control. Also the release latch the hard chaos
    /// wedge spins on.
    pub(crate) abandoned: AtomicBool,
}

impl<T: Scalar> WorkerSlot<T> {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(WorkerSlot {
            current: Mutex::new(None),
            abandoned: AtomicBool::new(false),
        })
    }

    /// Publishes the job this worker is about to run.
    pub(crate) fn begin(
        &self,
        job_id: u64,
        heartbeat: Heartbeat,
        token: CancelToken,
        shared: Arc<Shared<T>>,
        tenant: Arc<str>,
    ) {
        let mut cur = self.current.lock().unwrap_or_else(|e| e.into_inner());
        *cur = Some(ActiveJob {
            job_id,
            beats_seen: heartbeat.beats(),
            heartbeat,
            token,
            shared,
            tenant,
            silent_since: Instant::now(),
            escalated_at: None,
        });
    }

    /// Withdraws the registration after the job ran.
    ///
    /// The return value doubles as the worker's fulfillment license:
    /// [`patrol`] fulfills stage-2 jobs *while holding this slot's
    /// lock*, so by the time `finish` returns, either the registration
    /// is still here (stage 2 can no longer happen — the worker's own
    /// fulfillment is guaranteed to win, and it may record stats before
    /// fulfilling) or it is gone ([`Finished::TakenByStage2`]: the
    /// handle is already resolved `Stuck` and the monitor owns the
    /// stats — the worker must not touch either).
    pub(crate) fn finish(&self, job_id: u64) -> Finished {
        let mut cur = self.current.lock().unwrap_or_else(|e| e.into_inner());
        match cur.take() {
            Some(job) if job.job_id == job_id => match job.escalated_at {
                Some(_) => Finished::Escalated(job.silent_since.elapsed()),
                None => Finished::Normal,
            },
            Some(other) => {
                // Someone else's registration (can't happen today) stays.
                *cur = Some(other);
                Finished::TakenByStage2
            }
            None => Finished::TakenByStage2,
        }
    }
}

/// What [`WorkerSlot::finish`] found when the worker came back.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Finished {
    /// Never escalated: the ordinary case.
    Normal,
    /// Stage 1 (cooperative cancel) fired while the job ran; the payload
    /// is how long the heartbeat had been silent. The worker types a
    /// deadline-shaped outcome as [`Rejection::Stuck`].
    Escalated(Duration),
    /// Stage 2 already resolved the handle and took the registration;
    /// the worker is abandoned and must neither fulfill nor record.
    TakenByStage2,
}

/// The outcome of a stage-2 escalation, for the service's books.
pub(crate) struct StuckEvent {
    /// Index of the worker slot that must be respawned.
    pub(crate) slot: usize,
    /// Whether the watchdog's `Stuck` fulfillment won the completion
    /// race (if not, the wedge broke at the last instant and the worker
    /// resolved the job itself).
    pub(crate) resolved: bool,
    /// Tenant the wedged job belonged to.
    pub(crate) tenant: String,
    /// How long the heartbeat had been silent (the figure inside the
    /// job's [`Rejection::Stuck`]; asserted by the unit tests).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) stalled_for: Duration,
}

/// One watchdog pass over the worker slots at time `now`, escalating
/// anything silent longer than `stall`. Returns the stage-2 events; the
/// caller respawns those workers and records the stats.
pub(crate) fn patrol<T: Scalar>(
    slots: &[Arc<WorkerSlot<T>>],
    stall: Duration,
    now: Instant,
) -> Vec<StuckEvent> {
    let mut events = Vec::new();
    for (idx, slot) in slots.iter().enumerate() {
        if slot.abandoned.load(Ordering::Acquire) {
            continue;
        }
        let mut cur = slot.current.lock().unwrap_or_else(|e| e.into_inner());
        let Some(job) = cur.as_mut() else { continue };
        let beats = job.heartbeat.beats();
        if beats != job.beats_seen {
            job.beats_seen = beats;
            job.silent_since = now;
            continue;
        }
        if now.saturating_duration_since(job.silent_since) < stall {
            continue;
        }
        match job.escalated_at {
            None => {
                // Stage 1: ask nicely. A slow-but-cooperative job
                // abandons at its next checkpoint and the worker maps
                // the −103 to Stuck via `finish`.
                job.token.cancel();
                job.escalated_at = Some(now);
            }
            Some(t) if now.saturating_duration_since(t) >= stall => {
                // Stage 2: the job ignored cancellation for a full
                // budget — write the worker off and answer the caller.
                let job = cur.take().expect("checked above");
                let stalled_for = now.saturating_duration_since(job.silent_since);
                slot.abandoned.store(true, Ordering::Release);
                let resolved = job.shared.fulfill(Err(Rejection::Stuck { stalled_for }));
                events.push(StuckEvent {
                    slot: idx,
                    resolved,
                    tenant: job.tenant.to_string(),
                    stalled_for,
                });
            }
            Some(_) => {}
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot() -> (
        Arc<WorkerSlot<f64>>,
        Heartbeat,
        CancelToken,
        Arc<Shared<f64>>,
    ) {
        let s = WorkerSlot::new();
        let hb = Heartbeat::new();
        let tok = CancelToken::new();
        let sh = Shared::new();
        s.begin(7, hb.clone(), tok.clone(), Arc::clone(&sh), "t".into());
        (s, hb, tok, sh)
    }

    #[test]
    fn beating_jobs_are_never_escalated() {
        let (s, hb, tok, _sh) = slot();
        let slots = [Arc::clone(&s)];
        let stall = Duration::from_millis(100);
        let t0 = Instant::now();
        for i in 1..10 {
            hb.stamp(); // progress every patrol
            let ev = patrol(&slots, stall, t0 + stall * i);
            assert!(ev.is_empty());
            assert!(!tok.is_cancelled(), "live job must not be cancelled");
        }
        assert_eq!(s.finish(7), Finished::Normal);
    }

    #[test]
    fn silent_job_walks_cancel_then_respawn() {
        let (s, _hb, tok, sh) = slot();
        let slots = [Arc::clone(&s)];
        let stall = Duration::from_millis(100);
        let t0 = Instant::now();
        // Within budget: nothing happens.
        assert!(patrol(&slots, stall, t0 + stall / 2).is_empty());
        assert!(!tok.is_cancelled());
        // Budget exceeded: stage 1 cancels, does not resolve.
        assert!(patrol(&slots, stall, t0 + stall * 2).is_empty());
        assert!(tok.is_cancelled(), "stage 1 is cooperative cancel");
        assert!(sh.try_take_test().is_none());
        // Still silent one budget later: stage 2 resolves and abandons.
        let ev = patrol(&slots, stall, t0 + stall * 3);
        assert_eq!(ev.len(), 1);
        assert!(ev[0].resolved);
        assert_eq!(ev[0].slot, 0);
        assert_eq!(ev[0].tenant, "t");
        assert!(ev[0].stalled_for >= stall * 2);
        assert!(s.abandoned.load(Ordering::Acquire));
        match sh.try_take_test() {
            Some(Err(Rejection::Stuck { stalled_for })) => {
                assert!(stalled_for >= stall * 2);
            }
            other => panic!("expected Stuck, got {other:?}"),
        }
        // Abandoned slots are skipped thereafter, and the worker coming
        // back is told its job is no longer its to resolve.
        assert!(patrol(&slots, stall, t0 + stall * 10).is_empty());
        assert_eq!(s.finish(7), Finished::TakenByStage2);
    }

    #[test]
    fn cooperative_job_finishing_after_stage_one_maps_to_stuck() {
        let (s, _hb, tok, sh) = slot();
        let slots = [Arc::clone(&s)];
        let stall = Duration::from_millis(50);
        let t0 = Instant::now();
        assert!(patrol(&slots, stall, t0 + stall * 2).is_empty());
        assert!(tok.is_cancelled());
        // The job honours the cancel and the worker finishes it: finish
        // reports the silence so the worker types the outcome Stuck.
        assert!(
            matches!(s.finish(7), Finished::Escalated(_)),
            "escalated job reports its stall"
        );
        assert!(sh.try_take_test().is_none(), "worker resolves, not patrol");
    }

    #[test]
    fn stage_two_loses_the_race_gracefully() {
        let (s, _hb, _tok, sh) = slot();
        let slots = [Arc::clone(&s)];
        let stall = Duration::from_millis(50);
        let t0 = Instant::now();
        patrol(&slots, stall, t0 + stall * 2);
        // The wedge breaks at the last instant: the worker resolves first.
        sh.fulfill(Err(Rejection::DeadlineExceeded));
        let ev = patrol(&slots, stall, t0 + stall * 4);
        assert_eq!(ev.len(), 1);
        assert!(!ev[0].resolved, "first fulfillment won; Stuck was a no-op");
        assert!(matches!(
            sh.try_take_test(),
            Some(Err(Rejection::DeadlineExceeded))
        ));
    }
}
