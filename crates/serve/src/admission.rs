//! Adaptive admission control: size the effective queue bound from
//! *observed* service times instead of a constant.
//!
//! The fixed [`crate::ServeConfig::queue_depth`] bound has the classic
//! failure mode: at small problem sizes it sheds traffic the workers
//! could easily absorb, at large sizes it admits a queue whose drain time
//! dwarfs any deadline. This controller closes the loop:
//!
//! * **Per-class service-time EWMAs** — each [`crate::SolveOp`] class
//!   keeps an exponentially weighted moving average (α = 1/8) of its
//!   completed jobs' service times, so a stream of `n = 64` solves and a
//!   stream of `n = 512` solves see different effective bounds.
//! * **Little's-law bound** — with `W` workers and a target queueing
//!   delay `T`, a job admitted at the back of a queue of length `L`
//!   expects to wait `L·s/W` where `s` is the class EWMA; the admit bound
//!   is therefore `W·T/s`, clamped to `[min(workers, queue_depth),
//!   queue_depth]` — the configured depth stays the hard cap.
//! * **CoDel-flavored sojourn window** — the controller tracks the
//!   *minimum* queue sojourn over a sliding window (4·T): if even the
//!   luckiest job of a window queued longer than the target, the overload
//!   is persistent, not a burst, and the `overloaded` latch is set; a good
//!   or idle window clears it. (Min-over-window is CoDel's insight:
//!   max or mean sojourn flags transient bursts a bounded queue absorbs
//!   fine.)
//! * **Priority-weighted shedding** — under load, `Low` jobs see half
//!   the bound and `Normal` three quarters of it, so paying traffic
//!   ([`crate::Priority::High`]) is the last to be shed; during an
//!   overloaded window the sub-`High` bounds halve again.
//! * **`retry_after` hint** — a shed computes the expected time for the
//!   backlog ahead of the caller to drain (`(L+1)·s/W`), monotone in the
//!   queue length, so well-behaved clients back off harder the deeper
//!   the overload.
//!
//! Everything is driven by caller-supplied nanosecond timestamps — no
//! clock reads, no sleeps — so the unit tests steer time directly and the
//! service layer converts from one `Instant` epoch. The controller lives
//! inside the service's queue lock, so admitting a job, noting its
//! sojourn and noting a service time take no lock of their own. Its
//! arithmetic saturates: a target delay near `u64::MAX` ns sizes the
//! bound to the cap instead of overflowing.

use crate::Priority;

/// Number of [`crate::SolveOp`] service classes tracked.
pub(crate) const CLASSES: usize = 2;

/// EWMA smoothing: new = old + (sample − old)/8.
const EWMA_SHIFT: u32 = 3;

/// Admission decision for one submit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Enqueue the job.
    Admit,
    /// Shed it: the effective bound in force and the backlog-drain
    /// estimate to surface as [`crate::Rejection::Overloaded`].
    Shed {
        /// The bound the queue length met or exceeded.
        bound: usize,
        /// Expected nanoseconds until the backlog ahead of a resubmit
        /// has drained.
        retry_after_ns: u64,
    },
}

/// The controller. One per service, kept beside the queue under its lock;
/// the methods that roll the sojourn window take `now_ns`, a monotone
/// nanosecond timestamp from an arbitrary epoch.
#[derive(Debug)]
pub(crate) struct Controller {
    workers: u64,
    /// Hard cap: the configured queue depth.
    cap: usize,
    /// Target queueing delay in ns; `0` = adaptive sizing off (the cap
    /// is the bound, as in the fixed-depth service).
    target_ns: u64,
    /// Per-class service-time EWMAs; `0` = no completions seen yet.
    ewma_ns: [u64; CLASSES],
    /// Cross-class EWMA, the fallback for a class with no history.
    any_ewma_ns: u64,
    /// End of the current sojourn window.
    window_end_ns: u64,
    /// Minimum sojourn observed in the current window.
    window_min_ns: Option<u64>,
    /// `true` while the last completed window was bad (min sojourn over
    /// target) — the "sustained overload" latch the priority weights
    /// sharpen on.
    overloaded: bool,
}

impl Controller {
    pub(crate) fn new(workers: usize, cap: usize, target_ns: u64) -> Self {
        Controller {
            workers: workers.max(1) as u64,
            cap: cap.max(1),
            target_ns,
            ewma_ns: [0; CLASSES],
            any_ewma_ns: 0,
            window_end_ns: 0,
            window_min_ns: None,
            overloaded: false,
        }
    }

    /// The sliding-window length: 4 target delays (CoDel uses ~several
    /// RTTs for the same reason — one service time of jitter must not
    /// flip the verdict).
    fn window_ns(&self) -> u64 {
        self.target_ns.saturating_mul(4).max(1_000_000)
    }

    /// The service-time estimate for `class`: its own EWMA, the
    /// cross-class EWMA, or `None` before any completion.
    fn service_estimate(&self, class: usize) -> Option<u64> {
        let own = self.ewma_ns[class.min(CLASSES - 1)];
        if own > 0 {
            Some(own)
        } else if self.any_ewma_ns > 0 {
            Some(self.any_ewma_ns)
        } else {
            None
        }
    }

    /// The effective admit bound for `class` at `priority`.
    pub(crate) fn bound(&self, class: usize, priority: Priority) -> usize {
        if self.target_ns == 0 {
            return self.cap;
        }
        let Some(s) = self.service_estimate(class) else {
            // Cold start: no history to size from, keep the classic cap.
            return self.cap;
        };
        // Little's law: W workers drain W·T/s jobs within the target. The
        // floor is one job per worker, unless the cap is lower still.
        let base = self.workers.saturating_mul(self.target_ns) / s.max(1);
        let base = usize::try_from(base).unwrap_or(usize::MAX);
        let base = base.clamp((self.workers as usize).min(self.cap), self.cap);
        // Priority weights: High keeps the full bound; Normal and Low
        // shed earlier, and earlier still while the sojourn window says
        // the overload is sustained.
        let scaled = match priority {
            Priority::High => base,
            Priority::Normal => base.saturating_mul(3) / 4,
            Priority::Low => base / 2,
        };
        let scaled = if self.overloaded && priority != Priority::High {
            scaled / 2
        } else {
            scaled
        };
        scaled.max(1)
    }

    /// Admission check for a submit finding `queue_len` jobs already
    /// queued. Never blocks; a `Shed` carries the bound and the
    /// backlog-drain `retry_after` estimate.
    pub(crate) fn admit(
        &mut self,
        class: usize,
        priority: Priority,
        queue_len: usize,
        now_ns: u64,
    ) -> Verdict {
        self.roll_window(now_ns);
        let bound = self.bound(class, priority);
        if queue_len < bound {
            return Verdict::Admit;
        }
        Verdict::Shed {
            bound,
            retry_after_ns: self.retry_after_ns(class, queue_len),
        }
    }

    /// Expected ns for the backlog ahead of a resubmit to drain:
    /// `(L+1)` jobs at the class service estimate across the workers.
    /// Monotone in `queue_len` for a fixed estimate, so callers under a
    /// deepening overload are told to back off harder.
    fn retry_after_ns(&self, class: usize, queue_len: usize) -> u64 {
        let s = self
            .service_estimate(class)
            .unwrap_or_else(|| self.target_ns.max(1_000_000));
        (queue_len as u64).saturating_add(1).saturating_mul(s) / self.workers
    }

    /// Records the queue sojourn of a job a worker just dequeued, and
    /// rolls the CoDel window.
    pub(crate) fn note_sojourn(&mut self, sojourn_ns: u64, now_ns: u64) {
        self.window_min_ns = Some(match self.window_min_ns {
            Some(m) => m.min(sojourn_ns),
            None => sojourn_ns,
        });
        self.roll_window(now_ns);
    }

    /// Closes the window if it has elapsed: a window whose *minimum*
    /// sojourn exceeded the target is sustained overload; a window with an
    /// under-target minimum, or with no dequeue at all, is not.
    fn roll_window(&mut self, now_ns: u64) {
        if self.target_ns == 0 {
            return;
        }
        if self.window_end_ns == 0 {
            self.window_end_ns = now_ns.saturating_add(self.window_ns());
            return;
        }
        if now_ns < self.window_end_ns {
            return;
        }
        self.overloaded = self
            .window_min_ns
            .take()
            .is_some_and(|min| min > self.target_ns);
        self.window_end_ns = now_ns.saturating_add(self.window_ns());
    }

    /// Folds a completed job's service time into its class EWMA.
    pub(crate) fn note_service(&mut self, class: usize, service_ns: u64) {
        let service_ns = service_ns.max(1);
        for slot in [
            &mut self.ewma_ns[class.min(CLASSES - 1)],
            &mut self.any_ewma_ns,
        ] {
            if *slot == 0 {
                *slot = service_ns;
            } else {
                let delta = service_ns as i64 - *slot as i64;
                *slot = (*slot as i64 + (delta >> EWMA_SHIFT)) as u64;
            }
        }
    }

    /// `true` while the last completed sojourn window was bad.
    #[cfg(test)]
    pub(crate) fn is_overloaded(&self) -> bool {
        self.overloaded
    }

    /// The class EWMA in ns (tests).
    #[cfg(test)]
    pub(crate) fn ewma(&self, class: usize) -> u64 {
        self.ewma_ns[class.min(CLASSES - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1_000_000;

    #[test]
    fn ewma_converges_to_a_step_change_in_service_time() {
        let mut c = Controller::new(4, 64, 20 * MS);
        for _ in 0..64 {
            c.note_service(0, 2 * MS);
        }
        let settled = c.ewma(0);
        assert!(
            (settled as i64 - 2 * MS as i64).unsigned_abs() < MS / 4,
            "EWMA settles near the true service time, got {settled}"
        );
        // Service time steps 2ms → 8ms: the EWMA must cross 6ms within a
        // few time constants (α = 1/8 → ~63% of the gap per 8 samples).
        for _ in 0..32 {
            c.note_service(0, 8 * MS);
        }
        assert!(
            c.ewma(0) > 6 * MS,
            "EWMA tracks the step within 32 samples, got {}",
            c.ewma(0)
        );
        // The other classes were never touched...
        assert_eq!(c.ewma(1), 0);
        // ...but the cross-class fallback covers them.
        assert!(c.service_estimate(1).is_some());
    }

    #[test]
    fn bound_follows_littles_law_and_respects_the_cap() {
        let mut c = Controller::new(4, 64, 20 * MS);
        // Cold start: no history, the configured cap holds.
        assert_eq!(c.bound(0, Priority::High), 64);
        // 2ms service, 20ms target, 4 workers → 40 jobs clear in target.
        for _ in 0..64 {
            c.note_service(0, 2 * MS);
        }
        let b = c.bound(0, Priority::High);
        assert!((38..=42).contains(&b), "Little's-law bound, got {b}");
        // Slow class: 80ms service → W·T/s = 1, clamped up to workers.
        for _ in 0..64 {
            c.note_service(1, 80 * MS);
        }
        assert_eq!(c.bound(1, Priority::High), 4);
        // The cap is a ceiling: 0.1ms service would allow 800.
        for _ in 0..64 {
            c.note_service(1, MS / 10);
        }
        assert_eq!(c.bound(1, Priority::High), 64);
        // Priority weights shed Low first.
        assert!(c.bound(0, Priority::Low) < c.bound(0, Priority::Normal));
        assert!(c.bound(0, Priority::Normal) < c.bound(0, Priority::High));
    }

    #[test]
    fn sojourn_window_sheds_on_min_not_max() {
        let mut c = Controller::new(2, 64, 10 * MS);
        for _ in 0..16 {
            c.note_service(0, 2 * MS);
        }
        let mut now = 0;
        // One window of ten dequeues `sojourn(i)` apart by 2ms, closed by
        // a jump past its end. (The inner loop advances by less than a
        // window, so only the jump rolls it.)
        let mut window = |c: &mut Controller, sojourn: &dyn Fn(usize) -> u64| {
            for i in 0..10 {
                now += 2 * MS;
                c.note_sojourn(sojourn(i), now);
            }
            now += c.window_ns();
            c.note_sojourn(sojourn(0), now);
        };
        // Open the first window, then fill it with one terrible sojourn
        // amid fine ones — a burst: the *minimum* stays low, no latch.
        c.note_sojourn(0, 0);
        window(&mut c, &|i| if i == 5 { 500 * MS } else { MS });
        assert!(!c.is_overloaded(), "a burst must not set the latch");
        // Every sojourn over target — sustained overload, and the latch
        // holds for as long as it lasts.
        for _ in 0..2 {
            window(&mut c, &|_| 40 * MS);
            assert!(c.is_overloaded());
        }
        // Recovery: one good window clears it.
        window(&mut c, &|_| MS);
        assert!(!c.is_overloaded());
    }

    #[test]
    fn overloaded_windows_halve_sub_high_bounds() {
        let mut c = Controller::new(4, 64, 10 * MS);
        for _ in 0..32 {
            c.note_service(0, MS);
        }
        let calm_low = c.bound(0, Priority::Low);
        let calm_high = c.bound(0, Priority::High);
        // Drive one bad window.
        let mut now = 0;
        c.note_sojourn(50 * MS, now);
        now += c.window_ns();
        c.note_sojourn(50 * MS, now);
        assert!(c.is_overloaded());
        assert!(c.bound(0, Priority::Low) <= calm_low / 2);
        assert_eq!(
            c.bound(0, Priority::High),
            calm_high,
            "High priority keeps the full bound under sustained overload"
        );
    }

    #[test]
    fn retry_after_is_monotone_under_step_function_load() {
        let mut c = Controller::new(2, 8, 5 * MS);
        for _ in 0..32 {
            c.note_service(0, 4 * MS);
        }
        // Step the offered queue length up; every shed's retry_after
        // must be ≥ the previous one.
        let mut last = 0;
        let mut now = 0;
        for queue_len in [8, 9, 12, 20, 33, 64] {
            now += MS;
            match c.admit(0, Priority::Normal, queue_len, now) {
                Verdict::Shed { retry_after_ns, .. } => {
                    assert!(
                        retry_after_ns >= last,
                        "retry_after must grow with the backlog \
                         ({retry_after_ns} < {last} at len {queue_len})"
                    );
                    last = retry_after_ns;
                }
                Verdict::Admit => panic!("queue_len {queue_len} must shed"),
            }
        }
        // And the hint is the Little's-law drain estimate: (L+1)·s/W.
        let expect = (64 + 1) * c.ewma(0) / 2;
        assert_eq!(last, expect);
    }

    #[test]
    fn fixed_depth_mode_keeps_the_classic_contract() {
        let mut c = Controller::new(2, 3, 0);
        for _ in 0..32 {
            c.note_service(0, 100 * MS); // would shrink an adaptive bound
        }
        assert_eq!(c.bound(0, Priority::Low), 3, "no target: cap governs");
        assert_eq!(c.admit(0, Priority::Low, 2, 0), Verdict::Admit);
        match c.admit(0, Priority::High, 3, 0) {
            Verdict::Shed {
                bound,
                retry_after_ns,
            } => {
                assert_eq!(bound, 3);
                assert!(retry_after_ns > 0, "hint still computed from EWMA");
            }
            Verdict::Admit => panic!("at the cap, must shed"),
        }
        // Sojourn windows never latch overload without a target.
        c.note_sojourn(1_000 * MS, 0);
        c.note_sojourn(1_000 * MS, u64::MAX / 2);
        assert!(!c.is_overloaded());
    }

    #[test]
    fn more_workers_than_queue_slots_keep_the_cap_as_the_bound() {
        // The Little's-law floor is one job per worker; with more workers
        // than queue slots the cap is lower still and must win (a clamp
        // whose minimum exceeds its maximum panics).
        let mut c = Controller::new(4, 2, 5 * MS);
        c.note_service(0, 100 * MS); // W·T/s = 0: the floor binds
        assert_eq!(c.bound(0, Priority::High), 2);
        assert_eq!(c.bound(0, Priority::Low), 1);
        assert_eq!(c.admit(0, Priority::High, 1, MS), Verdict::Admit);
        assert!(matches!(
            c.admit(0, Priority::High, 2, 2 * MS),
            Verdict::Shed { bound: 2, .. }
        ));
        // A fast class wants more than the cap, and gets the cap.
        c.note_service(1, 1_000);
        assert_eq!(c.bound(1, Priority::High), 2);
    }

    #[test]
    fn a_huge_target_never_bounds_below_the_cap() {
        // `W·T`, `(L+1)·s` and the window's end saturate instead of
        // wrapping (or panicking in a debug build).
        let mut c = Controller::new(4, 64, u64::MAX);
        assert_eq!(c.bound(0, Priority::High), 64, "cold start");
        let mut now = 0;
        for service_ns in [1, 1_000, 3 * MS, 3_600_000 * MS] {
            c.note_service(0, service_ns);
            now += 10 * MS;
            c.note_sojourn(service_ns, now);
            assert_eq!(c.bound(0, Priority::High), 64, "service {service_ns} ns");
            assert_eq!(c.bound(0, Priority::Normal), 48);
            assert_eq!(c.bound(0, Priority::Low), 32);
            assert_eq!(c.admit(0, Priority::High, 63, now), Verdict::Admit);
            assert!(matches!(
                c.admit(0, Priority::High, usize::MAX, now),
                Verdict::Shed { bound: 64, retry_after_ns } if retry_after_ns > 0
            ));
        }
    }
}
