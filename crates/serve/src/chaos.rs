//! Chaos-mode helpers for the soak tests and the `serve_load` generator
//! (`fault-inject` builds only).
//!
//! A chaos run drives a deterministic stream of fault events — silent
//! stripe corruption through [`la_core::abft::inject`], injected worker
//! panics, NaN-poisoned inputs, already-expired deadlines — against a
//! live [`crate::Service`] and asserts the serving invariants: zero wrong
//! answers served, zero pool poisonings, every injected fault resolved by
//! the degradation ladder or surfaced as a typed [`crate::Rejection`].
//!
//! Determinism note: the event stream is a pure function of the seed, but
//! *which* concurrent job a one-shot armed corruption lands on is decided
//! by thread scheduling — chaos asserts global invariants, not per-job
//! trajectories.

use std::time::Instant;

use la_core::abft::inject::{arm, CorruptKind, Corruption};
use la_core::tune::TuneConfig;
use la_core::{RealScalar, Scalar};
use la_lapack::max_abs1;

use crate::{JobSpec, SolveOp};

/// One chaos decision for one job.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ChaosEvent {
    /// No interference.
    Clean,
    /// Arm a one-shot silent corruption against the job's factorization
    /// routine (`getrf` for the LU ops, `potrf` for the Cholesky op).
    SoftFault,
    /// Set the job's [`JobSpec::chaos_panic`] flag: the worker panics at
    /// the job boundary, exercising panic isolation.
    WorkerPanic,
    /// Poison `A(0,0)` with a NaN — the answer must be screened out, never
    /// served.
    Poison,
    /// Give the job an already-expired deadline.
    PastDeadline,
    /// Wedge the worker that picks this job up — a tight loop that stops
    /// heartbeating, exercising the stuck-job watchdog (cooperative and
    /// hard flavors alternate via [`WedgeKind`]).
    WedgedWorker,
    /// A generator-level event, for a load generator that paces its
    /// arrivals: submit the next few jobs back-to-back. [`ChaosPlan::apply`]
    /// leaves the spec untouched, so a closed-loop client (the
    /// `serve_load --chaos` soak, `tests/serve.rs`) submits it as a clean
    /// job; `serve_load --overload --chaos` injects its bursts on a fixed
    /// schedule of its own.
    Burst,
}

impl ChaosEvent {
    /// Lowercase name for logs and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            ChaosEvent::Clean => "clean",
            ChaosEvent::SoftFault => "soft_fault",
            ChaosEvent::WorkerPanic => "worker_panic",
            ChaosEvent::Poison => "poison",
            ChaosEvent::PastDeadline => "past_deadline",
            ChaosEvent::WedgedWorker => "wedged_worker",
            ChaosEvent::Burst => "burst",
        }
    }
}

/// How a chaos-wedged job misbehaves.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum WedgeKind {
    /// Spins without heartbeating but polls its cancel token: stage 1 of
    /// the watchdog (cooperative cancel) releases it and the job resolves
    /// [`crate::Rejection::Stuck`] through the worker, which survives.
    Cooperative,
    /// Ignores the cancel token entirely: only stage 2 (abandon +
    /// respawn) or service shutdown releases it. Models foreign-code
    /// livelock.
    Hard,
}

/// Deterministic chaos event stream (splitmix64 over a seed): ~58% clean
/// traffic, the rest split across the fault kinds.
#[derive(Clone, Debug)]
pub struct ChaosPlan {
    state: u64,
    flip: bool,
    wedge_flip: bool,
}

impl ChaosPlan {
    /// A plan; equal seeds give equal event streams.
    pub fn new(seed: u64) -> Self {
        ChaosPlan {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
            flip: false,
            wedge_flip: false,
        }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The next event in the stream.
    pub fn next_event(&mut self) -> ChaosEvent {
        match self.next_u64() % 12 {
            0..=6 => ChaosEvent::Clean,
            7 | 8 => ChaosEvent::SoftFault,
            9 => ChaosEvent::WorkerPanic,
            10 => {
                self.flip = !self.flip;
                if self.flip {
                    ChaosEvent::Poison
                } else {
                    ChaosEvent::PastDeadline
                }
            }
            11 => {
                self.wedge_flip = !self.wedge_flip;
                if self.wedge_flip {
                    ChaosEvent::WedgedWorker
                } else {
                    ChaosEvent::Burst
                }
            }
            _ => unreachable!(),
        }
    }

    /// Applies `event` to `spec` (arming the global injector for
    /// [`ChaosEvent::SoftFault`]) and returns the spec to submit.
    pub fn apply<T: Scalar>(&mut self, event: ChaosEvent, mut spec: JobSpec<T>) -> JobSpec<T> {
        match event {
            ChaosEvent::Clean => spec,
            ChaosEvent::SoftFault => {
                let routine = match spec.op {
                    SolveOp::Gesv => "getrf",
                    SolveOp::Posv(_) => "potrf",
                };
                let kind = if self.next_u64().is_multiple_of(2) {
                    CorruptKind::FlipMantissaBit
                } else {
                    CorruptKind::Scale
                };
                arm(Corruption {
                    routine,
                    stripe: (self.next_u64() % 2) as usize,
                    kind,
                });
                spec
            }
            ChaosEvent::WorkerPanic => spec.chaos_panic(),
            ChaosEvent::Poison => {
                spec.a[(0, 0)] = T::from_f64(f64::NAN);
                spec
            }
            ChaosEvent::PastDeadline => spec.deadline_at(Instant::now()),
            ChaosEvent::WedgedWorker => {
                let kind = if self.next_u64().is_multiple_of(2) {
                    WedgeKind::Cooperative
                } else {
                    WedgeKind::Hard
                };
                spec.chaos_wedge(kind)
            }
            // Burst is interpreted by the load generator (pacing), not
            // the job.
            ChaosEvent::Burst => spec,
        }
    }
}

/// The wedge loop a chaos-marked job runs instead of heartbeating: a
/// [`WedgeKind::Cooperative`] wedge releases on cancellation (the
/// watchdog's stage 1), a [`WedgeKind::Hard`] wedge only on worker
/// abandonment (stage 2) or service shutdown. Deliberately does NOT call
/// [`la_core::cancel::cancelled`] — that would stamp the heartbeat and
/// defeat the point.
pub(crate) fn wedge(
    kind: WedgeKind,
    token: &la_core::cancel::CancelToken,
    abandoned: &std::sync::atomic::AtomicBool,
    shutdown: &std::sync::atomic::AtomicBool,
) {
    use std::sync::atomic::Ordering;
    loop {
        let released = match kind {
            WedgeKind::Cooperative => token.is_cancelled(),
            WedgeKind::Hard => abandoned.load(Ordering::Acquire),
        } || shutdown.load(Ordering::Acquire);
        if released {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// Tuning that makes the ABFT-protected blocked paths engage at soak-size
/// problems (small `NB`, zero parallel threshold, a nested-pool budget of
/// its own) — without it, small matrices take the unprotected serial fast
/// path and armed corruption never fires.
pub fn chaos_tune() -> TuneConfig {
    TuneConfig {
        max_threads: 2,
        oversubscribe: true,
        par_flops: 0,
        nb_getrf: 8,
        nb_potrf: 8,
        ..TuneConfig::defaults()
    }
}

/// `true` when `x` solves `a·x = b` to a chaos-grade tolerance — the
/// independent wrongness check the soak applies to every *served* answer
/// (`64·n·ε`, same bound the service's own verifier uses). The norms are
/// [`la_lapack::max_abs1`], which keeps a NaN wherever it sits.
pub fn answer_is_plausible<T: Scalar>(
    a: &la_core::Mat<T>,
    b: &la_core::Mat<T>,
    x: &la_core::Mat<T>,
) -> bool {
    let n = a.nrows();
    let nrhs = b.ncols();
    let mut r = b.clone();
    let rld = r.lda();
    la_blas::gemm(
        la_core::Trans::No,
        la_core::Trans::No,
        n,
        nrhs,
        n,
        -T::one(),
        a.as_slice(),
        a.lda(),
        x.as_slice(),
        x.lda(),
        T::one(),
        r.as_mut_slice(),
        rld,
    );
    let amax = max_abs1(a.as_slice());
    let nr = T::Real::from_usize(n);
    let tol = T::Real::EPS * nr * T::Real::from_usize(64);
    for j in 0..nrhs {
        let (rnrm, xnrm, bnrm) = (max_abs1(r.col(j)), max_abs1(x.col(j)), max_abs1(b.col(j)));
        if !rnrm.is_finite_r() || !xnrm.is_finite_r() {
            return false;
        }
        let den = nr * amax * xnrm + bnrm;
        if den > T::Real::zero() && rnrm / den > tol {
            return false;
        }
    }
    true
}

/// Silences the default panic report for the injected chaos panics only;
/// genuine panics (including test assertion failures) still print.
pub fn quiet_chaos_panics() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains("chaos: injected"))
                .unwrap_or(false);
            if !injected {
                default(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_nan_in_a_alone_is_not_plausible() {
        // x solves the clean system exactly; A(0, 0) = NaN makes the
        // residual [NaN, 0, …], which a running `maxr` reduces to 0.
        let n = 8;
        let mut a = la_core::Mat::from_fn(n, n, |i, j| if i == j { 4.0 } else { 0.5 });
        let x = la_core::Mat::from_fn(n, 1, |_, _| 1.0);
        let b = la_core::Mat::from_fn(n, 1, |_, _| 4.0 + 0.5 * (n - 1) as f64);
        assert!(answer_is_plausible(&a, &b, &x));
        a[(0, 0)] = f64::NAN;
        assert!(!answer_is_plausible(&a, &b, &x));
    }

    #[test]
    fn plan_is_deterministic_and_mixed() {
        let evs: Vec<_> = {
            let mut p = ChaosPlan::new(42);
            (0..200).map(|_| p.next_event()).collect()
        };
        let again: Vec<_> = {
            let mut p = ChaosPlan::new(42);
            (0..200).map(|_| p.next_event()).collect()
        };
        assert_eq!(evs, again, "same seed, same stream");
        for kind in [
            ChaosEvent::Clean,
            ChaosEvent::SoftFault,
            ChaosEvent::WorkerPanic,
            ChaosEvent::Poison,
            ChaosEvent::PastDeadline,
            ChaosEvent::WedgedWorker,
            ChaosEvent::Burst,
        ] {
            assert!(
                evs.contains(&kind),
                "200 events must include {kind:?} at least once"
            );
        }
        let clean = evs.iter().filter(|e| **e == ChaosEvent::Clean).count();
        assert!(clean > 80, "the majority of traffic stays clean");
    }
}
