//! Algorithm-based fault tolerance (ABFT) — Huang–Abraham checksum
//! verification for the parallel BLAS-3 layer and the blocked
//! factorizations, with optional automatic recovery.
//!
//! A band body that *panics* is a bug and re-raises like any other panic
//! (a dag task maps it to `INFO = -104`); a band that silently computes a
//! **wrong finite answer** — a soft error — passes every other check.
//! The classical Huang–Abraham scheme closes that gap: encode checksum
//! vectors of the inputs (`e^T·A`, `B·e`), run the O(n³) operation, and
//! verify the O(n²) output against the checksum identity
//! (`e^T·C = (e^T·A)·B` for `gemm`) with a norm-scaled tolerance.
//! Detection costs O(n²) against O(n³) work.
//!
//! This module hosts the policy and the bookkeeping; the checksum algebra
//! itself lives next to the routines it protects (`la-blas`, `la-lapack`).
//!
//! * [`AbftPolicy`] — `Off` (default, zero cost) / `Verify` (detect and
//!   report `INFO = -102`) / `Recover` (detect, then recompute the
//!   offending column band from the pre-call snapshot). One field of the
//!   ambient context ([`crate::ctx::Ctx::abft`]): initialized from the
//!   `LA_ABFT` environment variable, settable process-wide via
//!   [`crate::ctx::update`] or per call tree via [`with_policy`].
//! * [`raise`] / [`take_pending`] — the thread-local "soft-fault errno":
//!   the BLAS-3 layer returns `()`, so a detected-but-unrecovered fault is
//!   parked here and collected by the `la90` driver on exit, surfacing as
//!   `LaError::SoftFault` (`INFO = -102`) through `ERINFO`.
//! * [`checks`] / [`detections`] / [`recoveries`] — process-lifetime
//!   counters, folded into [`crate::probe`] reports.
//! * `inject` (behind the `fault-inject` cargo feature) — silent
//!   corruption injection: flip a mantissa bit or scale one output element
//!   in a chosen band or block, so detection and recovery are testable
//!   end-to-end. Release builds without the feature compile the hooks out.
//!
//! Verification deliberately ignores non-finite discrepancies: a NaN/Inf
//! in the data is the domain of [`crate::except`] (`INFO = -101`), not a
//! soft fault — ABFT flags only *finite* wrong answers.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::ctx;

/// `INFO` code of a job whose computation returned clean but left an
/// unrepaired soft fault parked (see [`raise`]): the answer failed
/// checksum verification. Maps to [`crate::LaError::SoftFault`] through
/// `ERINFO`.
pub const INFO_SOFT_FAULT: i32 = -102;

/// What the checksum-protected routines do about soft faults.
///
/// `Off` reduces the whole subsystem to a single relaxed policy load per
/// protected call; `Verify` adds the O(n²) encode/verify sweeps; `Recover`
/// additionally snapshots the output so a detected fault can be repaired
/// in place.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum AbftPolicy {
    /// No checksums, no snapshots (the classical behaviour). Default.
    #[default]
    Off,
    /// Encode and verify checksums; on mismatch, park a soft fault for
    /// the driver layer to report as `LaError::SoftFault` (`INFO = -102`).
    /// The corrupted result is left in place for post-mortem inspection.
    Verify,
    /// Encode, verify, and on mismatch restore the offending column bands
    /// from the pre-call snapshot and re-run the call's own band body on
    /// them. The repaired result is bitwise-identical to an uncorrupted
    /// run.
    Recover,
}

impl AbftPolicy {
    /// `true` when checksums are to be maintained at all.
    #[inline(always)]
    pub fn enabled(self) -> bool {
        !matches!(self, AbftPolicy::Off)
    }

    /// `true` when a detected fault is to be repaired in place.
    #[inline(always)]
    pub fn recover(self) -> bool {
        matches!(self, AbftPolicy::Recover)
    }

    /// Parses an `LA_ABFT` value. Accepted (case-insensitive):
    /// `off`/`none`/`0` → `Off`; `verify`/`check`/`detect` → `Verify`;
    /// `recover`/`on`/`1` → `Recover`.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "0" => Some(AbftPolicy::Off),
            "verify" | "check" | "detect" => Some(AbftPolicy::Verify),
            "recover" | "on" | "1" => Some(AbftPolicy::Recover),
            _ => None,
        }
    }
}

// Per-job state: deliberately *not* part of the ambient frame, so it never
// crosses a thread hop.
thread_local! {
    /// The parked fault is stamped with the job epoch it was raised in,
    /// so a fault from job A can never be collected by job B (see
    /// [`job_scope`]).
    static PENDING: Cell<Option<(SoftFault, u64)>> = const { Cell::new(None) };
    /// Monotone per-thread job epoch; bumped at [`job_scope`] entry *and*
    /// exit (exit included on panic), so work outside any scope can never
    /// share an epoch with work inside one.
    static EPOCH: Cell<u64> = const { Cell::new(0) };
}

/// The policy in effect on this thread: the innermost scope's if one is
/// open, the process-global policy otherwise.
pub fn policy() -> AbftPolicy {
    ctx::peek(|f| f.ctx.abft)
}

/// Runs `f` with `p` in effect on the current thread and on every worker
/// the call tree fans out to, restoring the previous state afterwards
/// (also on panic). Nested calls stack.
pub fn with_policy<R>(p: AbftPolicy, f: impl FnOnce() -> R) -> R {
    ctx::scoped(|frame| frame.ctx.abft = p, f)
}

/// A detected-but-unrepaired soft fault, parked thread-locally until the
/// driver layer collects it (see [`raise`] / [`take_pending`]).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SoftFault {
    /// The protected routine whose checksum identity failed (lowercase
    /// computational name, e.g. `"gemm"`, `"getrf"`).
    pub routine: &'static str,
    /// The offending column band / block index (0-based) when the verifier
    /// could localize it, `usize::MAX` when it could not.
    pub block: usize,
}

/// Parks a soft fault on the current thread (keeping the first if several
/// accumulate — the earliest detection localizes best) and bumps the
/// detection counter. Called by the verifiers in `la-blas` / `la-lapack`
/// under [`AbftPolicy::Verify`], or under `Recover` when even the rerun
/// fails verification.
pub fn raise(routine: &'static str, block: usize) {
    note_detection();
    let epoch = EPOCH.with(|e| e.get());
    PENDING.with(|p| {
        if p.get().is_none() {
            p.set(Some((SoftFault { routine, block }, epoch)));
        }
    });
}

/// Takes and clears the pending soft fault, if any. The `la90` drivers
/// call this on exit to turn a parked fault into
/// `LaError::SoftFault` (`INFO = -102`).
///
/// A fault parked in an *earlier job epoch* (a [`job_scope`] that has
/// since exited — e.g. a cancelled or panicked job that never reached its
/// own `erinfo`) is silently discarded instead of returned: cross-job
/// fault leakage on a reused worker thread was a real bug, and the epoch
/// stamp is what closes it.
pub fn take_pending() -> Option<SoftFault> {
    let epoch = EPOCH.with(|e| e.get());
    PENDING.with(|p| match p.take() {
        Some((f, e)) if e == epoch => Some(f),
        _ => None,
    })
}

/// Clears any stale pending fault without reporting it. Called at driver
/// *entry* so a fault raised under a caller who never checked (e.g. a raw
/// BLAS call outside any driver) cannot leak into an unrelated call.
pub fn clear_pending() {
    PENDING.with(|p| p.set(None));
}

/// Runs `f` as an isolated *job*: the per-thread fault epoch is bumped at
/// entry and again at exit (panic included), and any stale pending fault
/// is dropped at entry. Inside the scope, [`raise`] / [`take_pending`]
/// behave as usual; a fault the job leaves behind — because it was
/// cancelled, panicked, or simply never consulted `erinfo` — is dead on
/// scope exit and can never surface as `INFO = -102` in a later job that
/// happens to run on the same worker thread.
///
/// [`ctx::isolated`] (dag tasks) and the `la-serve` workers wrap every job
/// in this scope.
pub fn job_scope<R>(f: impl FnOnce() -> R) -> R {
    struct Guard;
    impl Drop for Guard {
        fn drop(&mut self) {
            // Exit bump: whatever the job parked is now unreachable.
            EPOCH.with(|e| e.set(e.get().wrapping_add(1)));
        }
    }
    EPOCH.with(|e| e.set(e.get().wrapping_add(1)));
    clear_pending();
    let _guard = Guard;
    f()
}

static CHECKS: AtomicU64 = AtomicU64::new(0);
static DETECTIONS: AtomicU64 = AtomicU64::new(0);
static RECOVERIES: AtomicU64 = AtomicU64::new(0);

/// Records one completed checksum verification (regardless of outcome).
pub fn note_check() {
    CHECKS.fetch_add(1, Ordering::Relaxed);
}

/// Records one checksum mismatch (a detected soft fault). Bumped by
/// [`raise`] and by the recovery path before it repairs.
pub fn note_detection() {
    DETECTIONS.fetch_add(1, Ordering::Relaxed);
}

/// Records one successful in-place repair under [`AbftPolicy::Recover`].
pub fn note_recovery() {
    RECOVERIES.fetch_add(1, Ordering::Relaxed);
}

/// Process-lifetime count of checksum verifications.
pub fn checks() -> u64 {
    CHECKS.load(Ordering::Relaxed)
}

/// Process-lifetime count of detected soft faults.
pub fn detections() -> u64 {
    DETECTIONS.load(Ordering::Relaxed)
}

/// Process-lifetime count of successful recoveries.
pub fn recoveries() -> u64 {
    RECOVERIES.load(Ordering::Relaxed)
}

/// Silent-corruption injection, compiled in only with the `fault-inject`
/// cargo feature — the soft-error analog of the refused-spawn hook in
/// [`crate::ctx::inject`].
///
/// A test [`arm`](inject::arm)s one [`Corruption`](inject::Corruption) naming a routine, a
/// band and a [`CorruptKind`](inject::CorruptKind); the first matching column band calls
/// [`maybe_corrupt`](inject::maybe_corrupt) on one of its output elements,
/// fires exactly once (disarming itself, so ABFT recovery reruns recompute
/// clean), and everything else proceeds untouched. Without the feature the
/// protected routines contain no hook at all.
#[cfg(feature = "fault-inject")]
pub mod inject {
    use crate::scalar::{RealScalar, Scalar};
    use std::sync::Mutex;

    /// How the targeted element is corrupted.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub enum CorruptKind {
        /// XOR bit 51 into the f64 image of the real part — the classic
        /// "cosmic-ray" single-bit mantissa flip (a zero element is set to
        /// one instead, so the corruption is never below tolerance).
        FlipMantissaBit,
        /// Multiply the element by 2 (a zero element is set to one) — a
        /// magnitude error, the kind a broken FMA or a dropped iteration
        /// produces.
        Scale,
    }

    /// One armed corruption: fires in `routine`, column band / block
    /// `stripe`, then disarms.
    #[derive(Copy, Clone, Debug, PartialEq, Eq)]
    pub struct Corruption {
        /// Protected routine to corrupt (lowercase computational name,
        /// e.g. `"gemm"`, `"getrf"`).
        pub routine: &'static str,
        /// 0-based column band (BLAS-3) or block (factorization) index.
        pub stripe: usize,
        /// The corruption applied.
        pub kind: CorruptKind,
    }

    fn armed() -> &'static Mutex<Option<Corruption>> {
        static ARMED: std::sync::OnceLock<Mutex<Option<Corruption>>> = std::sync::OnceLock::new();
        ARMED.get_or_init(|| Mutex::new(None))
    }

    /// Arms `c`; the next matching band or block fires it. Replaces any
    /// previously armed corruption.
    pub fn arm(c: Corruption) {
        *armed().lock().unwrap_or_else(|e| e.into_inner()) = Some(c);
    }

    /// Disarms without firing. Tests call this in cleanup so a corruption
    /// that never matched cannot leak into a later case.
    pub fn disarm() -> Option<Corruption> {
        armed().lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    /// `true` iff a corruption is currently armed (fired ones are not).
    pub fn is_armed() -> bool {
        armed().lock().unwrap_or_else(|e| e.into_inner()).is_some()
    }

    /// Injection point: if the armed corruption matches `(routine,
    /// stripe)`, corrupt `*x`, disarm, and return `true`. One cheap lock
    /// per *band*, not per element — and only in `fault-inject` builds.
    pub fn maybe_corrupt<T: Scalar>(routine: &str, stripe: usize, x: &mut T) -> bool {
        let mut guard = armed().lock().unwrap_or_else(|e| e.into_inner());
        match *guard {
            Some(c) if c.routine == routine && c.stripe == stripe => {
                *guard = None;
                drop(guard);
                *x = corrupt(c.kind, *x);
                true
            }
            _ => false,
        }
    }

    fn corrupt<T: Scalar>(kind: CorruptKind, x: T) -> T {
        if x.is_zero() {
            return T::one();
        }
        match kind {
            CorruptKind::FlipMantissaBit => {
                let flipped = f64::from_bits(x.re().to_f64().to_bits() ^ (1u64 << 51));
                T::from_re_im(T::Real::from_f64(flipped), x.im())
            }
            CorruptKind::Scale => x.mul_real(T::Real::from_f64(2.0)),
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn one_shot_fire_and_disarm() {
            disarm();
            arm(Corruption {
                routine: "gemm",
                stripe: 1,
                kind: CorruptKind::Scale,
            });
            let mut x = 3.0f64;
            // Wrong routine / wrong stripe: no fire.
            assert!(!maybe_corrupt("trsm", 1, &mut x));
            assert!(!maybe_corrupt("gemm", 0, &mut x));
            assert_eq!(x, 3.0);
            // Match: fires once, then disarms.
            assert!(maybe_corrupt("gemm", 1, &mut x));
            assert_eq!(x, 6.0);
            assert!(!is_armed());
            assert!(!maybe_corrupt("gemm", 1, &mut x));
            assert_eq!(x, 6.0);
        }

        #[test]
        fn corruption_never_below_tolerance() {
            // A zero target would yield a sub-tolerance (or no-op)
            // corruption; both kinds promote it to one instead.
            for kind in [CorruptKind::FlipMantissaBit, CorruptKind::Scale] {
                assert_eq!(corrupt(kind, 0.0f64), 1.0);
            }
            // Bit 51 of 1.5's mantissa is set: flipping clears it.
            assert_eq!(corrupt(CorruptKind::FlipMantissaBit, 1.5f64), 1.0);
            let c = corrupt(CorruptKind::FlipMantissaBit, crate::C64::new(1.5, 2.0));
            assert_eq!(c, crate::C64::new(1.0, 2.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_documented_spellings() {
        assert_eq!(AbftPolicy::parse("off"), Some(AbftPolicy::Off));
        assert_eq!(AbftPolicy::parse("0"), Some(AbftPolicy::Off));
        assert_eq!(AbftPolicy::parse("verify"), Some(AbftPolicy::Verify));
        assert_eq!(AbftPolicy::parse("CHECK"), Some(AbftPolicy::Verify));
        assert_eq!(AbftPolicy::parse("recover"), Some(AbftPolicy::Recover));
        assert_eq!(AbftPolicy::parse("1"), Some(AbftPolicy::Recover));
        assert_eq!(AbftPolicy::parse("bogus"), None);
    }

    #[test]
    fn policy_levels() {
        assert!(!AbftPolicy::Off.enabled());
        assert!(AbftPolicy::Verify.enabled());
        assert!(!AbftPolicy::Verify.recover());
        assert!(AbftPolicy::Recover.enabled());
        assert!(AbftPolicy::Recover.recover());
    }

    #[test]
    fn scoped_policy_stacks_and_restores() {
        let base = policy();
        with_policy(AbftPolicy::Verify, || {
            assert_eq!(policy(), AbftPolicy::Verify);
            with_policy(AbftPolicy::Recover, || {
                assert_eq!(policy(), AbftPolicy::Recover);
            });
            assert_eq!(policy(), AbftPolicy::Verify);
        });
        assert_eq!(policy(), base);
    }

    #[test]
    fn pending_fault_first_wins_and_clears() {
        clear_pending();
        assert_eq!(take_pending(), None);
        raise("gemm", 2);
        raise("trsm", 0); // later faults don't displace the first
        assert_eq!(
            take_pending(),
            Some(SoftFault {
                routine: "gemm",
                block: 2
            })
        );
        assert_eq!(take_pending(), None);
        raise("syrk", 1);
        clear_pending();
        assert_eq!(take_pending(), None);
    }

    #[test]
    fn job_scope_kills_cross_job_fault_leakage() {
        clear_pending();
        // Job A detects a fault but is abandoned (cancelled/panicked)
        // before any driver drains it...
        job_scope(|| {
            raise("gemm", 3);
            // ...inside its own scope the fault is visible as usual:
            assert_eq!(
                take_pending(),
                Some(SoftFault {
                    routine: "gemm",
                    block: 3
                })
            );
            raise("getrf", 1); // park another one and *leave it behind*
        });
        // Job B on the same thread must not inherit A's fault — neither
        // bare...
        assert_eq!(take_pending(), None);
        // ...nor inside its own scope:
        job_scope(|| assert_eq!(take_pending(), None));

        // A panicking job still retires its epoch (Drop guard), so the
        // fault it left behind stays dead.
        let _ = std::panic::catch_unwind(|| {
            job_scope(|| {
                raise("potrf", 0);
                panic!("job died mid-flight");
            })
        });
        assert_eq!(take_pending(), None);
        job_scope(|| assert_eq!(take_pending(), None));
    }

    #[test]
    fn counters_are_monotone() {
        let (c0, d0, r0) = (checks(), detections(), recoveries());
        note_check();
        note_recovery();
        clear_pending();
        raise("gemm", 0); // bumps detections
        take_pending();
        assert!(checks() > c0);
        assert!(detections() > d0);
        assert!(recoveries() > r0);
    }
}
