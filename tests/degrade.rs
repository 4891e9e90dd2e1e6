//! Fault tolerance of the BLAS-3 layer and the blocked factorizations,
//! exercised through the test-only injection hooks:
//!
//! 1. **Refused threads**: when the OS refuses every thread a BLAS-3 call
//!    asks for, the call runs its bands on the caller and produces the
//!    one-thread result bit for bit — no fallback, no failure.
//! 2. **ABFT corruption sweep**: a silently corrupted element (bit flip
//!    or scaling, injected one-shot into a chosen band/block) must be
//!    *detected* by the Huang–Abraham checksums under
//!    `AbftPolicy::Verify` (pending soft fault, `INFO = -102` at the
//!    driver layer) and *repaired bitwise-identically* under
//!    `AbftPolicy::Recover`, while `AbftPolicy::Off` neither checks nor
//!    touches the counters.
//!
//! Both hooks only exist in builds with the `fault-inject` cargo feature
//! — default builds compile them out of the hot paths — so this suite is
//! gated the same way.

#![cfg(feature = "fault-inject")]

use la_blas::{gemm, symm, syrk, trmm, trsm};
use la_core::abft::inject::{arm, is_armed, CorruptKind, Corruption};
use la_core::abft::{self, AbftPolicy};
use la_core::ctx::inject::refuse_spawns;
use la_core::{probe, tune, Diag, LaError, Mat, ProbePolicy, Scalar, Side, Trans, Uplo, C64};

/// Serial reference: thread budget 1.
fn serial() -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: 1,
        ..tune::TuneConfig::defaults()
    }
}

/// Forced-parallel, with small factorization blocks so the blocked
/// getrf/potrf paths engage at test sizes: 4 threads, every flop count
/// above threshold.
fn forced() -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: 4,
        oversubscribe: true,
        par_flops: 0,
        nb_getrf: 8,
        nb_potrf: 8,
        ..tune::TuneConfig::defaults()
    }
}

struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
    fn val<T: Scalar>(&mut self) -> T {
        let re = self.next_f64();
        let im = if T::IS_COMPLEX { self.next_f64() } else { 0.0 };
        T::from_re_im(T::Real::from_f64(re), T::Real::from_f64(im))
    }
    fn vec<T: Scalar>(&mut self, n: usize) -> Vec<T> {
        (0..n).map(|_| self.val()).collect()
    }
}

/// Runs `op` twice on a copy of `out0` — once at one thread, once forced
/// to four bands with every spawn refused — and asserts the refused run
/// ran on the caller, says so on its probe span, and produced
/// bitwise-identical output.
fn check_refused<T: Scalar>(what: &str, out0: &[T], op: impl Fn(&mut [T])) {
    let mut reference = out0.to_vec();
    tune::with(serial(), || op(&mut reference));

    let mut refused = out0.to_vec();
    probe::reset();
    refuse_spawns(usize::MAX);
    probe::with_policy(ProbePolicy::Spans, || {
        tune::with(forced(), || op(&mut refused))
    });
    let left = refuse_spawns(0);
    assert!(left < usize::MAX, "{what}: no spawn was attempted");
    assert!(
        reference == refused,
        "{what}: refused-spawn result is not bitwise-identical to one thread"
    );
    // Every banded call under the op (`symm`'s is a `gemm`) records the
    // one thread that ran, not the four it planned.
    fn banded<'s>(s: &'s probe::Span, out: &mut Vec<&'s probe::Span>) {
        if ["gemm", "syrk", "trmm", "trsm"].contains(&s.routine) && !s.abft {
            out.push(s);
        }
        s.children.iter().for_each(|c| banded(c, out));
    }
    let report = probe::snapshot();
    let mut spans = Vec::new();
    report.spans.iter().for_each(|s| banded(s, &mut spans));
    assert!(!spans.is_empty(), "{what}: no banded span recorded");
    for s in spans {
        assert_eq!(s.threads, 1, "{what}: {} span threads", s.routine);
    }
    // The tune global must be left usable (no poisoned lock, no lingering
    // override).
    assert_eq!(tune::current(), tune::current());
    tune::update(|_| {});
}

fn refuse_all_ops<T: Scalar>() {
    let mut rng = Rng(7);
    let (m, n, k) = (45usize, 67, 33);
    let a: Vec<T> = rng.vec(m * k);
    let b: Vec<T> = rng.vec(k * n);
    let c0: Vec<T> = rng.vec(m * n);
    check_refused("gemm", &c0, |c| {
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            T::from_f64(1.25),
            &a,
            m,
            &b,
            k,
            T::from_f64(0.5),
            c,
            m,
        )
    });

    // Triangular ops: diagonally dominant A keeps the solve tame.
    let (tm, tn) = (40usize, 30usize);
    let mut tri: Vec<T> = rng.vec(tm * tm);
    for i in 0..tm {
        tri[i + i * tm] = T::from_f64(4.0);
    }
    let b0: Vec<T> = rng.vec(tm * tn);
    check_refused("trsm", &b0, |bb| {
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            tm,
            tn,
            T::one(),
            &tri,
            tm,
            bb,
            tm,
        )
    });
    check_refused("trmm", &b0, |bb| {
        trmm(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            tm,
            tn,
            T::from_f64(0.75),
            &tri,
            tm,
            bb,
            tm,
        )
    });

    // Rank-k update: n > 2·NB so the bands go to several workers.
    let (sn, sk) = (100usize, 20usize);
    let sa: Vec<T> = rng.vec(sn * sk);
    let sc0: Vec<T> = rng.vec(sn * sn);
    check_refused("syrk", &sc0, |cc| {
        syrk(
            Uplo::Lower,
            Trans::No,
            sn,
            sk,
            T::from_f64(1.5),
            &sa,
            sn,
            T::from_f64(0.25),
            cc,
            sn,
        )
    });

    // symm routes its heavy path through gemm, so the same bands run on
    // the caller.
    let (hm, hn) = (30usize, 30usize);
    let ha: Vec<T> = rng.vec(hm * hm);
    let hb: Vec<T> = rng.vec(hm * hn);
    let hc0: Vec<T> = rng.vec(hm * hn);
    check_refused("symm", &hc0, |cc| {
        symm(
            false,
            Side::Left,
            Uplo::Upper,
            hm,
            hn,
            T::from_f64(0.5),
            &ha,
            hm,
            &hb,
            hm,
            T::from_f64(2.0),
            cc,
            hm,
        )
    });
}

// One sequential test: the ABFT counters and the injection arming slot
// are process-global, so concurrent #[test] threads would race their
// before/after deltas (and could consume each other's armed corruption).
#[test]
fn injected_faults_are_survived_and_recovered() {
    refuse_all_ops::<f64>();
    refuse_all_ops::<C64>();
    corruption_sweep::<f64>();
    corruption_sweep::<C64>();
    corruption_through_drivers();
    abft_probe_report_sees_the_counters();
}

// ---------------------------------------------------------------------
// ABFT corruption sweep
// ---------------------------------------------------------------------

/// Runs one protected entry point under every policy with a one-shot
/// corruption armed at each of `stripes`, asserting the full detection /
/// recovery / off contract against a clean same-config reference.
fn sweep_case<T: Scalar>(
    routine: &'static str,
    stripes: &[usize],
    out0: &[T],
    run: impl Fn(&mut [T]),
) {
    // Clean same-config reference: corruption disarmed, checksums (under
    // whatever the ambient policy is) never alter a passing result.
    let mut clean = out0.to_vec();
    tune::with(forced(), || run(&mut clean));

    for (si, &stripe) in stripes.iter().enumerate() {
        // Alternate the corruption flavor so both injector kinds are hit.
        let kind = if si % 2 == 0 {
            CorruptKind::FlipMantissaBit
        } else {
            CorruptKind::Scale
        };
        for policy in [AbftPolicy::Off, AbftPolicy::Verify, AbftPolicy::Recover] {
            abft::clear_pending();
            let checks0 = abft::checks();
            let detections0 = abft::detections();
            let recoveries0 = abft::recoveries();
            let mut out = out0.to_vec();
            tune::with(forced(), || {
                abft::with_policy(policy, || {
                    arm(Corruption {
                        routine,
                        stripe,
                        kind,
                    });
                    run(&mut out);
                })
            });
            let tag = format!("{routine}/stripe {stripe}/{policy:?}");
            assert!(!is_armed(), "{tag}: corruption did not fire");
            match policy {
                AbftPolicy::Off => {
                    assert_ne!(out, clean, "{tag}: corruption had no effect");
                    assert_eq!(abft::checks(), checks0, "{tag}: Off must not check");
                    assert_eq!(
                        abft::detections(),
                        detections0,
                        "{tag}: Off must not detect"
                    );
                    assert!(abft::take_pending().is_none(), "{tag}: Off parked a fault");
                }
                AbftPolicy::Verify => {
                    assert_ne!(out, clean, "{tag}: Verify must not repair");
                    assert!(abft::checks() > checks0, "{tag}: no check ran");
                    assert!(abft::detections() > detections0, "{tag}: not detected");
                    assert_eq!(abft::recoveries(), recoveries0, "{tag}: Verify recovered");
                    let fault = abft::take_pending().unwrap_or_else(|| {
                        panic!("{tag}: no pending soft fault");
                    });
                    assert_eq!(fault.routine, routine, "{tag}: wrong faulting routine");
                }
                AbftPolicy::Recover => {
                    assert_eq!(out, clean, "{tag}: recovery not bitwise-identical");
                    assert!(abft::detections() > detections0, "{tag}: not detected");
                    assert!(abft::recoveries() > recoveries0, "{tag}: not recovered");
                    assert!(
                        abft::take_pending().is_none(),
                        "{tag}: recovered run left a pending fault"
                    );
                }
            }
        }
    }
}

/// Symmetric positive definite test matrix (diagonally dominant).
fn spd<T: Scalar>(n: usize) -> Vec<T> {
    let mut a = vec![T::zero(); n * n];
    for j in 0..n {
        for i in 0..n {
            a[i + j * n] = if i == j {
                T::from_f64(2.0 * n as f64)
            } else {
                T::from_f64(1.0 / (1.0 + (i as f64 - j as f64).abs()))
            };
        }
    }
    a
}

fn corruption_sweep<T: Scalar>() {
    let mut rng = Rng(23);

    // gemm: 67 columns, 4 stripes under the forced config.
    let (m, n, k) = (45usize, 67, 33);
    let a: Vec<T> = rng.vec(m * k);
    let b: Vec<T> = rng.vec(k * n);
    let c0: Vec<T> = rng.vec(m * n);
    sweep_case("gemm", &[0, 1, 3], &c0, |c| {
        gemm(
            Trans::No,
            Trans::No,
            m,
            n,
            k,
            T::from_f64(1.25),
            &a,
            m,
            &b,
            k,
            T::from_f64(0.5),
            c,
            m,
        )
    });

    // trsm / trmm: 30 columns, 4 stripes (min_cols = 4).
    let (tm, tn) = (40usize, 30usize);
    let mut tri: Vec<T> = rng.vec(tm * tm);
    for i in 0..tm {
        tri[i + i * tm] = T::from_f64(4.0);
    }
    let b0: Vec<T> = rng.vec(tm * tn);
    sweep_case("trsm", &[0, 2], &b0, |bb| {
        trsm(
            Side::Left,
            Uplo::Lower,
            Trans::No,
            Diag::NonUnit,
            tm,
            tn,
            T::one(),
            &tri,
            tm,
            bb,
            tm,
        )
    });
    sweep_case("trmm", &[0, 3], &b0, |bb| {
        trmm(
            Side::Left,
            Uplo::Upper,
            Trans::No,
            Diag::NonUnit,
            tm,
            tn,
            T::from_f64(0.75),
            &tri,
            tm,
            bb,
            tm,
        )
    });

    // syrk: 100 columns → three 48-wide blocks dealt to three workers.
    let (sn, sk) = (100usize, 20usize);
    let sa: Vec<T> = rng.vec(sn * sk);
    let sc0: Vec<T> = rng.vec(sn * sn);
    sweep_case("syrk", &[0, 2], &sc0, |cc| {
        syrk(
            Uplo::Lower,
            Trans::No,
            sn,
            sk,
            T::from_f64(1.5),
            &sa,
            sn,
            T::from_f64(0.25),
            cc,
            sn,
        )
    });

    // getrf: order 32 with nb = 8 → blocked path, four panel blocks.
    let gn = 32usize;
    let mut ga: Vec<T> = rng.vec(gn * gn);
    for i in 0..gn {
        ga[i + i * gn] = T::from_f64(8.0);
    }
    sweep_case("getrf", &[0, 1, 3], &ga.clone(), |aa| {
        let mut ipiv = vec![0i32; gn];
        let info = la_lapack::lu::getrf(gn, gn, aa, gn, &mut ipiv);
        assert!(info >= 0, "getrf reported illegal argument {info}");
    });

    // potrf: SPD order 32 with nb = 8 → blocked path.
    let pa: Vec<T> = spd(gn);
    sweep_case("potrf", &[0, 2], &pa, |aa| {
        let info = la_lapack::chol::potrf(Uplo::Lower, gn, aa, gn);
        assert_eq!(info, 0, "potrf failed on an SPD matrix");
    });
}

/// Driver-level contract: an unrepaired soft fault surfaces as
/// `LaError::SoftFault` with `INFO = -102` through `ERINFO`, and a
/// recovered run returns the clean solution with `Ok`.
fn corruption_through_drivers() {
    let mut rng = Rng(31);
    let n = 32usize;
    let mut a0: Mat<f64> = Mat::zeros(n, n);
    for j in 0..n {
        for i in 0..n {
            a0[(i, j)] = if i == j { 8.0 } else { rng.next_f64() };
        }
    }
    let b0: Vec<f64> = rng.vec(n);

    let clean = tune::with(forced(), || {
        let mut a = a0.clone();
        let mut b = b0.clone();
        la90::gesv(&mut a, &mut b).expect("clean gesv");
        b
    });

    // Verify: the fault comes back as INFO = -102.
    abft::clear_pending();
    let err = tune::with(forced(), || {
        abft::with_policy(AbftPolicy::Verify, || {
            arm(Corruption {
                routine: "getrf",
                stripe: 1,
                kind: CorruptKind::Scale,
            });
            let mut a = a0.clone();
            let mut b = b0.clone();
            la90::gesv(&mut a, &mut b)
        })
    })
    .expect_err("corrupted factorization must fail under Verify");
    match err {
        LaError::SoftFault { routine, .. } => assert_eq!(routine, "LA_GESV"),
        other => panic!("expected SoftFault, got {other:?}"),
    }
    assert_eq!(err.info(), -102);
    assert!(
        abft::take_pending().is_none(),
        "erinfo must drain the pending fault"
    );

    // Recover: same corruption, clean solution, Ok.
    let recovered = tune::with(forced(), || {
        abft::with_policy(AbftPolicy::Recover, || {
            arm(Corruption {
                routine: "getrf",
                stripe: 1,
                kind: CorruptKind::Scale,
            });
            let mut a = a0.clone();
            let mut b = b0.clone();
            la90::gesv(&mut a, &mut b).expect("recovered gesv");
            b
        })
    });
    assert_eq!(clean, recovered, "driver recovery not bitwise-identical");
}

/// The probe report carries the ABFT counters (they are non-zero by the
/// time the sweep has run).
fn abft_probe_report_sees_the_counters() {
    let report = la_core::probe::snapshot();
    assert!(report.abft_checks > 0);
    assert!(report.abft_detections > 0);
    assert!(report.abft_recoveries > 0);
    assert!(report.abft_checks >= report.abft_detections);
}
