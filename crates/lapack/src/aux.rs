//! Auxiliary routines (the `xLA*` layer): Householder reflectors, plane
//! rotations, norms, copies, row interchanges, and Higham's condition
//! estimator. These are the building blocks every computational routine
//! uses.

use la_blas::{gemm, gemv, gerc, iamax, lacgv, lassq, nrm2, rscal, scal, trmv};
use la_core::{Diag, Norm, RealScalar, Scalar, Side, Trans, Uplo};

/// Environment inquiry (`ILAENV(1, NAME, OPTS, N1..)`-lite): the block
/// size `routine` uses on a problem of order `n`, at every order. Reads
/// the runtime [`la_core::tune`] configuration, so block sizes follow
/// `tune::update` and scoped `tune::with` overrides instead of a
/// compiled-in table.
pub fn ilaenv_nb(routine: &str, _n: usize) -> usize {
    la_core::tune::current().nb(routine)
}

/// Crossover order (`ILAENV(3, ...)`): an order-`n` problem at or below it
/// runs `routine`'s unblocked form. Two panels of [`ilaenv_nb`], at every
/// order (`TuneConfig::crossover`).
pub fn ilaenv_crossover(routine: &str, _n: usize) -> usize {
    la_core::tune::current().crossover(routine)
}

/// Blocks a problem must span, in its smaller dimension, before a
/// factorization hands it to the task graph — each routine at its own
/// measured crossover, the graph on two threads against the blocked loop
/// on one (EXPERIMENTS.md, "The task graph factors the caller's matrix in
/// place"). At the default width of 128: `getrf` from 4 blocks (n ≥ 512),
/// 1.31–1.38 at 512 and 0.85–1.01 below; `potrf` shares it, 1.04 (Lower)
/// and 1.13 (Upper) at 512, 0.91–0.97 at 448; `geqrf` from 6 (n ≥ 768),
/// 0.96–1.50 at 768 (one process in eight lost), 1.12–1.18 at 576–640 in
/// one each, 0.81–1.05 at 512. Measured at two threads only — a wider
/// host may cross over elsewhere. Not a knob: `TuneConfig::tile_nb` moves
/// every threshold with the block.
pub(crate) const DAG_MIN_TILES: [(&str, usize); 3] = [("getrf", 4), ("potrf", 4), ("geqrf", 6)];

/// Which engine factors one call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// At or below the crossover: the unblocked (Level-2) form.
    Unblocked,
    /// The blocked right-looking loop, its BLAS-3 calls serial.
    Blocked,
    /// The task graph ([`crate::tiled`]).
    Dag,
}

/// How one factorization call runs: the panel width and the route.
/// Resolved once per call ([`Blocking::of`]) and handed to everything that
/// must agree on it — the core that factors, the ABFT recovery re-run and
/// the ABFT pass that names the faulty block.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Blocking {
    pub nb: usize,
    pub route: Route,
}

impl Blocking {
    /// The decision for `routine` on an `m × n` problem under the
    /// configuration in effect on this thread — the one place the route
    /// is chosen. With more than one thread, a problem of at least the
    /// routine's [`DAG_MIN_TILES`] runs the task graph; everything
    /// else runs on this thread, blocked above the crossover of two
    /// panels.
    pub(crate) fn of(routine: &str, m: usize, n: usize) -> Self {
        let cfg = la_core::tune::current();
        let k = m.min(n);
        let nb = cfg.nb(routine);
        let tiles = DAG_MIN_TILES
            .iter()
            .find(|&&(r, _)| r == routine)
            .map_or(usize::MAX, |&(_, t)| t);
        let route = if cfg.threads() > 1 && k >= tiles.saturating_mul(cfg.tile_size()) {
            Route::Dag
        } else if k > cfg.crossover(routine) {
            Route::Blocked
        } else {
            Route::Unblocked
        };
        Blocking { nb, route }
    }
}

/// Runs `f` with every BLAS-3 call in it serial: under a one-thread frame
/// when the budget is larger, directly otherwise, so a one-thread call
/// takes no extra step.
pub(crate) fn one_thread<R>(f: impl FnOnce() -> R) -> R {
    let cfg = la_core::tune::current();
    if cfg.threads() == 1 {
        return f();
    }
    la_core::tune::with(
        la_core::TuneConfig {
            max_threads: 1,
            ..cfg
        },
        f,
    )
}

/// Copies all or a triangle of `A` to `B` (`xLACPY`).
pub fn lacpy<T: Scalar>(
    uplo: Option<Uplo>,
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    for j in 0..n {
        let (lo, hi) = match uplo {
            None => (0, m),
            Some(Uplo::Upper) => (0, (j + 1).min(m)),
            Some(Uplo::Lower) => (j.min(m), m),
        };
        b[lo + j * ldb..hi + j * ldb].copy_from_slice(&a[lo + j * lda..hi + j * lda]);
    }
}

/// Sets the off-diagonal elements to `alpha` and the diagonal to `beta`
/// (`xLASET`), over all of `A` or one triangle.
pub fn laset<T: Scalar>(
    uplo: Option<Uplo>,
    m: usize,
    n: usize,
    alpha: T,
    beta: T,
    a: &mut [T],
    lda: usize,
) {
    for j in 0..n {
        let (lo, hi) = match uplo {
            None => (0, m),
            Some(Uplo::Upper) => (0, j.min(m)),
            Some(Uplo::Lower) => ((j + 1).min(m), m),
        };
        for i in lo..hi {
            a[i + j * lda] = alpha;
        }
        if j < m {
            a[j + j * lda] = beta;
        }
    }
}

/// `INFO` of a computational routine whose workspace could not be
/// allocated — the LAPACK95 convention, which `la_core::erinfo` maps to
/// `LaError::AllocFailed`.
pub const INFO_NO_WORKSPACE: i32 = -100;

/// Fallible workspace: `n` zeros, or `None` when the allocator refuses
/// (the caller then returns [`INFO_NO_WORKSPACE`] instead of aborting the
/// process the way `vec![..]` would).
pub(crate) fn try_zeros<T: Scalar>(n: usize) -> Option<Vec<T>> {
    let mut v = Vec::new();
    v.try_reserve_exact(n).ok()?;
    v.resize(n, T::zero());
    Some(v)
}

pub use la_blas::laswp;

/// Applies the interchanges of [`laswp`] in reverse order (used when
/// undoing a permutation, e.g. in `getri`).
pub fn laswp_rev<T: Scalar>(n: usize, a: &mut [T], lda: usize, k1: usize, k2: usize, ipiv: &[i32]) {
    for j in 0..n {
        let col = &mut a[j * lda..];
        for k in (k1..k2).rev() {
            col.swap(k, (ipiv[k] - 1) as usize);
        }
    }
}

/// Lanes of the chunked reductions below: element `i` of a slice goes to
/// accumulator `i mod 8`, so the pass has eight independent dependency
/// chains and compiles to vector code; the lanes are combined pairwise at
/// the end.
const LANES: usize = 8;

/// `(max, sum)` of `modulus(x_i)` over a contiguous slice, eight lanes at a
/// time. The moduli are non-negative, so the sum is NaN exactly when one of
/// them is: a reduction built on this pair cannot forget a NaN the way a
/// running `maxr` does as soon as a finite value follows it.
#[inline(always)]
fn max_and_sum<T: Scalar>(x: &[T], modulus: impl Fn(T) -> T::Real) -> (T::Real, T::Real) {
    let mut best = [T::Real::zero(); LANES];
    let mut sum = [T::Real::zero(); LANES];
    let mut groups = x.chunks_exact(LANES);
    for g in &mut groups {
        for l in 0..LANES {
            let a = modulus(g[l]);
            sum[l] += a;
            if a > best[l] {
                best[l] = a;
            }
        }
    }
    for (l, &v) in groups.remainder().iter().enumerate() {
        let a = modulus(v);
        sum[l] += a;
        if a > best[l] {
            best[l] = a;
        }
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            sum[l] += sum[l + width];
            if best[l + width] > best[l] {
                best[l] = best[l + width];
            }
        }
    }
    (best[0], sum[0])
}

/// The sticky maximum of `modulus(x_i)`: NaN if any element's modulus is
/// NaN (wherever it sits), else the largest — so an Inf sticks too.
#[inline(always)]
fn sticky_max<T: Scalar>(x: &[T], modulus: impl Fn(T) -> T::Real) -> T::Real {
    let (max, sum) = max_and_sum(x, modulus);
    if sum.is_nan() {
        T::Real::nan()
    } else {
        max
    }
}

/// Largest `abs1` modulus (`|re| + |im|`) of a contiguous slice — `‖x‖∞`
/// as `IxAMAX` measures it, returned as a value. NaN-propagating in the
/// sense of Demmel et al. (arXiv:2207.09281): a NaN anywhere in `x` makes
/// the result NaN and an Inf makes it Inf, whatever follows them
/// (`[Inf, NaN, 1.0]` is NaN, where a `maxr` fold answers `1.0`). Zero for
/// an empty slice. One chunked pass (eight accumulators), no branch on
/// the data.
pub fn max_abs1<T: Scalar>(x: &[T]) -> T::Real {
    sticky_max(x, T::abs1)
}

/// Norm of a general rectangular matrix (`xLANGE`).
///
/// A NaN anywhere in the scanned part makes the result NaN in every norm
/// (Demmel et al., arXiv:2207.09281). `Max` and `One` are chunked
/// reductions over column slices (the whole buffer at once when
/// `lda == m`): element `i` of a slice feeds accumulator `i mod 8`, the
/// eight are combined pairwise, and a NaN is carried by a running sum of
/// the (non-negative) moduli beside the maximum, so neither its position
/// nor the values after it matter. `Max` is exact, so it does not depend on
/// that order; a `One` column sum is rounded in the lane order just
/// described, not first to last. `Inf` keeps its row accumulators and an
/// explicit check; `Fro` inherits propagation from `lassq`.
pub fn lange<T: Scalar>(norm: Norm, m: usize, n: usize, a: &[T], lda: usize) -> T::Real {
    if m == 0 || n == 0 {
        return T::Real::zero();
    }
    match norm {
        Norm::Max => {
            if lda == m {
                return sticky_max(&a[..m * n], T::abs);
            }
            let (mut v, mut s) = (T::Real::zero(), T::Real::zero());
            for j in 0..n {
                let (max, sum) = max_and_sum(&a[j * lda..j * lda + m], T::abs);
                s += sum;
                v = v.maxr(max);
            }
            if s.is_nan() {
                T::Real::nan()
            } else {
                v
            }
        }
        Norm::One => {
            let (mut v, mut nan) = (T::Real::zero(), false);
            for j in 0..n {
                let (_, s) = max_and_sum(&a[j * lda..j * lda + m], T::abs);
                nan |= s.is_nan();
                v = v.maxr(s);
            }
            if nan {
                T::Real::nan()
            } else {
                v
            }
        }
        Norm::Inf => {
            let mut rows = vec![T::Real::zero(); m];
            for j in 0..n {
                for i in 0..m {
                    rows[i] += a[i + j * lda].abs();
                }
            }
            let mut v = T::Real::zero();
            for s in rows {
                if s.is_nan() {
                    return T::Real::nan();
                }
                v = v.maxr(s);
            }
            v
        }
        Norm::Fro => {
            let (mut scale, mut ssq) = (T::Real::zero(), T::Real::one());
            for j in 0..n {
                lassq(m, &a[j * lda..j * lda + m], 1, &mut scale, &mut ssq);
            }
            scale * ssq.sqrt_r()
        }
    }
}

/// Norm of a symmetric (`conj = false`) or Hermitian (`conj = true`)
/// matrix with one stored triangle (`xLANSY`/`xLANHE`).
pub fn lansy<T: Scalar>(
    norm: Norm,
    uplo: Uplo,
    conj: bool,
    n: usize,
    a: &[T],
    lda: usize,
) -> T::Real {
    let el = |i: usize, j: usize| -> T::Real {
        let stored = match uplo {
            Uplo::Upper => i <= j,
            Uplo::Lower => i >= j,
        };
        let v = if stored {
            a[i + j * lda]
        } else {
            a[j + i * lda]
        };
        if conj && i == j {
            v.re().rabs()
        } else {
            v.abs()
        }
    };
    match norm {
        Norm::Max => {
            let mut v = T::Real::zero();
            for j in 0..n {
                for i in 0..=j {
                    v = v.maxr(el(i, j));
                }
            }
            v
        }
        Norm::One | Norm::Inf => {
            // Equal for symmetric/Hermitian matrices.
            let mut v = T::Real::zero();
            for j in 0..n {
                let mut s = T::Real::zero();
                for i in 0..n {
                    s += if i <= j { el(i, j) } else { el(j, i) };
                }
                v = v.maxr(s);
            }
            v
        }
        Norm::Fro => {
            let mut s = T::Real::zero();
            for j in 0..n {
                for i in 0..n {
                    let v = if i <= j { el(i, j) } else { el(j, i) };
                    s += v * v;
                }
            }
            s.sqrt_r()
        }
    }
}

/// Norm of a triangular matrix (`xLANTR`).
pub fn lantr<T: Scalar>(
    norm: Norm,
    uplo: Uplo,
    diag: Diag,
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
) -> T::Real {
    let el = |i: usize, j: usize| -> T::Real {
        let inside = match uplo {
            Uplo::Upper => i <= j,
            Uplo::Lower => i >= j,
        };
        if !inside {
            T::Real::zero()
        } else if i == j && diag == Diag::Unit {
            T::Real::one()
        } else {
            a[i + j * lda].abs()
        }
    };
    match norm {
        Norm::Max => {
            let mut v = T::Real::zero();
            for j in 0..n {
                for i in 0..m {
                    v = v.maxr(el(i, j));
                }
            }
            v
        }
        Norm::One => {
            let mut v = T::Real::zero();
            for j in 0..n {
                let mut s = T::Real::zero();
                for i in 0..m {
                    s += el(i, j);
                }
                v = v.maxr(s);
            }
            v
        }
        Norm::Inf => {
            let mut v = T::Real::zero();
            for i in 0..m {
                let mut s = T::Real::zero();
                for j in 0..n {
                    s += el(i, j);
                }
                v = v.maxr(s);
            }
            v
        }
        Norm::Fro => {
            let mut s = T::Real::zero();
            for j in 0..n {
                for i in 0..m {
                    let v = el(i, j);
                    s += v * v;
                }
            }
            s.sqrt_r()
        }
    }
}

/// 1/∞ norm of a symmetric tridiagonal matrix (`xLANST`).
pub fn lanst<R: RealScalar>(norm: Norm, n: usize, d: &[R], e: &[R]) -> R {
    if n == 0 {
        return R::zero();
    }
    match norm {
        Norm::Max => {
            let mut v = d.iter().take(n).fold(R::zero(), |x, &y| x.maxr(y.rabs()));
            for &ei in e.iter().take(n.saturating_sub(1)) {
                v = v.maxr(ei.rabs());
            }
            v
        }
        Norm::One | Norm::Inf => {
            if n == 1 {
                return d[0].rabs();
            }
            let mut v = (d[0].rabs() + e[0].rabs()).maxr(d[n - 1].rabs() + e[n - 2].rabs());
            for i in 1..n - 1 {
                v = v.maxr(d[i].rabs() + e[i - 1].rabs() + e[i].rabs());
            }
            v
        }
        Norm::Fro => {
            let mut s = R::zero();
            for &x in d.iter().take(n) {
                s += x * x;
            }
            for &x in e.iter().take(n - 1) {
                s += (x * x) * (R::one() + R::one());
            }
            s.sqrt_r()
        }
    }
}

/// 1-norm of a general tridiagonal matrix (`xLANGT`, `NORM='1'`).
pub fn langt_one<T: Scalar>(n: usize, dl: &[T], d: &[T], du: &[T]) -> T::Real {
    if n == 0 {
        return T::Real::zero();
    }
    if n == 1 {
        return d[0].abs();
    }
    let mut v = (d[0].abs() + dl[0].abs()).maxr(d[n - 1].abs() + du[n - 2].abs());
    for j in 1..n - 1 {
        v = v.maxr(du[j - 1].abs() + d[j].abs() + dl[j].abs());
    }
    v
}

/// 1-norm of a general band matrix (`xLANGB`, `NORM='1'`); diagonal at
/// storage row `ku`.
pub fn langb_one<T: Scalar>(
    m: usize,
    n: usize,
    kl: usize,
    ku: usize,
    ab: &[T],
    ldab: usize,
) -> T::Real {
    let mut v = T::Real::zero();
    for j in 0..n {
        let mut s = T::Real::zero();
        for i in j.saturating_sub(ku)..(j + kl + 1).min(m) {
            s += ab[ku + i - j + j * ldab].abs();
        }
        v = v.maxr(s);
    }
    v
}

/// 1-norm of a symmetric/Hermitian packed matrix (`xLANSP`, `NORM='1'`).
pub fn lansp_one<T: Scalar>(uplo: Uplo, n: usize, ap: &[T]) -> T::Real {
    let idx = |i: usize, j: usize| -> usize {
        match uplo {
            Uplo::Upper => i + j * (j + 1) / 2,
            Uplo::Lower => i + j * (2 * n - j - 1) / 2,
        }
    };
    let mut v = T::Real::zero();
    for j in 0..n {
        let mut s = T::Real::zero();
        for i in 0..n {
            let a = match uplo {
                Uplo::Upper => {
                    if i <= j {
                        ap[idx(i, j)]
                    } else {
                        ap[idx(j, i)]
                    }
                }
                Uplo::Lower => {
                    if i >= j {
                        ap[idx(i, j)]
                    } else {
                        ap[idx(j, i)]
                    }
                }
            };
            s += a.abs();
        }
        v = v.maxr(s);
    }
    v
}

/// Generates a robust real plane rotation (`xLARTG`): `c`, `s`, `r` with
/// `c·f + s·g = r`, `−s·f + c·g = 0`, `c² + s² = 1`, `c ≥ 0`.
pub fn lartg<R: RealScalar>(f: R, g: R) -> (R, R, R) {
    if g.is_zero() {
        (R::one(), R::zero(), f)
    } else if f.is_zero() {
        (R::zero(), R::one(), g)
    } else {
        let mut r = f.hypot(g);
        if f < R::zero() {
            r = -r;
        }
        let c = f / r;
        let s = g / r;
        (c, s, r)
    }
}

/// Generates an elementary Householder reflector (`xLARFG`).
///
/// Given `alpha` (the would-be pivot) and `x` (the entries below it),
/// produces `(beta, tau)` and overwrites `x` with the reflector tail `v`
/// such that `Hᴴ·(alpha, x)ᵀ = (beta, 0)ᵀ`, `H = I − tau·v·vᴴ`, `v₀ = 1`
/// (implicit), and `beta` is real.
pub fn larfg<T: Scalar>(alpha: T, x: &mut [T]) -> (T::Real, T) {
    let n1 = x.len();
    let mut xnorm = nrm2(n1, x, 1);
    if xnorm.is_zero() && alpha.im().is_zero() {
        return (alpha.re(), T::zero());
    }
    let mut alpha = alpha;
    // beta = -sign(||(alpha, x)||, Re alpha)
    let mut beta = -alpha.re().hypot(alpha.im()).hypot(xnorm).sign(alpha.re());
    let safmin = T::Real::sfmin() / T::Real::EPS;
    let mut kscale = 0;
    while beta.rabs() < safmin && kscale < 20 {
        // Rescale to avoid underflow in the tail normalization.
        let inv = T::Real::one() / safmin;
        rscal(n1, inv, x, 1);
        alpha = alpha.mul_real(inv);
        xnorm = nrm2(n1, x, 1);
        beta = -alpha.re().hypot(alpha.im()).hypot(xnorm).sign(alpha.re());
        kscale += 1;
    }
    let tau = if T::IS_COMPLEX {
        T::from_re_im((beta - alpha.re()) / beta, -alpha.im() / beta)
    } else {
        T::from_real((beta - alpha.re()) / beta)
    };
    let inv = (alpha - T::from_real(beta)).recip();
    scal(n1, inv, x, 1);
    let mut beta_out = beta;
    for _ in 0..kscale {
        beta_out = beta_out * safmin;
    }
    (beta_out, tau)
}

/// Applies an elementary reflector `H = I − tau·v·vᴴ` to the matrix `C`
/// from the chosen side (`xLARF`). `v` has implicit leading 1 when
/// `v0_is_one` is set (the usual storage inside a factored panel).
#[allow(clippy::too_many_arguments)]
pub fn larf<T: Scalar>(
    side: Side,
    m: usize,
    n: usize,
    v: &[T],
    incv: usize,
    tau: T,
    c: &mut [T],
    ldc: usize,
    work: &mut [T],
) {
    if tau.is_zero() {
        return;
    }
    match side {
        Side::Left => {
            // w := Cᴴ v  (n-vector); C := C − tau · v · wᴴ
            let w = &mut work[..n];
            w.fill(T::zero());
            gemv(
                Trans::ConjTrans,
                m,
                n,
                T::one(),
                c,
                ldc,
                v,
                incv,
                T::zero(),
                w,
                1,
            );
            // C -= tau * v * w^H
            gerc(m, n, -tau, v, incv, w, 1, c, ldc);
        }
        Side::Right => {
            // w := C v (m-vector); C := C − tau · w · vᴴ
            let w = &mut work[..m];
            w.fill(T::zero());
            gemv(Trans::No, m, n, T::one(), c, ldc, v, incv, T::zero(), w, 1);
            gerc(m, n, -tau, w, 1, v, incv, c, ldc);
        }
    }
}

/// Forms the upper-triangular factor `T` of a block reflector from `k`
/// forward, columnwise-stored reflectors (`xLARFT`, `DIRECT='F'`,
/// `STOREV='C'`): `H = H₁H₂⋯H_k = I − V·T·Vᴴ`.
pub fn larft<T: Scalar>(
    n: usize,
    k: usize,
    v: &[T],
    ldv: usize,
    tau: &[T],
    t: &mut [T],
    ldt: usize,
) {
    let mut work = vec![T::zero(); k];
    for i in 0..k {
        if tau[i].is_zero() {
            for j in 0..=i {
                t[j + i * ldt] = T::zero();
            }
            continue;
        }
        // t(0..i, i) = -tau_i * V(i..n, 0..i)^H * v_i, where v_i has an
        // implicit 1 in position i (handled by the explicit term below).
        for j in 0..i {
            t[j + i * ldt] = -tau[i] * v[i + j * ldv].conj();
        }
        if n > i + 1 {
            // t(0..i, i) -= tau_i * V(i+1..n, 0..i)^H * v(i+1..n, i)
            // (beta = 0: gemv overwrites `w`).
            let w = &mut work[..i];
            gemv(
                Trans::ConjTrans,
                n - i - 1,
                i,
                T::one(),
                &v[i + 1..],
                ldv,
                &v[i + 1 + i * ldv..i + 1 + i * ldv + (n - i - 1)],
                1,
                T::zero(),
                w,
                1,
            );
            for j in 0..i {
                let tji = t[j + i * ldt];
                t[j + i * ldt] = tji - tau[i] * w[j];
            }
        }
        // t(0..i, i) := T(0..i, 0..i) * t(0..i, i)
        if i > 0 {
            let (head, tail) = t.split_at_mut(i * ldt);
            trmv(
                Uplo::Upper,
                Trans::No,
                Diag::NonUnit,
                i,
                head,
                ldt,
                &mut tail[..i],
                1,
            );
        }
        t[i + i * ldt] = tau[i];
    }
}

/// Applies a block reflector `H = I − V·T·Vᴴ` (forward, columnwise) or its
/// conjugate transpose to `C` (`xLARFB`, `STOREV='C'`, `DIRECT='F'`).
///
/// `V` is `len × k` with unit lower-trapezoidal structure (the geqrf
/// panel layout). `work` holds at least `n·k` elements (`Side::Left`) or
/// `m·k` (`Side::Right`); its contents are ignored.
#[allow(clippy::too_many_arguments)]
pub fn larfb<T: Scalar>(
    side: Side,
    trans: Trans,
    m: usize,
    n: usize,
    k: usize,
    v: &[T],
    ldv: usize,
    t: &[T],
    ldt: usize,
    c: &mut [T],
    ldc: usize,
    work: &mut [T],
) {
    if k == 0 || m == 0 || n == 0 {
        return;
    }
    let tt = if trans.is_transposed() {
        Trans::ConjTrans
    } else {
        Trans::No
    };
    match side {
        Side::Left => {
            // W := Cᴴ·V  (n × k); W := W·Tᴴ or W·T; C := C − V·Wᴴ.
            let len = m;
            let w = &mut work[..n * k];
            // W = C(0..len, :)^H V — split V into the triangular head V1
            // (k×k unit lower) and the rest V2.
            // W := C1ᴴ (n×k from first k rows of C)
            for j in 0..k {
                for i in 0..n {
                    w[i + j * n] = c[j + i * ldc].conj();
                }
            }
            // W := W · V1 (V1 unit lower triangular k×k)
            la_blas::trmm(
                Side::Right,
                Uplo::Lower,
                Trans::No,
                Diag::Unit,
                n,
                k,
                T::one(),
                v,
                ldv,
                w,
                n,
            );
            if len > k {
                // W += C2ᴴ · V2
                gemm(
                    Trans::ConjTrans,
                    Trans::No,
                    n,
                    k,
                    len - k,
                    T::one(),
                    &c[k..],
                    ldc,
                    &v[k..],
                    ldv,
                    T::one(),
                    w,
                    n,
                );
            }
            // W := W · Tᴴ (trans) or W · T (no)
            la_blas::trmm(
                Side::Right,
                Uplo::Upper,
                if tt == Trans::No {
                    Trans::ConjTrans
                } else {
                    Trans::No
                },
                Diag::NonUnit,
                n,
                k,
                T::one(),
                t,
                ldt,
                w,
                n,
            );
            // C := C − V·Wᴴ: C2 -= V2 Wᴴ; C1 -= V1 Wᴴ.
            if len > k {
                gemm(
                    Trans::No,
                    Trans::ConjTrans,
                    len - k,
                    n,
                    k,
                    -T::one(),
                    &v[k..],
                    ldv,
                    w,
                    n,
                    T::one(),
                    &mut c[k..],
                    ldc,
                );
            }
            // Wᴴ := V1 · Wᴴ ⇔ W := W · V1ᴴ
            la_blas::trmm(
                Side::Right,
                Uplo::Lower,
                Trans::ConjTrans,
                Diag::Unit,
                n,
                k,
                T::one(),
                v,
                ldv,
                w,
                n,
            );
            for j in 0..n {
                for i in 0..k {
                    let upd = w[j + i * n].conj();
                    c[i + j * ldc] -= upd;
                }
            }
        }
        Side::Right => {
            // W := C·V (m × k); W := W·T or W·Tᴴ; C := C − W·Vᴴ.
            let len = n;
            let w = &mut work[..m * k];
            // W := C1 · V1
            for j in 0..k {
                for i in 0..m {
                    w[i + j * m] = c[i + j * ldc];
                }
            }
            la_blas::trmm(
                Side::Right,
                Uplo::Lower,
                Trans::No,
                Diag::Unit,
                m,
                k,
                T::one(),
                v,
                ldv,
                w,
                m,
            );
            if len > k {
                gemm(
                    Trans::No,
                    Trans::No,
                    m,
                    k,
                    len - k,
                    T::one(),
                    &c[k * ldc..],
                    ldc,
                    &v[k..],
                    ldv,
                    T::one(),
                    w,
                    m,
                );
            }
            la_blas::trmm(
                Side::Right,
                Uplo::Upper,
                tt,
                Diag::NonUnit,
                m,
                k,
                T::one(),
                t,
                ldt,
                w,
                m,
            );
            if len > k {
                gemm(
                    Trans::No,
                    Trans::ConjTrans,
                    m,
                    len - k,
                    k,
                    -T::one(),
                    w,
                    m,
                    &v[k..],
                    ldv,
                    T::one(),
                    &mut c[k * ldc..],
                    ldc,
                );
            }
            // C1 := C1 − W · V1ᴴ
            let mut wv = w.to_vec();
            la_blas::trmm(
                Side::Right,
                Uplo::Lower,
                Trans::ConjTrans,
                Diag::Unit,
                m,
                k,
                T::one(),
                v,
                ldv,
                &mut wv,
                m,
            );
            for j in 0..k {
                for i in 0..m {
                    let upd = wv[i + j * m];
                    c[i + j * ldc] -= upd;
                }
            }
        }
    }
}

/// Estimates the 1-norm of a linear operator using Higham's method
/// (`xLACON`). `apply(x, conj_transpose)` must overwrite `x` with `A·x`
/// (or `Aᴴ·x`). Used by the `*CON` condition estimators with
/// `A = (LU)⁻¹` etc.
pub fn lacon<T: Scalar>(n: usize, mut apply: impl FnMut(&mut [T], bool)) -> T::Real {
    if n == 0 {
        return T::Real::zero();
    }
    let itmax = 5;
    let mut x = vec![T::from_real(T::Real::one() / T::Real::from_usize(n)); n];
    apply(&mut x, false);
    if n == 1 {
        return x[0].abs();
    }
    let mut est = la_blas::asum(n, &x, 1);
    // x := sign(x)
    let sign_of = |v: T| -> T {
        if v.is_zero() {
            T::one()
        } else if T::IS_COMPLEX {
            v.div_real(v.abs())
        } else {
            T::from_real(T::Real::one().sign(v.re()))
        }
    };
    for xi in x.iter_mut() {
        *xi = sign_of(*xi);
    }
    apply(&mut x, true);
    let mut j = iamax(n, &x, 1);
    for _iter in 0..itmax {
        x.fill(T::zero());
        x[j] = T::one();
        apply(&mut x, false);
        let est_new = la_blas::asum(n, &x, 1);
        if est_new <= est {
            break;
        }
        est = est_new;
        for xi in x.iter_mut() {
            *xi = sign_of(*xi);
        }
        apply(&mut x, true);
        let j_new = iamax(n, &x, 1);
        if j_new == j {
            break;
        }
        j = j_new;
    }
    // Alternative estimate with the alternating-sign vector, as in xLACON.
    let mut alt = vec![T::zero(); n];
    let mut sgn = T::Real::one();
    for (i, v) in alt.iter_mut().enumerate() {
        *v = T::from_real(
            sgn * (T::Real::one() + T::Real::from_usize(i) / T::Real::from_usize((n - 1).max(1))),
        );
        sgn = -sgn;
    }
    apply(&mut alt, false);
    let two = T::Real::one() + T::Real::one();
    let three = two + T::Real::one();
    let alt_est = two * la_blas::asum(n, &alt, 1) / (three * T::Real::from_usize(n));
    est.maxr(alt_est)
}

/// Conjugates row `i` of an `m × n` matrix in place (helper used by the
/// complex routines).
pub fn conj_row<T: Scalar>(i: usize, n: usize, a: &mut [T], lda: usize) {
    lacgv(n, &mut a[i..], lda);
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_core::C64;

    /// What `getrf_core` / `potrf_core` / `potf2` / `potrf2` turn into
    /// `INFO_NO_WORKSPACE`: a refused request is `None`, not an abort.
    #[test]
    fn try_zeros_reports_a_refused_request() {
        assert_eq!(try_zeros::<f64>(3), Some(vec![0.0; 3]));
        assert!(try_zeros::<f64>(usize::MAX / 4).is_none());
    }

    #[test]
    fn max_abs1_is_sticky_wherever_the_nan_sits() {
        let (nan, inf) = (f64::NAN, f64::INFINITY);
        // What a running `maxr` gets wrong: it answers 1.0 to the first two.
        assert!(max_abs1(&[inf, nan, 1.0]).is_nan());
        assert!(max_abs1(&[nan, 1.0]).is_nan());
        assert!(max_abs1(&[1.0, nan]).is_nan());
        assert_eq!(max_abs1(&[1.0, inf, 2.0]), inf);
        assert_eq!(max_abs1(&[-inf, 2.0]), inf);
        assert_eq!(max_abs1::<f64>(&[]), 0.0);
        assert_eq!(max_abs1(&[-3.0, 2.0]), 3.0);
        // Every position of a slice longer than the eight lanes, both types
        // of poison, real and complex (`abs1` adds the two parts).
        for len in [1usize, 7, 8, 9, 16, 29] {
            for at in 0..len {
                let mut x = vec![1.5f32; len];
                x[at] = f32::NAN;
                assert!(max_abs1(&x).is_nan(), "len {len} at {at}");
                x[at] = f32::NEG_INFINITY;
                assert_eq!(max_abs1(&x), f32::INFINITY, "len {len} at {at}");
                let mut z = vec![C64::new(1.0, -2.0); len];
                assert_eq!(max_abs1(&z), 3.0);
                z[at] = C64::new(0.0, nan);
                assert!(max_abs1(&z).is_nan(), "len {len} at {at}");
                z[at] = C64::new(inf, -inf);
                assert_eq!(max_abs1(&z), inf, "len {len} at {at}");
            }
        }
    }

    /// `lange` as it was before the chunked reductions: one serial chain
    /// per norm, an early return on the first NaN.
    fn lange_serial<T: Scalar>(norm: Norm, m: usize, n: usize, a: &[T], lda: usize) -> T::Real {
        let mut v = T::Real::zero();
        for j in 0..n {
            let mut s = T::Real::zero();
            for i in 0..m {
                let x = a[i + j * lda].abs();
                if x.is_nan() {
                    return T::Real::nan();
                }
                if norm == Norm::Max {
                    v = v.maxr(x);
                } else {
                    s += x;
                }
            }
            v = v.maxr(s);
        }
        v
    }

    fn lange_matches_the_serial_form<T: Scalar>() {
        let mut state = 0x1234_5678_9abc_def1u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for (m, n) in [
            (0, 5),
            (5, 0),
            (1, 1),
            (7, 3),
            (8, 8),
            (9, 2),
            (23, 5),
            (33, 4),
            (96, 7),
        ] {
            for lda in [m.max(1), m + 3] {
                let a: Vec<T> = (0..lda * n.max(1))
                    .map(|_| T::from_re_im(T::Real::from_f64(unit()), T::Real::from_f64(unit())))
                    .collect();
                let tag = format!("{} {m}x{n} lda {lda}", T::PREFIX);
                // Max is exact, so the order of the reduction cannot show.
                assert_eq!(
                    lange(Norm::Max, m, n, &a, lda),
                    lange_serial(Norm::Max, m, n, &a, lda),
                    "{tag}"
                );
                // One sums each column in lane order: equal to the serial
                // sum within the rounding of m additions.
                let (got, want) = (
                    lange(Norm::One, m, n, &a, lda),
                    lange_serial(Norm::One, m, n, &a, lda),
                );
                let slack = T::Real::EPS * T::Real::from_usize(2 * m.max(1)) * want;
                assert!((got - want).rabs() <= slack, "{tag}: {got:?} vs {want:?}");
                if m == 0 || n == 0 {
                    assert_eq!(got, T::Real::zero(), "{tag}");
                    continue;
                }
                // A NaN in the first, a middle and the last scanned position
                // makes both NaN; one in the padding below a column is not
                // the matrix's.
                for at in [0, (n / 2) * lda + m / 2, (n - 1) * lda + m - 1] {
                    let mut p = a.clone();
                    p[at] = T::from_real(T::Real::nan());
                    assert!(lange(Norm::Max, m, n, &p, lda).is_nan(), "{tag} at {at}");
                    assert!(lange(Norm::One, m, n, &p, lda).is_nan(), "{tag} at {at}");
                }
                if lda > m {
                    let mut p = a.clone();
                    p[m] = T::from_real(T::Real::nan());
                    assert!(!lange(Norm::Max, m, n, &p, lda).is_nan(), "{tag} padding");
                    assert!(!lange(Norm::One, m, n, &p, lda).is_nan(), "{tag} padding");
                }
            }
        }
    }

    #[test]
    fn lange_max_and_one_agree_with_the_serial_reductions() {
        lange_matches_the_serial_form::<f32>();
        lange_matches_the_serial_form::<f64>();
        lange_matches_the_serial_form::<la_core::C32>();
        lange_matches_the_serial_form::<C64>();
    }

    #[test]
    fn lange_propagates_nan_in_every_norm() {
        // 3x3 with a NaN off the main diagonal; all four norm paths must
        // return NaN rather than let the NaN-ignoring max lose it.
        let mut a: Vec<f64> = (1..=9).map(|x| x as f64).collect();
        a[5] = f64::NAN;
        for norm in [Norm::Max, Norm::One, Norm::Inf, Norm::Fro] {
            assert!(
                lange(norm, 3, 3, &a, 3).is_nan(),
                "lange({norm:?}) lost a NaN"
            );
        }
        // Inf input (no NaN): Max/One/Inf/Fro all report +Inf.
        a[5] = f64::INFINITY;
        for norm in [Norm::Max, Norm::One, Norm::Inf, Norm::Fro] {
            let v = lange(norm, 3, 3, &a, 3);
            assert!(v.is_infinite() && v > 0.0, "lange({norm:?}) = {v}");
        }
        // Complex: NaN in the imaginary part counts too.
        let mut c = vec![C64::new(1.0, 0.0); 4];
        c[2] = C64::new(0.0, f64::NAN);
        assert!(lange(Norm::Max, 2, 2, &c, 2).is_nan());
    }

    /// `laswp` / `laswp_rev` as they were before the column-outermost
    /// loop order: one interchange at a time across all columns.
    fn laswp_rowwise(n: usize, a: &mut [f64], lda: usize, ks: &[usize], ipiv: &[i32]) {
        for &k in ks {
            let p = (ipiv[k] - 1) as usize;
            for j in 0..n {
                a.swap(k + j * lda, p + j * lda);
            }
        }
    }

    #[test]
    fn laswp_matches_the_row_at_a_time_order() {
        let (m, lda) = (7usize, 10usize);
        // Identity, a repeated pivot row, a reversal, then random rows
        // (ipiv[k] ≥ k + 1 as getrf produces them, and unconstrained).
        let mut pivot_sets: Vec<Vec<i32>> = vec![
            vec![1, 2, 3, 4, 5, 6, 7],
            vec![5, 5, 5, 5, 5, 6, 7],
            vec![7, 6, 5, 4, 5, 6, 7],
        ];
        let mut state = 0x2545f491u64;
        let mut below = |bound: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        for _ in 0..8 {
            pivot_sets.push((0..m).map(|k| (k + below(m - k) + 1) as i32).collect());
            pivot_sets.push((0..m).map(|_| (below(m) + 1) as i32).collect());
        }
        for ipiv in &pivot_sets {
            for n in [0usize, 1, 5] {
                for (k1, k2) in [(0, m), (2, 5), (3, 3)] {
                    let a0: Vec<f64> = (0..lda * n.max(1)).map(|x| x as f64).collect();
                    let fwd: Vec<usize> = (k1..k2).collect();
                    let rev: Vec<usize> = (k1..k2).rev().collect();
                    let (mut got, mut want) = (a0.clone(), a0.clone());
                    laswp(n, &mut got, lda, k1, k2, ipiv);
                    laswp_rowwise(n, &mut want, lda, &fwd, ipiv);
                    assert_eq!(got, want, "laswp {ipiv:?} n={n} {k1}..{k2}");
                    laswp_rev(n, &mut got, lda, k1, k2, ipiv);
                    laswp_rowwise(n, &mut want, lda, &rev, ipiv);
                    assert_eq!(got, want, "laswp_rev {ipiv:?} n={n} {k1}..{k2}");
                    assert_eq!(got, a0, "laswp_rev must undo laswp");
                }
            }
        }
    }

    #[test]
    fn lacpy_triangles() {
        let a: Vec<f64> = (1..=9).map(|x| x as f64).collect();
        let mut up = vec![0.0; 9];
        lacpy(Some(Uplo::Upper), 3, 3, &a, 3, &mut up, 3);
        assert_eq!(up, [1., 0., 0., 4., 5., 0., 7., 8., 9.]);
        let mut lo = vec![0.0; 9];
        lacpy(Some(Uplo::Lower), 3, 3, &a, 3, &mut lo, 3);
        assert_eq!(lo, [1., 2., 3., 0., 5., 6., 0., 0., 9.]);
    }

    #[test]
    fn laset_identity() {
        let mut a = vec![7.0f64; 9];
        laset(None, 3, 3, 0.0, 1.0, &mut a, 3);
        assert_eq!(a, [1., 0., 0., 0., 1., 0., 0., 0., 1.]);
    }

    #[test]
    fn laswp_roundtrip() {
        let mut a: Vec<f64> = (0..12).map(|x| x as f64).collect();
        let orig = a.clone();
        let ipiv = [3i32, 3, 3]; // 1-based
        laswp(3, &mut a, 4, 0, 3, &ipiv);
        assert_ne!(a, orig);
        laswp_rev(3, &mut a, 4, 0, 3, &ipiv);
        assert_eq!(a, orig);
    }

    #[test]
    fn lange_norms() {
        // A = [1 -2; 3 4] column-major.
        let a = [1.0f64, 3.0, -2.0, 4.0];
        assert_eq!(lange(Norm::One, 2, 2, &a, 2), 6.0);
        assert_eq!(lange(Norm::Inf, 2, 2, &a, 2), 7.0);
        assert_eq!(lange(Norm::Max, 2, 2, &a, 2), 4.0);
        assert!((lange(Norm::Fro, 2, 2, &a, 2) - 30.0f64.sqrt()).abs() < 1e-15);
    }

    #[test]
    fn larfg_annihilates() {
        // Real case.
        let alpha = 3.0f64;
        let mut x = vec![4.0f64];
        let (beta, tau) = larfg(alpha, &mut x);
        // H (alpha, x)^T = (beta, 0): check via explicit H.
        let v = [1.0, x[0]];
        let dot = v[0] * 3.0 + v[1] * 4.0;
        let h0 = 3.0 - tau * v[0] * dot;
        let h1 = 4.0 - tau * v[1] * dot;
        assert!((h0 - beta).abs() < 1e-14, "h0={h0} beta={beta}");
        assert!(h1.abs() < 1e-14);
        assert!((beta.abs() - 5.0).abs() < 1e-14);
    }

    #[test]
    fn larfg_complex_beta_real() {
        let alpha = C64::new(1.0, 2.0);
        let mut x = vec![C64::new(0.0, 2.0)];
        let (beta, tau) = larfg(alpha, &mut x);
        // H^H (alpha, x)^T should be (beta, 0) with beta real.
        let v = [C64::one(), x[0]];
        let vhx = v[0].conj() * alpha + v[1].conj() * C64::new(0.0, 2.0);
        let h0 = alpha - tau.conj() * v[0] * vhx;
        let h1 = C64::new(0.0, 2.0) - tau.conj() * v[1] * vhx;
        assert!((h0 - C64::from_real(beta)).abs() < 1e-14);
        assert!(h1.abs() < 1e-14);
        assert!((beta.abs() - 3.0).abs() < 1e-14);
    }

    #[test]
    fn larfg_zero_tail() {
        let mut x: Vec<f64> = vec![];
        let (beta, tau) = larfg(5.0f64, &mut x);
        assert_eq!(beta, 5.0);
        assert_eq!(tau, 0.0);
    }

    #[test]
    fn lartg_rotates() {
        let (c, s, r) = lartg(1.0f64, -2.0);
        assert!((c * 1.0 + s * (-2.0) - r).abs() < 1e-15);
        assert!((-s * 1.0 + c * (-2.0)).abs() < 1e-15);
        assert!((c * c + s * s - 1.0).abs() < 1e-15);
    }

    #[test]
    fn lacon_estimates_identity() {
        // For A = I the 1-norm is 1.
        let est = lacon::<f64>(5, |_x, _t| {});
        assert!((est - 1.0).abs() < 0.5, "est = {est}");
    }

    #[test]
    fn lacon_estimates_diagonal() {
        // A = diag(1..5): ||A||_1 = 5.
        let est = lacon::<f64>(5, |x, _t| {
            for (i, v) in x.iter_mut().enumerate() {
                *v *= (i + 1) as f64;
            }
        });
        assert!((4.0..=5.0 + 1e-12).contains(&est), "est = {est}");
    }
}
