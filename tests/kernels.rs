//! Kernel-equivalence sweep for the packed BLAS-3 path.
//!
//! Every microkernel behind `LA_GEMM_KERNEL` must compute the same gemm:
//!
//! * an exhaustive edge-size sweep (each dimension over
//!   `{0, 1, tile−1, tile, tile+1, 97}`, per scalar type's tile shape)
//!   compares every kernel against a naive triple-loop reference — and
//!   the `scalar` and `unrolled` kernels against each other *bitwise*
//!   (they perform the same additions in the same order by contract);
//! * the SIMD kernel (when compiled in) matches to rounding tolerance
//!   only, since FMA contracts the multiply-add rounding;
//! * the triangle-masked `syrk`/`herk` band sweep matches a naive rank-k
//!   reference around the band, tile and blocking boundaries, and leaves
//!   the unreferenced triangle untouched;
//! * the `trsm` solve sweep matches a naive substitution around the tile,
//!   diagonal-block and band boundaries, never reads the unreferenced
//!   triangle (or a unit diagonal), keeps a poisoned right-hand side to
//!   its own column, and gives each column the same bits whatever the
//!   stripe split, the ABFT policy or the other columns of the call;
//! * serial and column-striped parallel execution are bitwise identical
//!   for a fixed kernel (the packed path blocks `k` identically in both),
//!   including under `AbftPolicy::Verify` checksums;
//! * the probe span records which kernel actually ran;
//! * the delayed-update `getf2` panel is the right-looking rank-1 loop bit
//!   for bit — factors, pivots, `info`, padding rows — over ragged shapes,
//!   zero pivots, ties, NaN and Inf, for all four types (with `simd`, the
//!   AVX2 compilation of its update loop against a plain reference).
//!
//! An explicit (non-`Auto`) kernel selection forces the packed path at
//! every size, so the sweep drives the pack/macro-kernel edge masking at
//! degenerate shapes — empty matrices, single vectors, ragged tiles —
//! for all four scalar types.

use la_blas::kernel::tile_dims;
use la_blas::{gemm, herk, syrk, trsm};
use la_core::abft::{self, AbftPolicy};
use la_core::tune::{self, GemmKernel};
use la_core::{Diag, RealScalar, Scalar, Side, Trans, Uplo, C32, C64};

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

/// Element of `op(X)` from the stored matrix.
fn op_el<T: Scalar>(t: Trans, x: &[T], ld: usize, i: usize, l: usize) -> T {
    match t {
        Trans::No => x[i + l * ld],
        Trans::Trans => x[l + i * ld],
        Trans::ConjTrans => x[l + i * ld].conj(),
    }
}

/// Naive triple-loop gemm reference (tight storage, lda = rows).
#[allow(clippy::too_many_arguments)]
fn naive_gemm<T: Scalar>(
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    b: &[T],
    beta: T,
    c: &mut [T],
) {
    let lda = if ta == Trans::No { m.max(1) } else { k.max(1) };
    let ldb = if tb == Trans::No { k.max(1) } else { n.max(1) };
    for j in 0..n {
        for i in 0..m {
            let mut s = T::zero();
            for l in 0..k {
                s += op_el(ta, a, lda, i, l) * op_el(tb, b, ldb, l, j);
            }
            let cc = &mut c[i + j * m.max(1)];
            *cc = if beta.is_zero() {
                T::zero()
            } else {
                beta * *cc
            } + alpha * s;
        }
    }
}

fn kernel_cfg(kern: GemmKernel) -> tune::TuneConfig {
    tune::TuneConfig {
        gemm_kernel: kern,
        ..tune::TuneConfig::defaults()
    }
}

/// Runs the public gemm entry under a pinned kernel on tightly-stored
/// operands and returns the output.
#[allow(clippy::too_many_arguments)]
fn run_gemm<T: Scalar>(
    kern: GemmKernel,
    ta: Trans,
    tb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    b: &[T],
    beta: T,
    c0: &[T],
) -> Vec<T> {
    let lda = if ta == Trans::No { m.max(1) } else { k.max(1) };
    let ldb = if tb == Trans::No { k.max(1) } else { n.max(1) };
    let mut c = c0.to_vec();
    tune::with(kernel_cfg(kern), || {
        gemm(
            ta,
            tb,
            m,
            n,
            k,
            alpha,
            a,
            lda,
            b,
            ldb,
            beta,
            &mut c,
            m.max(1),
        );
    });
    c
}

/// Edge sizes for one tile extent: both sides of the tile boundary plus a
/// many-tile ragged size.
fn edge_sizes(tile: usize) -> Vec<usize> {
    let mut v = vec![0, 1, tile - 1, tile, tile + 1, 97];
    v.dedup();
    v
}

fn edge_sweep<T: Scalar>(eps: f64) {
    let (mr, nr) = tile_dims::<T>();
    let mut rng = Rng(0x5eed ^ mr as u64);
    // Generous upper bounds so one allocation serves every size.
    let cap = 97 * 97;
    let abuf: Vec<T> = rng.vec(cap);
    let bbuf: Vec<T> = rng.vec(cap);
    let cbuf: Vec<T> = rng.vec(cap);
    let alpha = T::from_f64(1.25);
    let beta = T::from_f64(-0.5);
    let pairs: &[(Trans, Trans)] = if T::IS_COMPLEX {
        &[
            (Trans::No, Trans::No),
            (Trans::Trans, Trans::No),
            (Trans::No, Trans::ConjTrans),
            (Trans::ConjTrans, Trans::Trans),
        ]
    } else {
        &[
            (Trans::No, Trans::No),
            (Trans::Trans, Trans::No),
            (Trans::No, Trans::Trans),
        ]
    };
    for &(ta, tb) in pairs {
        for &m in &edge_sizes(mr) {
            for &n in &edge_sizes(nr) {
                for &k in &edge_sizes(mr) {
                    let a = &abuf[..m.max(k) * k.max(m).max(1)];
                    let b = &bbuf[..k.max(n) * n.max(k).max(1)];
                    let c0 = &cbuf[..m * n];
                    let mut reference = c0.to_vec();
                    naive_gemm(ta, tb, m, n, k, alpha, a, b, beta, &mut reference);
                    let scalar =
                        run_gemm(GemmKernel::Scalar, ta, tb, m, n, k, alpha, a, b, beta, c0);
                    let unrolled =
                        run_gemm(GemmKernel::Unrolled, ta, tb, m, n, k, alpha, a, b, beta, c0);
                    let tag = format!("{ta:?}/{tb:?} m={m} n={n} k={k}");
                    // scalar ↔ unrolled: same additions, same order — bitwise.
                    assert_eq!(scalar, unrolled, "{tag}: scalar vs unrolled not bitwise");
                    // every kernel ↔ naive reference: rounding tolerance.
                    let tol = eps * 16.0 * (k as f64 + 1.0);
                    for (idx, (&s, &r)) in scalar.iter().zip(&reference).enumerate() {
                        let d = (s - r).abs().to_f64();
                        let scale = 1.0 + r.abs().to_f64();
                        assert!(d <= tol * scale, "{tag}: scalar[{idx}] off by {d}");
                    }
                    #[cfg(feature = "simd")]
                    {
                        let simd =
                            run_gemm(GemmKernel::Simd, ta, tb, m, n, k, alpha, a, b, beta, c0);
                        for (idx, (&s, &r)) in simd.iter().zip(&reference).enumerate() {
                            let d = (s - r).abs().to_f64();
                            let scale = 1.0 + r.abs().to_f64();
                            assert!(d <= tol * scale, "{tag}: simd[{idx}] off by {d}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn edge_sweep_f32() {
    edge_sweep::<f32>(f32::EPSILON as f64);
}

#[test]
fn edge_sweep_f64() {
    edge_sweep::<f64>(f64::EPSILON);
}

#[test]
fn edge_sweep_c32() {
    edge_sweep::<C32>(f32::EPSILON as f64 * 2.0);
}

#[test]
fn edge_sweep_c64() {
    edge_sweep::<C64>(f64::EPSILON * 2.0);
}

/// The rank-k sweep against a naive reference: orders around the 48-column
/// parallel band and the tile shapes, depths below and above one tile
/// row, both triangles, both operand layouts, `syrk` and `herk`, every
/// kernel. `C` has padding rows and starts out random everywhere, so the
/// unreferenced triangle and the padding double as sentinels that must
/// come back bit for bit.
fn syrk_sweep<T: Scalar>(eps: f64, base: tune::TuneConfig, orders: &[usize], depths: &[usize]) {
    let mut rng = Rng(0x5e11 ^ tile_dims::<T>().0 as u64);
    let (alpha, beta) = (-1.25, 0.5);
    let mut kernels = vec![GemmKernel::Scalar, GemmKernel::Unrolled];
    if cfg!(feature = "simd") {
        kernels.push(GemmKernel::Simd);
    }
    for &n in orders {
        let ldc = n + 3;
        let c0: Vec<T> = rng.vec(ldc * n);
        for &k in depths {
            let a: Vec<T> = rng.vec(n * k);
            for uplo in [Uplo::Lower, Uplo::Upper] {
                for trans in [Trans::No, Trans::Trans] {
                    let lda = if trans == Trans::No { n } else { k };
                    // op(A)(i, l) as stored.
                    let ael = |i: usize, l: usize| match trans {
                        Trans::No => a[i + l * lda],
                        _ => a[l + i * lda],
                    };
                    for hermitian in [false, true] {
                        // herk conjugates the second factor of op(A)·op(A)ᴴ
                        // for `No` and the first for `ConjTrans`.
                        let conj = hermitian && T::IS_COMPLEX;
                        let htrans = if conj && trans == Trans::Trans {
                            Trans::ConjTrans
                        } else {
                            trans
                        };
                        let mut want = c0.clone();
                        for j in 0..n {
                            for i in 0..n {
                                if (uplo == Uplo::Lower) != (i >= j) && i != j {
                                    continue;
                                }
                                let mut s = T::zero();
                                for l in 0..k {
                                    let (x, y) = (ael(i, l), ael(j, l));
                                    s += match (conj, trans) {
                                        (false, _) => x * y,
                                        (true, Trans::No) => x * y.conj(),
                                        (true, _) => x.conj() * y,
                                    };
                                }
                                let w = &mut want[i + j * ldc];
                                *w = T::from_f64(beta) * *w + T::from_f64(alpha) * s;
                                if conj && i == j {
                                    *w = T::from_real(w.re());
                                }
                            }
                        }
                        let run = |kern: GemmKernel| {
                            let mut c = c0.clone();
                            let cfg = tune::TuneConfig {
                                gemm_kernel: kern,
                                ..base
                            };
                            tune::with(cfg, || {
                                if hermitian {
                                    herk::<T>(
                                        uplo,
                                        htrans,
                                        n,
                                        k,
                                        T::Real::from_f64(alpha),
                                        &a,
                                        lda,
                                        T::Real::from_f64(beta),
                                        &mut c,
                                        ldc,
                                    );
                                } else {
                                    syrk(
                                        uplo,
                                        trans,
                                        n,
                                        k,
                                        T::from_f64(alpha),
                                        &a,
                                        lda,
                                        T::from_f64(beta),
                                        &mut c,
                                        ldc,
                                    );
                                }
                            });
                            c
                        };
                        let tag = format!("{uplo:?}/{htrans:?} herk={hermitian} n={n} k={k}");
                        let tol = eps * 16.0 * (k as f64 + 1.0);
                        let mut first: Option<Vec<T>> = None;
                        for &kern in &kernels {
                            let got = run(kern);
                            for (idx, (&g, &w)) in got.iter().zip(&want).enumerate() {
                                let (i, j) = (idx % ldc, idx / ldc);
                                let updated =
                                    i < n && ((uplo == Uplo::Lower) == (i >= j) || i == j);
                                if updated {
                                    let d = (g - w).abs().to_f64();
                                    let scale = 1.0 + w.abs().to_f64();
                                    assert!(d <= tol * scale, "{tag} {kern:?} ({i},{j}): {d}");
                                } else {
                                    assert_eq!(g, c0[idx], "{tag} {kern:?} touched ({i},{j})");
                                }
                                if conj && i == j {
                                    assert_eq!(g.im().to_f64(), 0.0, "{tag} {kern:?} diagonal");
                                }
                            }
                            // scalar ↔ unrolled: bitwise, as for gemm.
                            match (&first, kern) {
                                (None, _) => first = Some(got),
                                (Some(f), GemmKernel::Unrolled) => {
                                    assert_eq!(f, &got, "{tag}: scalar vs unrolled not bitwise")
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
    }
}

const SYRK_ORDERS: [usize; 6] = [1, 47, 48, 49, 97, 200];
const SYRK_DEPTHS: [usize; 3] = [1, 31, 96];

#[test]
fn syrk_sweep_f32() {
    let base = tune::TuneConfig::defaults();
    syrk_sweep::<f32>(f32::EPSILON as f64, base, &SYRK_ORDERS, &SYRK_DEPTHS);
}

#[test]
fn syrk_sweep_f64() {
    let base = tune::TuneConfig::defaults();
    syrk_sweep::<f64>(f64::EPSILON, base, &SYRK_ORDERS, &SYRK_DEPTHS);
}

#[test]
fn syrk_sweep_c32() {
    let base = tune::TuneConfig::defaults();
    syrk_sweep::<C32>(f32::EPSILON as f64 * 2.0, base, &SYRK_ORDERS, &SYRK_DEPTHS);
}

#[test]
fn syrk_sweep_c64() {
    let base = tune::TuneConfig::defaults();
    syrk_sweep::<C64>(f64::EPSILON * 2.0, base, &SYRK_ORDERS, &SYRK_DEPTHS);
}

/// The same sweep under a blocking small enough that one update spans
/// several column bands, row blocks and depth blocks, with `MC` and `NC`
/// off the tile grid so diagonal tiles land at every alignment.
#[test]
fn syrk_sweep_across_band_row_and_depth_blocks() {
    let base = tune::TuneConfig {
        gemm_mc: 22,
        gemm_kc: 16,
        gemm_nc: 37,
        ..tune::TuneConfig::defaults()
    };
    syrk_sweep::<f64>(f64::EPSILON, base, &[97], &[31, 96]);
    syrk_sweep::<C32>(f32::EPSILON as f64 * 2.0, base, &[97], &[31, 96]);
}

/// The kernels a sweep pins, `simd` only when it is compiled in.
fn pinned_kernels() -> Vec<GemmKernel> {
    let mut kernels = vec![GemmKernel::Scalar, GemmKernel::Unrolled];
    if cfg!(feature = "simd") {
        kernels.push(GemmKernel::Simd);
    }
    kernels
}

const UPLOS: [Uplo; 2] = [Uplo::Lower, Uplo::Upper];
const TRANSES: [Trans; 3] = [Trans::No, Trans::Trans, Trans::ConjTrans];
const DIAGS: [Diag; 2] = [Diag::NonUnit, Diag::Unit];

/// A well-conditioned triangle of order `na` (`lda = na + 2`): small
/// off-diagonals under a diagonal near 4. Everything `trsm` must not read
/// — the other triangle, the padding and, under `Diag::Unit`, the
/// diagonal — is NaN.
fn triangle<T: Scalar>(rng: &mut Rng, uplo: Uplo, diag: Diag, na: usize) -> Vec<T> {
    let lda = na + 2;
    let nan = T::from_f64(f64::NAN);
    let mut a = vec![nan; lda * na];
    for j in 0..na {
        for i in 0..na {
            let stored = if uplo == Uplo::Upper { i < j } else { i > j };
            if stored {
                a[i + j * lda] = rng.val::<T>() * T::from_f64(1.0 / na as f64);
            }
        }
        if diag == Diag::NonUnit {
            a[j + j * lda] = rng.val::<T>() + T::from_f64(4.0);
        }
    }
    a
}

/// `op(A)·X = α·B` or `X·op(A) = α·B` by plain substitution, one dot
/// product per element, reading exactly what `xTRSM` may reference.
#[allow(clippy::too_many_arguments)]
fn naive_trsm<T: Scalar>(
    side: Side,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &mut [T],
    ldb: usize,
) {
    let na = if side == Side::Left { m } else { n };
    // op(A)(i, l) for i ≠ l, zero outside the stored triangle.
    let t = |i: usize, l: usize| {
        let (si, sl) = if trans == Trans::No { (i, l) } else { (l, i) };
        if (uplo == Uplo::Upper) == (si < sl) {
            op_el(trans, a, lda, i, l)
        } else {
            T::zero()
        }
    };
    let pivot = |x: T, i: usize| match diag {
        Diag::Unit => x,
        Diag::NonUnit => x / op_el(trans, a, lda, i, i),
    };
    // Whether op(A) is lower triangular.
    let lower = (uplo == Uplo::Lower) == (trans == Trans::No);
    // Left: rows top down under a lower op(A). Right: x_j draws on the
    // columns l with op(A)(l, j) ≠ 0, so the order is the other way round.
    let ascending = lower == (side == Side::Left);
    for step in 0..na {
        let p = if ascending { step } else { na - 1 - step };
        let done = if ascending { 0..p } else { p + 1..na };
        match side {
            Side::Left => {
                for j in 0..n {
                    let mut s = alpha * b[p + j * ldb];
                    for l in done.clone() {
                        s -= t(p, l) * b[l + j * ldb];
                    }
                    b[p + j * ldb] = pivot(s, p);
                }
            }
            Side::Right => {
                for i in 0..m {
                    let mut s = alpha * b[i + p * ldb];
                    for l in done.clone() {
                        s -= b[i + l * ldb] * t(l, p);
                    }
                    b[i + p * ldb] = pivot(s, p);
                }
            }
        }
    }
}

/// The solve sweep against [`naive_trsm`]: every uplo × trans × diag,
/// every kernel, the given `B` shapes. `B` has padding rows that must come
/// back bit for bit, and `A` is NaN wherever `trsm` must not look.
fn trsm_sweep<T: Scalar>(eps: f64, base: tune::TuneConfig, side: Side, ms: &[usize], ns: &[usize]) {
    let mut rng = Rng(0x7125 ^ tile_dims::<T>().0 as u64);
    let alpha = T::from_f64(-1.5);
    for &m in ms {
        for &n in ns {
            let na = if side == Side::Left { m } else { n };
            let (lda, ldb) = (na + 2, m + 3);
            let b0: Vec<T> = rng.vec(ldb * n);
            for (uplo, trans, diag) in UPLOS
                .iter()
                .flat_map(|&u| TRANSES.iter().map(move |&t| (u, t)))
                .flat_map(|(u, t)| DIAGS.iter().map(move |&d| (u, t, d)))
            {
                let a: Vec<T> = triangle(&mut rng, uplo, diag, na);
                let mut want = b0.clone();
                naive_trsm(
                    side, uplo, trans, diag, m, n, alpha, &a, lda, &mut want, ldb,
                );
                let tag = format!("{} {side:?}/{uplo:?}/{trans:?}/{diag:?} {m}x{n}", T::PREFIX);
                let tol = eps * 50.0 * (na as f64 + 1.0);
                let mut first: Option<Vec<T>> = None;
                for kern in pinned_kernels() {
                    let cfg = tune::TuneConfig {
                        gemm_kernel: kern,
                        ..base
                    };
                    let mut got = b0.clone();
                    tune::with(cfg, || {
                        trsm(side, uplo, trans, diag, m, n, alpha, &a, lda, &mut got, ldb)
                    });
                    for (idx, (&g, &w)) in got.iter().zip(&want).enumerate() {
                        let (i, j) = (idx % ldb, idx / ldb);
                        if i >= m {
                            assert_eq!(g, b0[idx], "{tag} {kern:?} touched padding ({i},{j})");
                            continue;
                        }
                        // A NaN fails the comparison too.
                        let d = (g - w).abs().to_f64();
                        let scale = 1.0 + w.abs().to_f64();
                        assert!(d <= tol * scale, "{tag} {kern:?} ({i},{j}): {g} vs {w}");
                    }
                    // scalar ↔ unrolled: bitwise, as for gemm.
                    match (&first, kern) {
                        (None, _) => first = Some(got),
                        (Some(f), GemmKernel::Unrolled) => {
                            assert_eq!(f, &got, "{tag}: scalar vs unrolled not bitwise")
                        }
                        _ => {}
                    }
                }
            }
        }
    }
}

/// Orders around one tile row, the old 48-row blocking and two blocks of
/// it; widths on both sides of the narrow (`trsv`) route and of one tile.
fn trsm_left_shapes<T: Scalar>() -> (Vec<usize>, Vec<usize>) {
    let (mr, nr) = tile_dims::<T>();
    (
        vec![1, mr - 1, mr, mr + 1, 47, 48, 49, 97],
        vec![4, 5, nr + 1, 64],
    )
}

fn trsm_left_sweep<T: Scalar>(eps: f64) {
    let (ms, ns) = trsm_left_shapes::<T>();
    let base = tune::TuneConfig::defaults();
    trsm_sweep::<T>(eps, base, Side::Left, &ms, &ns);
}

#[test]
fn trsm_sweep_f32() {
    trsm_left_sweep::<f32>(f32::EPSILON as f64);
}

#[test]
fn trsm_sweep_f64() {
    trsm_left_sweep::<f64>(f64::EPSILON);
}

#[test]
fn trsm_sweep_c32() {
    trsm_left_sweep::<C32>(f32::EPSILON as f64 * 2.0);
}

#[test]
fn trsm_sweep_c64() {
    trsm_left_sweep::<C64>(f64::EPSILON * 2.0);
}

/// The same sweep under a blocking small enough that the triangle spans
/// seven diagonal blocks (the last one ragged) and `B` two bands, so the
/// off-block update runs from both ends at test sizes.
#[test]
fn trsm_sweep_across_diagonal_blocks_and_bands() {
    let base = tune::TuneConfig {
        gemm_mc: 22,
        gemm_kc: 16,
        gemm_nc: 37,
        ..tune::TuneConfig::defaults()
    };
    trsm_sweep::<f64>(f64::EPSILON, base, Side::Left, &[47, 97], &[5, 64]);
    trsm_sweep::<C32>(
        f32::EPSILON as f64 * 2.0,
        base,
        Side::Left,
        &[47, 97],
        &[5, 64],
    );
}

/// `Side::Right` on both of its routes: a `trsv` per row below twelve
/// rows, the transposed left-side sweep from twelve.
#[test]
fn trsm_sweep_right_side() {
    let base = tune::TuneConfig::defaults();
    let ms = [11, 12, 13];
    trsm_sweep::<f32>(f32::EPSILON as f64, base, Side::Right, &ms, &[5, 49]);
    trsm_sweep::<f64>(f64::EPSILON, base, Side::Right, &ms, &[5, 49]);
    trsm_sweep::<C32>(f32::EPSILON as f64 * 2.0, base, Side::Right, &ms, &[5, 49]);
    trsm_sweep::<C64>(f64::EPSILON * 2.0, base, Side::Right, &ms, &[5, 49]);
}

/// A NaN or an Inf in one right-hand side stays in its column: every other
/// column comes back with the bits of the clean solve.
#[test]
fn trsm_keeps_a_poisoned_column_to_itself() {
    fn check<T: Scalar>() {
        let (m, n) = (49usize, 64usize);
        let mut rng = Rng(0xbad);
        let b0: Vec<T> = rng.vec(m * n);
        for (uplo, trans) in UPLOS
            .iter()
            .flat_map(|&u| TRANSES.iter().map(move |&t| (u, t)))
        {
            let a: Vec<T> = triangle(&mut rng, uplo, Diag::NonUnit, m);
            let solve = |b: &mut [T]| {
                let (left, diag) = (Side::Left, Diag::NonUnit);
                trsm(left, uplo, trans, diag, m, n, T::one(), &a, m + 2, b, m);
            };
            let mut clean = b0.clone();
            solve(&mut clean);
            for (poison, row, col) in [(f64::NAN, 0, 5), (f64::INFINITY, m - 1, 62)] {
                let mut b = b0.clone();
                b[row + col * m] = T::from_f64(poison);
                solve(&mut b);
                let tag = format!("{} {uplo:?}/{trans:?} {poison} in column {col}", T::PREFIX);
                for j in 0..n {
                    let (got, want) = (&b[j * m..(j + 1) * m], &clean[j * m..(j + 1) * m]);
                    if j == col {
                        let finite = |x: &T| x.abs().to_f64().is_finite();
                        assert!(!got.iter().all(finite), "{tag}: the poison vanished");
                    } else {
                        assert!(got == want, "{tag}: column {j} changed");
                    }
                }
            }
        }
    }
    check::<f64>();
    check::<C64>();
}

/// A column's bits depend on the triangle and on nothing else: not on the
/// stripe split (two oversubscribed stripes cut `n = 5` into 3 + 2), not
/// on the ABFT policy (which routes the call past the narrow-shape early
/// exit, and whose recovery re-runs a stripe), and — from four columns up,
/// where every call takes the packed sweep — not on the other columns.
#[test]
fn trsm_columns_do_not_depend_on_stripes_policy_or_neighbours() {
    fn check<T: Scalar>() {
        let m = 60usize;
        let widths = [1usize, 2, 3, 5, 6, 7, 9];
        let wide = *widths.last().unwrap();
        let mut rng = Rng(0x1d);
        let b0: Vec<T> = rng.vec(m * wide);
        let serial = tune::TuneConfig {
            max_threads: 1,
            par_flops: 0,
            ..tune::TuneConfig::defaults()
        };
        let striped = tune::TuneConfig {
            max_threads: 2,
            oversubscribe: true,
            ..serial
        };
        for (uplo, trans, diag) in UPLOS
            .iter()
            .flat_map(|&u| TRANSES.iter().map(move |&t| (u, t)))
            .flat_map(|(u, t)| DIAGS.iter().map(move |&d| (u, t, d)))
        {
            let a: Vec<T> = triangle(&mut rng, uplo, diag, m);
            let run = |cfg: tune::TuneConfig, pol: AbftPolicy, n: usize| {
                let mut b = b0[..m * n].to_vec();
                abft::clear_pending();
                abft::with_policy(pol, || {
                    tune::with(cfg, || {
                        let (left, one) = (Side::Left, T::one());
                        trsm(left, uplo, trans, diag, m, n, one, &a, m + 2, &mut b, m)
                    })
                });
                assert!(abft::take_pending().is_none(), "ABFT flagged a clean solve");
                b
            };
            let widest = run(serial, AbftPolicy::Off, wide);
            for n in widths {
                let tag = format!("{} {uplo:?}/{trans:?}/{diag:?} n={n}", T::PREFIX);
                let plain = run(serial, AbftPolicy::Off, n);
                for pol in [AbftPolicy::Off, AbftPolicy::Verify, AbftPolicy::Recover] {
                    assert!(run(serial, pol, n) == plain, "{tag}: serial under {pol:?}");
                    assert!(
                        run(striped, pol, n) == plain,
                        "{tag}: striped under {pol:?}"
                    );
                }
                if n >= 4 {
                    assert!(
                        plain[..] == widest[..m * n],
                        "{tag}: vs the first of {wide}"
                    );
                }
            }
        }
    }
    check::<f64>();
    check::<C64>();
}

/// For a fixed kernel, the column-striped parallel path and the serial
/// path must produce bitwise-identical results: stripes only partition
/// the columns of C, and the packed path blocks `k` the same way in
/// both, so every output element sees the same additions in the same
/// order. Verified with ABFT checksums armed, which must stay silent.
fn striped_matches_serial<T: Scalar>() {
    use la_core::abft::{self, AbftPolicy};
    let (m, n, k) = (61usize, 97, 53);
    let mut rng = Rng(0xab5eed);
    let a: Vec<T> = rng.vec(m * k);
    let b: Vec<T> = rng.vec(k * n);
    let c0: Vec<T> = rng.vec(m * n);
    let alpha = T::from_f64(1.5);
    let beta = T::from_f64(0.25);
    let mut kernels = vec![GemmKernel::Scalar, GemmKernel::Unrolled, GemmKernel::Auto];
    if cfg!(feature = "simd") {
        kernels.push(GemmKernel::Simd);
    }
    for kern in kernels {
        let serial_cfg = tune::TuneConfig {
            max_threads: 1,
            gemm_kernel: kern,
            ..tune::TuneConfig::defaults()
        };
        let striped_cfg = tune::TuneConfig {
            max_threads: 4,
            oversubscribe: true,
            par_flops: 0,
            gemm_kernel: kern,
            ..tune::TuneConfig::defaults()
        };
        let run = |cfg: tune::TuneConfig| {
            let mut c = c0.clone();
            tune::with(cfg, || {
                gemm(
                    Trans::No,
                    Trans::No,
                    m,
                    n,
                    k,
                    alpha,
                    &a,
                    m,
                    &b,
                    k,
                    beta,
                    &mut c,
                    m,
                )
            });
            c
        };
        let serial = run(serial_cfg);
        // Striped + ABFT verify: checksums run over the striped result
        // and must not flag a fault on a clean computation.
        abft::clear_pending();
        let striped = abft::with_policy(AbftPolicy::Verify, || run(striped_cfg));
        assert!(
            abft::take_pending().is_none(),
            "{kern:?}: ABFT flagged a clean striped gemm"
        );
        assert_eq!(
            serial, striped,
            "{kern:?}: striped result not bitwise-identical to serial"
        );
    }
}

#[test]
fn striped_matches_serial_all_types() {
    striped_matches_serial::<f32>();
    striped_matches_serial::<f64>();
    striped_matches_serial::<C32>();
    striped_matches_serial::<C64>();
}

/// The probe span for gemm records the kernel that actually ran: the
/// pinned kernel's name on the packed path, `"small"` for the unpacked
/// small-product sweep under `Auto`.
#[test]
fn probe_span_records_the_kernel() {
    use la_core::probe::{self, ProbePolicy};
    let n = 32usize;
    let mut rng = Rng(0x9b0e);
    let a: Vec<f64> = rng.vec(n * n);
    let b: Vec<f64> = rng.vec(n * n);
    let run = |cfg: tune::TuneConfig, m: usize| {
        probe::reset();
        probe::with_policy(ProbePolicy::Spans, || {
            let mut c = vec![0.0f64; m * m];
            tune::with(cfg, || {
                gemm(
                    Trans::No,
                    Trans::No,
                    m,
                    m,
                    m,
                    1.0,
                    &a[..m * m],
                    m,
                    &b[..m * m],
                    m,
                    0.0,
                    &mut c,
                    m,
                )
            });
        });
        let report = probe::snapshot();
        let span = report
            .spans
            .iter()
            .find(|s| s.routine == "gemm")
            .expect("gemm span")
            .clone();
        span.kernel
    };
    assert_eq!(run(kernel_cfg(GemmKernel::Unrolled), n), "unrolled");
    assert_eq!(run(kernel_cfg(GemmKernel::Scalar), n), "scalar");
    // Auto on a tiny product takes the unpacked small path.
    assert_eq!(run(kernel_cfg(GemmKernel::Auto), 4), "small");
    #[cfg(feature = "simd")]
    assert_eq!(run(kernel_cfg(GemmKernel::Simd), n), "simd");
}

/// The right-looking rank-1 `getf2` (one pass over the trailing panel per
/// pivot) — the oracle the delayed-update panel must match bit for bit.
fn getf2_rank1<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, ipiv: &mut [i32]) -> i32 {
    let mut info = 0i32;
    for j in 0..m.min(n) {
        // First of the largest `abs1`; the first NaN wins.
        let (mut p, mut best) = (j, T::Real::zero());
        for i in j..m {
            let v = a[i + j * lda].abs1();
            if v.is_nan() {
                p = i;
                break;
            }
            if v > best {
                (p, best) = (i, v);
            }
        }
        ipiv[j] = (p + 1) as i32;
        if !a[p + j * lda].is_zero() {
            for k in 0..n {
                a.swap(j + k * lda, p + k * lda);
            }
            let inv = a[j + j * lda].recip();
            for i in j + 1..m {
                a[i + j * lda] *= inv;
            }
        } else if info == 0 {
            info = (j + 1) as i32;
        }
        for k in j + 1..n {
            let ajk = a[j + k * lda];
            if !ajk.is_zero() {
                for i in j + 1..m {
                    let l = a[i + j * lda];
                    a[i + k * lda] -= l * ajk;
                }
            }
        }
    }
    info
}

/// Both parts of every element as bit patterns (`f32` widens exactly).
fn bits<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
    v.iter()
        .map(|x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
        .collect()
}

/// Factors `a0` (`m × n`, leading dimension `lda`) both ways and demands
/// the same bits everywhere in the buffer, the same pivots and `info`.
/// Returns `info`.
fn panel_matches_rank1<T: Scalar>(tag: &str, m: usize, n: usize, lda: usize, a0: &[T]) -> i32 {
    let mn = m.min(n);
    let (mut want, mut got) = (a0.to_vec(), a0.to_vec());
    let (mut wpiv, mut gpiv) = (vec![0i32; mn], vec![0i32; mn]);
    let winfo = getf2_rank1(m, n, &mut want, lda, &mut wpiv);
    let ginfo = la_lapack::getf2(m, n, &mut got, lda, &mut gpiv);
    let tag = format!("{} {tag} {m}x{n} lda={lda}", T::PREFIX);
    assert_eq!(gpiv, wpiv, "{tag}: pivots");
    assert_eq!(ginfo, winfo, "{tag}: info");
    for (idx, (g, w)) in bits(&got).iter().zip(&bits(&want)).enumerate() {
        assert_eq!(g, w, "{tag}: element ({}, {})", idx % lda, idx / lda);
    }
    ginfo
}

const PANEL_SHAPES: [(usize, usize); 11] = [
    (1, 1),
    (5, 1),
    (1, 5),
    (7, 7),
    (33, 9),
    (96, 32),
    (64, 32),
    (32, 32),
    (96, 30),
    (96, 33),
    (20, 28),
];

fn panel_contract<T: Scalar>() {
    let mut rng = Rng(0x9e7f2 ^ std::mem::size_of::<T>() as u64);
    let nan = T::from_real(T::Real::nan());
    let inf = T::from_real(T::Real::one() / T::Real::zero());
    for (m, n) in PANEL_SHAPES {
        for lda in [m, m + 3] {
            // Padding rows `m..lda` are NaN: untouched means still NaN,
            // and a read of one would poison the factors. The buffer ends
            // with the last column's row `m − 1`, as a sub-block's does.
            let mut a0: Vec<T> = rng.vec(lda * (n - 1) + m);
            for col in a0.chunks_mut(lda) {
                col[m..].fill(nan);
            }
            assert_eq!(panel_matches_rank1("random", m, n, lda, &a0), 0);

            // A zero column — its pivot is zero and so is every `U` entry
            // above it, which the update must skip — first, in the middle
            // and last in a strip of four, and in the ragged tail.
            let mn = m.min(n);
            for z in [0usize, 4, 5, 7, mn - 1] {
                if z >= mn {
                    continue;
                }
                let mut a = a0.clone();
                a[z * lda..z * lda + m].fill(T::zero());
                let info = panel_matches_rank1(&format!("zero pivot {z}"), m, n, lda, &a);
                assert_eq!(info, (z + 1) as i32);
            }
            // All zero: every pivot is zero, nothing moves.
            let mut a = a0.clone();
            for col in a.chunks_mut(lda) {
                col[..m].fill(T::zero());
            }
            assert_eq!(panel_matches_rank1("all zero", m, n, lda, &a), 1);

            // Exact ties in every column (the first index wins).
            let mut a = a0.clone();
            for col in a.chunks_mut(lda) {
                for (i, x) in col[..m].iter_mut().enumerate() {
                    *x = T::from_f64(if i % 3 == 0 { -2.0 } else { 2.0 });
                }
            }
            panel_matches_rank1("ties", m, n, lda, &a);

            if m > 2 && n > 2 {
                // Two NaNs in one column (the first wins), spreading from
                // there as the reference spreads them.
                let mut a = a0.clone();
                a[m / 2 + 2 * lda] = nan;
                a[m - 1 + 2 * lda] = nan;
                panel_matches_rank1("nan", m, n, lda, &a);

                // An Inf multiplier met by an exactly zero `U` entry: the
                // reference skips the term, so no NaN appears.
                let mut a = a0.clone();
                a[m - 1] = inf;
                a[0] = T::zero();
                a[lda..lda + m].fill(T::zero());
                panel_matches_rank1("inf times zero", m, n, lda, &a);
            }
        }
    }
}

#[test]
fn getf2_is_the_rank1_panel_bit_for_bit() {
    panel_contract::<f32>();
    panel_contract::<f64>();
    panel_contract::<C32>();
    panel_contract::<C64>();
}
