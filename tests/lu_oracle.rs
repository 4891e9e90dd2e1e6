//! `getrf`'s blocked loop runs each step right of its panel as one
//! `la_blas::lu_step` sweep. This suite keeps the loop that sweep replaced,
//! written from public calls — `getf2` on the panel, `laswp` on both sides
//! of it, a `trsm` for `U12`, a copy of `U12` and a `gemm` for the trailing
//! update — and holds `getrf` to its factors, pivots and `info` bit for bit,
//! at one thread on the blocked route, for all four scalar types.

use la_blas::{gemm, trsm};
use la_core::tune::{self, GemmKernel, TuneConfig};
use la_core::{Diag, RealScalar, Scalar, Side, Trans, Uplo, C32, C64};
use la_lapack::{getf2, getrf, laswp};

/// The blocked right-looking loop with one call per phase.
fn oracle<T: Scalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    ipiv: &mut [i32],
    nb: usize,
) -> i32 {
    let mn = m.min(n);
    let mut info = 0;
    let mut u12 = vec![T::zero(); nb * n];
    let mut j = 0;
    while j < mn {
        let jb = nb.min(mn - j);
        let panel_info = getf2(m - j, jb, &mut a[j + j * lda..], lda, &mut ipiv[j..j + jb]);
        if panel_info > 0 && info == 0 {
            info = panel_info + j as i32;
        }
        for p in &mut ipiv[j..j + jb] {
            *p += j as i32;
        }
        laswp(j, a, lda, j, j + jb, ipiv);
        if j + jb < n {
            let w = n - j - jb;
            laswp(w, &mut a[(j + jb) * lda..], lda, j, j + jb, ipiv);
            let (left, right) = a.split_at_mut((j + jb) * lda);
            let (side, lower, unit) = (Side::Left, Uplo::Lower, Diag::Unit);
            let l11 = &left[j + j * lda..];
            trsm(
                side,
                lower,
                Trans::No,
                unit,
                jb,
                w,
                T::one(),
                l11,
                lda,
                &mut right[j..],
                lda,
            );
            if j + jb < m {
                for (c, dst) in u12.chunks_exact_mut(jb).take(w).enumerate() {
                    dst.copy_from_slice(&right[j + c * lda..j + c * lda + jb]);
                }
                gemm(
                    Trans::No,
                    Trans::No,
                    m - j - jb,
                    w,
                    jb,
                    -T::one(),
                    &left[j + jb + j * lda..],
                    lda,
                    &u12,
                    jb,
                    T::one(),
                    &mut right[j + jb..],
                    lda,
                );
            }
        }
        j += jb;
    }
    info
}

/// `m × n` values in `[-1, 1)`, column-major with `lda = m + 2`; the
/// columns in `zero` are zero.
fn matrix<T: Scalar>(m: usize, n: usize, seed: u64, zero: &[usize]) -> Vec<T> {
    let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        z ^= z << 13;
        z ^= z >> 7;
        z ^= z << 17;
        T::Real::from_f64((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
    };
    let lda = m + 2;
    let mut a = vec![T::zero(); lda * n];
    for j in 0..n {
        for i in 0..m {
            let re = next();
            let im = if T::IS_COMPLEX {
                next()
            } else {
                T::Real::zero()
            };
            if !zero.contains(&j) {
                a[i + j * lda] = T::from_re_im(re, im);
            }
        }
    }
    a
}

fn bits<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
    v.iter()
        .map(|x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
        .collect()
}

/// One thread, panel width `nb` (the blocked route above two panels), and
/// kernel `kern`.
fn blocked(nb: usize, kern: GemmKernel) -> TuneConfig {
    TuneConfig {
        max_threads: 1,
        nb_getrf: nb,
        gemm_kernel: kern,
        ..TuneConfig::defaults()
    }
}

fn case<T: Scalar>(m: usize, n: usize, nb: usize, kern: GemmKernel, zero: &[usize]) {
    let a0: Vec<T> = matrix(m, n, (m * 1000 + n) as u64, zero);
    let lda = m + 2;
    tune::with(blocked(nb, kern), || {
        let width = tune::current().nb("getrf");
        let (mut want, mut got) = (a0.clone(), a0.clone());
        let (mut want_piv, mut got_piv) = (vec![0i32; m.min(n)], vec![0i32; m.min(n)]);
        let want_info = oracle(m, n, &mut want, lda, &mut want_piv, width);
        let got_info = getrf(m, n, &mut got, lda, &mut got_piv);
        let what = format!("{} {m}x{n} nb={width} {kern:?} zero={zero:?}", T::PREFIX);
        assert_eq!(got_info, want_info, "{what}: info");
        assert_eq!(got_piv, want_piv, "{what}: pivots");
        assert!(bits(&got) == bits(&want), "{what}: factors");
        if !zero.is_empty() {
            assert!(got_info > 0, "{what}: a zero column must report");
        }
    });
}

/// Square orders on both sides of the crossover, a ragged last band at
/// 768, a tall and a wide shape, a tall panel whose `L21` is too large to
/// pack once, a panel deeper than one diagonal block, and a zero column.
/// Every case is more than two panels, so `getrf` takes the blocked loop.
fn oracle_for<T: Scalar>() {
    for nb in [8, 32] {
        for n in [65, 96, 97, 200, 256, 768] {
            case::<T>(n, n, nb, GemmKernel::Auto, &[]);
        }
        case::<T>(300, 96, nb, GemmKernel::Auto, &[]);
        case::<T>(96, 300, nb, GemmKernel::Auto, &[]);
        // 40 columns are three panels at most 16 wide.
        case::<T>(4200, 40, nb.min(16), GemmKernel::Auto, &[]);
        case::<T>(97, 97, nb, GemmKernel::Auto, &[5, 40]);
        case::<T>(97, 97, nb, GemmKernel::Unrolled, &[]);
    }
    case::<T>(540, 540, 264, GemmKernel::Auto, &[]);
}

#[test]
fn getrf_is_the_one_call_per_phase_loop_bit_for_bit_f32() {
    oracle_for::<f32>();
}

#[test]
fn getrf_is_the_one_call_per_phase_loop_bit_for_bit_f64() {
    oracle_for::<f64>();
}

#[test]
fn getrf_is_the_one_call_per_phase_loop_bit_for_bit_c32() {
    oracle_for::<C32>();
}

#[test]
fn getrf_is_the_one_call_per_phase_loop_bit_for_bit_c64() {
    oracle_for::<C64>();
}
