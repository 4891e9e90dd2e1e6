//! Every Cholesky diagonal block is factored by the recursive panel
//! `potrf2` (leaves of at most 32 columns, splits on a 32-column grid),
//! inside the blocked loop, whole at or below the crossover, and in the
//! task graph's diagonal tasks. This suite holds `potrf` and `potrf2` to
//! the definition of the factor, for both triangles and all four scalar
//! types, at orders on every leaf, split and block-size boundary:
//!
//! * the residual `‖A − UᴴU‖` (resp. `‖A − LLᴴ‖`), accumulated in
//!   double-double, is within `c·n·ε·‖A‖` (max norm);
//! * the triangle not given, and the rows below `n` when `lda > n`, stay
//!   untouched bit for bit;
//! * `info` is the exact order of the first non-positive leading minor,
//!   wherever it falls: a first leaf, the second half of a recursion node
//!   (each node adds its `n1` to the code of its second half), or a later
//!   outer block;
//! * with its workspace refused, `potrf` either completes or reports
//!   `INFO_NO_WORKSPACE` with `A` as it was given — it never aborts.
//!
//! Each step right of a diagonal block is one `la_blas::chol_step` sweep.
//! The suite also keeps the loop that sweep replaced, written from public
//! calls — `potf2` leaves on the 32-column split grid, a `trsm` for the
//! off-diagonal block, a copy of it and a `herk` for the trailing update,
//! inside the blocked loop at NB — and holds `potrf` and `potrf2` to its
//! factors and `info` bit for bit, at one thread, for all four scalar
//! types.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use la_blas::{herk, trsm};
use la_core::dd::Dd;
use la_core::tune::{self, GemmKernel, TuneConfig};
use la_core::{Diag, RealScalar, Scalar, Side, Trans, Uplo, C32, C64};
use la_lapack::{potf2, potrf, potrf2, INFO_NO_WORKSPACE};

thread_local! {
    /// Requests of this many bytes or more fail on this thread.
    static REFUSE_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
}

struct Refusing;

// SAFETY: every method forwards to `System` unchanged or returns null (a
// refusal the `GlobalAlloc` contract allows); the only addition is a
// const-initialised thread-local read, which cannot allocate.
unsafe impl GlobalAlloc for Refusing {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if l.size() >= REFUSE_FROM.with(Cell::get) {
            return std::ptr::null_mut();
        }
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        if l.size() >= REFUSE_FROM.with(Cell::get) {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if new_size >= REFUSE_FROM.with(Cell::get) {
            return std::ptr::null_mut();
        }
        System.realloc(p, l, new_size)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Refusing = Refusing;

/// Runs `f` with every allocation of `bytes` or more refused on this
/// thread.
fn refusing<R>(bytes: usize, f: impl FnOnce() -> R) -> R {
    REFUSE_FROM.with(|r| r.set(bytes));
    let out = f();
    REFUSE_FROM.with(|r| r.set(usize::MAX));
    out
}

/// Orders on every leaf (32), split (multiples of 32) and block-size (96:
/// `nb_potrf`; 128: the task graph's block; 192: two of the first, and the
/// crossover; 256: two of the second) boundary, and the benchmark's
/// `large_factor` order.
const ORDERS: [usize; 21] = [
    1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 127, 128, 129, 191, 192, 193, 255, 256, 257, 768,
];

/// Orders whose residual is checked on every column; above, on both sides
/// of every 32-column boundary (every leaf's first and last column).
const FULL_RESIDUAL_MAX: usize = 129;

struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    }
    fn val<T: Scalar>(&mut self) -> T {
        let re = self.next_f64();
        let im = if T::IS_COMPLEX { self.next_f64() } else { 0.0 };
        T::from_re_im(T::Real::from_f64(re), T::Real::from_f64(im))
    }
}

/// Whether `(i, j)` is in the triangle `uplo` names (the diagonal
/// included).
fn stored(uplo: Uplo, i: usize, j: usize) -> bool {
    match uplo {
        Uplo::Upper => i <= j,
        Uplo::Lower => i >= j,
    }
}

/// A Hermitian positive definite matrix of order `n` in an `lda × n`
/// array: off-diagonal entries in `[−1, 1)`, diagonal `2n`. Outside the
/// `uplo` triangle, and below row `n`, a sentinel no factorization writes.
fn posdef<T: Scalar>(uplo: Uplo, n: usize, lda: usize, seed: u64) -> Vec<T> {
    let mut rng = Rng(seed);
    let mut a = vec![T::from_f64(-777.0); lda * n];
    for j in 0..n {
        for i in 0..j {
            let v: T = rng.val();
            let (r, c) = if uplo == Uplo::Upper { (i, j) } else { (j, i) };
            a[r + c * lda] = if uplo == Uplo::Upper { v } else { v.conj() };
        }
        a[j + j * lda] = T::from_f64(2.0 * n as f64);
    }
    a
}

/// `(re, im)` of `x` in f64.
fn parts<T: Scalar>(x: T) -> (f64, f64) {
    (x.re().to_f64(), x.im().to_f64())
}

/// Columns whose residual is checked.
fn checked_columns(n: usize) -> Vec<usize> {
    if n <= FULL_RESIDUAL_MAX {
        return (0..n).collect();
    }
    (0..n)
        .filter(|&j| j % 32 == 0 || j % 32 == 31 || j + 1 == n)
        .collect()
}

/// Largest `|A − UᴴU|` (resp. `|A − LLᴴ|`) entry over the stored triangle
/// of the checked columns, each sum accumulated in double-double, over
/// `max |A|`.
fn residual<T: Scalar>(uplo: Uplo, n: usize, a0: &[T], f: &[T], lda: usize) -> f64 {
    // The factor's entry of `Uᴴ` row `r`, column `k` (resp. of `L`): `R` is
    // `U` or `Lᴴ`, so `A = RᴴR` either way and `R(k, i)` is what we read.
    let r = |k: usize, i: usize| -> (f64, f64) {
        match uplo {
            Uplo::Upper => parts(f[k + i * lda]),
            Uplo::Lower => {
                let (re, im) = parts(f[i + k * lda]);
                (re, -im)
            }
        }
    };
    let mut worst = 0.0f64;
    let mut scale = 0.0f64;
    for j in checked_columns(n) {
        for i in 0..n {
            if !stored(uplo, i, j) {
                continue;
            }
            // (RᴴR)(i, j) = Σ_k conj(R(k, i))·R(k, j), k ≤ min(i, j).
            let (mut re, mut im) = (Dd::ZERO, Dd::ZERO);
            for k in 0..=i.min(j) {
                let (ar, ai) = r(k, i);
                let (br, bi) = r(k, j);
                re = re.fma_acc(ar, br).fma_acc(ai, bi);
                im = im.fma_acc(ar, bi).fma_acc(-ai, br);
            }
            let (xr, xi) = parts(a0[i + j * lda]);
            let d = (Dd::from_f64(xr) - re)
                .to_f64()
                .hypot((Dd::from_f64(xi) - im).to_f64());
            worst = worst.max(d);
            scale = scale.max(xr.hypot(xi));
        }
    }
    worst / scale
}

fn serial() -> TuneConfig {
    TuneConfig {
        max_threads: 1,
        ..TuneConfig::defaults()
    }
}

/// Both entries, both triangles, at every order and with `lda = n` and
/// `lda = n + 3`: `info = 0`, the residual within `c·n·ε`, the other
/// triangle and the padding untouched.
fn factors_are_cholesky<T: Scalar>() {
    let eps = T::Real::EPS.to_f64();
    for n in ORDERS {
        // `lda > n` at every order but the largest.
        let ldas = if n < 768 {
            vec![n.max(1), n + 3]
        } else {
            vec![n]
        };
        for lda in ldas {
            for uplo in [Uplo::Upper, Uplo::Lower] {
                let a0: Vec<T> = posdef(uplo, n, lda, 11 + n as u64);
                for (entry, factor) in [
                    (
                        "potrf",
                        potrf::<T> as fn(Uplo, usize, &mut [T], usize) -> i32,
                    ),
                    ("potrf2", potrf2::<T>),
                ] {
                    // One order per entry is enough for the second one:
                    // `potrf2` whole costs the same flops at every order.
                    if entry == "potrf2" && lda != n.max(1) {
                        continue;
                    }
                    let what = format!("{}{entry} {uplo:?} n={n} lda={lda}", T::PREFIX);
                    let mut a = a0.clone();
                    assert_eq!(
                        tune::with(serial(), || factor(uplo, n, &mut a, lda)),
                        0,
                        "{what}"
                    );
                    for j in 0..n {
                        for i in 0..lda {
                            if i >= n || !stored(uplo, i, j) {
                                assert!(
                                    a[i + j * lda].re().to_f64().to_bits()
                                        == a0[i + j * lda].re().to_f64().to_bits()
                                        && a[i + j * lda].im().to_f64().to_bits()
                                            == a0[i + j * lda].im().to_f64().to_bits(),
                                    "{what}: wrote ({i},{j}) outside the triangle"
                                );
                            }
                        }
                    }
                    let res = residual(uplo, n, &a0, &a, lda);
                    let bound = 4.0 * n.max(1) as f64 * eps;
                    assert!(res <= bound, "{what}: residual {res:.3e} over {bound:.3e}");
                }
            }
        }
    }
}

#[test]
fn factors_are_cholesky_f32() {
    factors_are_cholesky::<f32>();
}

#[test]
fn factors_are_cholesky_f64() {
    factors_are_cholesky::<f64>();
}

#[test]
fn factors_are_cholesky_c32() {
    factors_are_cholesky::<C32>();
}

#[test]
fn factors_are_cholesky_c64() {
    factors_are_cholesky::<C64>();
}

/// A negative diagonal entry at `p` makes the minor of order `p + 1` the
/// first that is not positive (the matrix is diagonally dominant).
fn indefinite_at<T: Scalar>(uplo: Uplo, n: usize, p: usize) -> Vec<T> {
    let mut a: Vec<T> = posdef(uplo, n, n, 29 + p as u64);
    a[p + p * n] = T::from_f64(-1.0);
    a
}

/// `info` names the first non-positive minor exactly. Positions, for the
/// recursive panel of order 96 (leaves 0–31, 32–63, 64–95; the top node
/// splits at 64, its first child at 32) and 128 (split at 64, both halves
/// at 32 more), and for the blocked loop at n = 320 with NB 96 (blocks at
/// 0, 96, 192, 288) or 128 (0, 128, 256; the last one 64 wide, split at
/// 32).
fn info_is_the_first_bad_minor<T: Scalar>() {
    let cases: [(usize, Option<usize>, usize); 12] = [
        // (order, nb_potrf for `potrf` or `None` for `potrf2` whole, p)
        // A first leaf.
        (96, None, 0),
        (96, None, 5),
        (128, None, 31),
        // The second half of a node: +32 (the first child of 96), +64
        // (the top node), +64+32 (a second half's second half).
        (96, None, 40),
        (96, None, 70),
        (128, None, 100),
        // The first leaf of a later outer block, and the second half of
        // its recursion.
        (320, Some(96), 200),
        (320, Some(96), 260),
        (320, Some(128), 270),
        (320, Some(128), 300),
        // The last column of the last block.
        (320, Some(96), 319),
        (257, Some(96), 256),
    ];
    for (n, nb, p) in cases {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let what = format!("{}potrf {uplo:?} n={n} nb={nb:?} p={p}", T::PREFIX);
            let mut a: Vec<T> = indefinite_at(uplo, n, p);
            let info = match nb {
                None => tune::with(serial(), || potrf2(uplo, n, &mut a, n)),
                Some(nb) => {
                    let cfg = TuneConfig {
                        nb_potrf: nb,
                        ..serial()
                    };
                    tune::with(cfg, || potrf(uplo, n, &mut a, n))
                }
            };
            assert_eq!(info, p as i32 + 1, "{what}");
        }
    }
}

#[test]
fn info_is_the_first_bad_minor_f32() {
    info_is_the_first_bad_minor::<f32>();
}

#[test]
fn info_is_the_first_bad_minor_f64() {
    info_is_the_first_bad_minor::<f64>();
}

#[test]
fn info_is_the_first_bad_minor_c32() {
    info_is_the_first_bad_minor::<C32>();
}

#[test]
fn info_is_the_first_bad_minor_c64() {
    info_is_the_first_bad_minor::<C64>();
}

/// With every request from `bytes` on refused (after a warm call, so the
/// BLAS packing arenas are grown), `potrf` and `potrf2` either complete
/// with the unrefused call's bits or report `INFO_NO_WORKSPACE` with `A`
/// untouched; nothing aborts. The limits refuse everything, only the
/// recursion's workspace, and nothing the call takes.
fn a_refused_workspace_is_reported<T: Scalar>() {
    let bits = |v: &[T]| -> Vec<(u64, u64)> {
        v.iter()
            .map(|&x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
            .collect()
    };
    for n in [32usize, 96, 257] {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let a0: Vec<T> = posdef(uplo, n, n, 41 + n as u64);
            for (entry, factor) in [
                (
                    "potrf",
                    potrf::<T> as fn(Uplo, usize, &mut [T], usize) -> i32,
                ),
                ("potrf2", potrf2::<T>),
            ] {
                let run = |limit: usize| {
                    let mut a = a0.clone();
                    let info =
                        tune::with(serial(), || refusing(limit, || factor(uplo, n, &mut a, n)));
                    (info, a)
                };
                let (info, clean) = run(usize::MAX);
                assert_eq!(info, 0);
                let element = std::mem::size_of::<T>();
                for limit in [1, 32 * 32 * element, n * n * element] {
                    let what =
                        format!("{}{entry} {uplo:?} n={n} refused from {limit} B", T::PREFIX);
                    let (info, a) = run(limit);
                    match info {
                        0 => assert!(bits(&a) == bits(&clean), "{what}: not the clean factor"),
                        INFO_NO_WORKSPACE => assert!(bits(&a) == bits(&a0), "{what}: A changed"),
                        _ => panic!("{what}: info {info}"),
                    }
                }
                // Refusing everything, a call that needs workspace cannot
                // have started.
                if n > 1 {
                    assert_eq!(run(1).0, INFO_NO_WORKSPACE, "{entry} n={n}");
                }
            }
        }
    }
}

#[test]
fn a_refused_workspace_is_reported_f32() {
    a_refused_workspace_is_reported::<f32>();
}

#[test]
fn a_refused_workspace_is_reported_f64() {
    a_refused_workspace_is_reported::<f64>();
}

#[test]
fn a_refused_workspace_is_reported_c32() {
    a_refused_workspace_is_reported::<C32>();
}

#[test]
fn a_refused_workspace_is_reported_c64() {
    a_refused_workspace_is_reported::<C64>();
}

/// One right-looking step with one call per phase: the off-diagonal block
/// by `trsm` (Lower: on a conjugate-transposed copy of `A21`, copied
/// back), then `A22 −= U12ᴴ·U12` (resp. `L21·L21ᴴ`) by `herk`, reading
/// `U12` from a copy.
fn oracle_step<T: Scalar>(uplo: Uplo, jb: usize, rest: usize, a: &mut [T], lda: usize) {
    let (left, right) = a.split_at_mut(jb * lda);
    let mut copy = vec![T::zero(); jb * rest];
    let (one, minus) = (T::one(), -T::Real::one());
    let (side, diag) = (Side::Left, Diag::NonUnit);
    match uplo {
        Uplo::Upper => {
            let t = Trans::ConjTrans;
            trsm(side, uplo, t, diag, jb, rest, one, left, lda, right, lda);
            for (c, dst) in copy.chunks_exact_mut(jb).enumerate() {
                dst.copy_from_slice(&right[c * lda..c * lda + jb]);
            }
            let a22 = &mut right[jb..];
            herk(
                uplo,
                t,
                rest,
                jb,
                minus,
                &copy,
                jb,
                T::Real::one(),
                a22,
                lda,
            );
        }
        Uplo::Lower => {
            for c in 0..jb {
                for r in 0..rest {
                    copy[c + r * jb] = left[jb + r + c * lda].conj();
                }
            }
            trsm(
                side,
                uplo,
                Trans::No,
                diag,
                jb,
                rest,
                one,
                left,
                lda,
                &mut copy,
                jb,
            );
            for c in 0..jb {
                for r in 0..rest {
                    left[jb + r + c * lda] = copy[c + r * jb].conj();
                }
            }
            let (l21, a22) = (&left[jb..], &mut right[jb..]);
            herk(
                uplo,
                Trans::No,
                rest,
                jb,
                minus,
                l21,
                lda,
                T::Real::one(),
                a22,
                lda,
            );
        }
    }
}

/// The recursive panel with one call per phase: `potf2` at leaves of at
/// most 32 columns, else half the leaves (rounded up) first, a step, and
/// the rest.
fn oracle_potrf2<T: Scalar>(uplo: Uplo, n: usize, a: &mut [T], lda: usize) -> i32 {
    if n <= 32 {
        return potf2(uplo, n, a, lda);
    }
    let n1 = 32 * n.div_ceil(32).div_ceil(2);
    let info = oracle_potrf2(uplo, n1, a, lda);
    if info != 0 {
        return info;
    }
    oracle_step(uplo, n1, n - n1, a, lda);
    match oracle_potrf2(uplo, n - n1, &mut a[n1 + n1 * lda..], lda) {
        0 => 0,
        info => info + n1 as i32,
    }
}

/// `potrf`'s one-thread route with one call per phase: the recursive
/// panel whole up to two panels of `nb`, else the blocked loop at `nb`.
fn oracle_potrf<T: Scalar>(uplo: Uplo, n: usize, a: &mut [T], lda: usize, nb: usize) -> i32 {
    let nb = if n <= 2 * nb { n } else { nb };
    let mut j = 0;
    while j < n {
        let jb = nb.min(n - j);
        let info = oracle_potrf2(uplo, jb, &mut a[j + j * lda..], lda);
        if info != 0 {
            return info + j as i32;
        }
        if j + jb < n {
            oracle_step(uplo, jb, n - j - jb, &mut a[j + j * lda..], lda);
        }
        j += jb;
    }
    0
}

fn bits_of<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
    v.iter()
        .map(|x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
        .collect()
}

/// `potrf` at `cfg` (one thread), and with `whole` `potrf2`, against the
/// oracle, bit for bit, on a matrix of order `n` in an `(n + 3)`-row
/// array, positive definite or, with `bad`, with its minor of order
/// `bad + 1` the first that is not positive.
fn against_oracle<T: Scalar>(cfg: TuneConfig, n: usize, bad: Option<usize>, whole: bool) {
    let lda = n + 3;
    for uplo in [Uplo::Upper, Uplo::Lower] {
        let mut a0: Vec<T> = posdef(uplo, n, lda, 53 + n as u64);
        if let Some(p) = bad {
            a0[p + p * lda] = T::from_f64(-1.0);
        }
        let what = format!(
            "{} {uplo:?} n={n} nb={} {:?} mc/kc/nc={}/{}/{} bad={bad:?}",
            T::PREFIX,
            cfg.nb_potrf,
            cfg.gemm_kernel,
            cfg.gemm_mc,
            cfg.gemm_kc,
            cfg.gemm_nc
        );
        tune::with(cfg, || {
            let (mut want, mut got) = (a0.clone(), a0.clone());
            let want_info = oracle_potrf(uplo, n, &mut want, lda, cfg.nb_potrf);
            let got_info = potrf(uplo, n, &mut got, lda);
            assert_eq!(got_info, want_info, "potrf {what}: info");
            assert!(bits_of(&got) == bits_of(&want), "potrf {what}: factor");
            if !whole {
                return;
            }
            let (mut want, mut got) = (a0.clone(), a0.clone());
            let want_info = oracle_potrf2(uplo, n, &mut want, lda);
            let got_info = potrf2(uplo, n, &mut got, lda);
            assert_eq!(got_info, want_info, "potrf2 {what}: info");
            assert!(bits_of(&got) == bits_of(&want), "potrf2 {what}: factor");
            if let Some(p) = bad {
                assert_eq!(got_info, p as i32 + 1, "potrf2 {what}: first bad minor");
            }
        });
    }
}

/// Orders on every leaf (32), split and NB (96) boundary, a last step of
/// one to three columns (97, 99 at NB 32; 193 at 96), `NC` (512) on both
/// sides of a step's trailing block (607–609 at NB 96), and the
/// benchmark's `large_factor` order; NB 8, 32, 96 and 257 (a step deeper
/// than one diagonal block of the solve sweep), the default kernel, a
/// pinned one, and the small `MC`/`KC`/`NC` of `tests/kernels.rs` (every
/// step of 32 columns or more split in depth).
fn oracle_for<T: Scalar>() {
    let at = |nb: usize| TuneConfig {
        nb_potrf: nb,
        ..serial()
    };
    for n in [
        1, 2, 31, 32, 33, 63, 64, 65, 95, 96, 97, 99, 128, 129, 191, 192, 193, 200,
    ] {
        // `potrf2` does not read NB: one run of it per order.
        for nb in [8, 32, 96] {
            against_oracle::<T>(at(nb), n, None, nb == 96);
        }
    }
    for n in [607, 608, 609] {
        against_oracle::<T>(at(96), n, None, false);
    }
    // `potrf2` at 768 splits at 384, deeper than one diagonal block.
    against_oracle::<T>(at(96), 768, None, true);
    against_oracle::<T>(at(257), 600, None, false);
    for n in [97, 200] {
        let pinned = TuneConfig {
            gemm_kernel: GemmKernel::Unrolled,
            ..at(32)
        };
        against_oracle::<T>(pinned, n, None, true);
        let small = TuneConfig {
            gemm_mc: 22,
            gemm_kc: 16,
            gemm_nc: 37,
            ..at(32)
        };
        against_oracle::<T>(small, n, None, true);
        // Steps of 8 fit one `KC` depth: the fused sweep on `MC` blocks off
        // the `MR` grid and `NC` bands of 37.
        against_oracle::<T>(
            TuneConfig {
                nb_potrf: 8,
                ..small
            },
            n,
            None,
            false,
        );
        against_oracle::<T>(
            TuneConfig {
                nb_potrf: 96,
                ..small
            },
            n,
            None,
            false,
        );
    }
    // The first bad minor in a leaf, the second half of a node and a
    // later block.
    for p in [5, 70, 150] {
        against_oracle::<T>(at(32), 200, Some(p), true);
        against_oracle::<T>(at(96), 200, Some(p), false);
    }
}

#[test]
fn potrf_is_the_one_call_per_phase_loop_bit_for_bit_f32() {
    oracle_for::<f32>();
}

#[test]
fn potrf_is_the_one_call_per_phase_loop_bit_for_bit_f64() {
    oracle_for::<f64>();
}

#[test]
fn potrf_is_the_one_call_per_phase_loop_bit_for_bit_c32() {
    oracle_for::<C32>();
}

#[test]
fn potrf_is_the_one_call_per_phase_loop_bit_for_bit_c64() {
    oracle_for::<C64>();
}
