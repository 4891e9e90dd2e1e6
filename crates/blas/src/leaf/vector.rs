//! The explicit vector body of [`super::lu_leaf`] for `f64` and `f32` on
//! the two `simd` tiers: the same strip loop as the generic body, with
//! every pass down a column — the pivot search, the scaling, the in-strip
//! update and the strip update — on whole registers, and the last rows of
//! a column in masked loads and stores. The compiler's own loops need 32
//! rows before their vector body runs on the AVX-512 tier, so the short
//! columns of a panel ran in their scalar epilogue.
//!
//! Written once over [`Lanes`], which `Reg<true>` (`zmm`) and `Reg<false>`
//! (`ymm`) implement for both real types. Every element takes the generic
//! body's subtractions in its order, each product rounded before its
//! subtraction (no fused multiply-add), and the search returns
//! [`crate::l1::iamax`]'s index, so factors, pivots and `info` are the
//! generic body's bits on either tier.

use std::any::Any;
use std::arch::x86_64::*;

use la_core::{RealScalar, Scalar};

use super::{divide_by, STRIP, TILE_COLS};
use crate::kernel::reciprocal_is_safe;

/// A tier's vector registers: `zmm` (AVX-512F) when `ZMM`, `ymm`
/// (AVX2+FMA) otherwise. Only [`body`] hands one out, after the tier
/// selector of [`crate::kernel`] has checked the CPU, which is what makes
/// the `target_feature` calls behind [`LuBody`] sound.
pub(super) struct Reg<const ZMM: bool>;

/// One register of `T` lanes on a tier, with the operations the LU leaf
/// needs.
///
/// # Safety
/// Every method needs the tier's CPU features: AVX-512F for `Reg<true>`,
/// AVX2 and FMA for `Reg<false>`. A pointer must be valid for the `W` lanes
/// `load` / `store` access, or for the lanes a mask selects.
trait Lanes<T> {
    /// The register.
    type V: Copy;
    /// A mask selecting the first lanes.
    type M: Copy;
    /// Lanes per register.
    const W: usize;
    unsafe fn splat(x: T) -> Self::V;
    unsafe fn load(p: *const T) -> Self::V;
    unsafe fn store(p: *mut T, v: Self::V);
    /// The first `n < W` lanes.
    unsafe fn head(n: usize) -> Self::M;
    /// The lanes `k` selects from `p` (only those are read), zero elsewhere.
    unsafe fn load_head(p: *const T, k: Self::M) -> Self::V;
    /// Writes the lanes `k` selects to `p`, and nothing else.
    unsafe fn store_head(p: *mut T, k: Self::M, v: Self::V);
    /// The lanes of `v` that `k` selects, zero elsewhere.
    unsafe fn keep(k: Self::M, v: Self::V) -> Self::V;
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn sub(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn mul(a: Self::V, b: Self::V) -> Self::V;
    unsafe fn max(a: Self::V, b: Self::V) -> Self::V;
    /// `|x|` (the sign bit cleared).
    unsafe fn abs(a: Self::V) -> Self::V;
    /// The largest lane of a register with no NaN.
    unsafe fn hmax(a: Self::V) -> T;
    /// Bit `l` set where lane `l` of `a` equals that of `b`.
    unsafe fn eq_bits(a: Self::V, b: Self::V) -> u32;
    /// Bit `l` set where lane `l` is NaN.
    unsafe fn nan_bits(a: Self::V) -> u32;
}

/// `Lanes<$t>` for `$reg`, every method `#[inline]` and compiled for the
/// tier's features: the plain operations are the named intrinsics, the
/// others the given expressions.
macro_rules! lanes {
    ($reg:ty, $t:ty, $feat:literal, V = $v:ty, M = $m:ty, W = $w:expr,
     splat = $splat:path, load = $load:path, store = $store:path,
     add = $add:path, sub = $sub:path, mul = $mul:path, max = $max:path,
     head = |$n:ident| $head:expr,
     load_head = |$lp:ident, $lk:ident| $load_head:expr,
     store_head = |$sp:ident, $sk:ident, $sv:ident| $store_head:expr,
     keep = |$kk:ident, $kv:ident| $keep:expr,
     abs = |$aa:ident| $abs:expr,
     hmax = |$ha:ident| $hmax:expr,
     eq_bits = |$ea:ident, $eb:ident| $eq_bits:expr,
     nan_bits = |$na:ident| $nan_bits:expr $(,)?) => {
        impl Lanes<$t> for $reg {
            type V = $v;
            type M = $m;
            const W: usize = $w;
            lanes!(@ $feat; splat(x: $t) -> $v { $splat(x) });
            lanes!(@ $feat; load(p: *const $t) -> $v { $load(p) });
            lanes!(@ $feat; store(p: *mut $t, v: $v) -> () { $store(p, v) });
            lanes!(@ $feat; head($n: usize) -> $m { $head });
            lanes!(@ $feat; load_head($lp: *const $t, $lk: $m) -> $v { $load_head });
            lanes!(@ $feat; store_head($sp: *mut $t, $sk: $m, $sv: $v) -> () { $store_head });
            lanes!(@ $feat; keep($kk: $m, $kv: $v) -> $v { $keep });
            lanes!(@ $feat; add(a: $v, b: $v) -> $v { $add(a, b) });
            lanes!(@ $feat; sub(a: $v, b: $v) -> $v { $sub(a, b) });
            lanes!(@ $feat; mul(a: $v, b: $v) -> $v { $mul(a, b) });
            lanes!(@ $feat; max(a: $v, b: $v) -> $v { $max(a, b) });
            lanes!(@ $feat; abs($aa: $v) -> $v { $abs });
            lanes!(@ $feat; hmax($ha: $v) -> $t { $hmax });
            lanes!(@ $feat; eq_bits($ea: $v, $eb: $v) -> u32 { $eq_bits as u32 });
            lanes!(@ $feat; nan_bits($na: $v) -> u32 { $nan_bits as u32 });
        }
    };
    (@ $feat:literal; $name:ident($($arg:ident: $ty:ty),*) -> $ret:ty { $body:expr }) => {
        #[inline]
        #[target_feature(enable = $feat)]
        unsafe fn $name($($arg: $ty),*) -> $ret {
            $body
        }
    };
}

lanes! {
    Reg<true>, f64, "avx512f", V = __m512d, M = __mmask8, W = 8,
    splat = _mm512_set1_pd, load = _mm512_loadu_pd, store = _mm512_storeu_pd,
    add = _mm512_add_pd, sub = _mm512_sub_pd, mul = _mm512_mul_pd, max = _mm512_max_pd,
    head = |n| ((1u32 << n) - 1) as __mmask8,
    load_head = |p, k| _mm512_maskz_loadu_pd(k, p),
    store_head = |p, k, v| _mm512_mask_storeu_pd(p, k, v),
    keep = |k, v| _mm512_maskz_mov_pd(k, v),
    abs = |a| _mm512_abs_pd(a),
    hmax = |a| _mm512_reduce_max_pd(a),
    eq_bits = |a, b| _mm512_cmp_pd_mask::<_CMP_EQ_OQ>(a, b),
    nan_bits = |a| _mm512_cmp_pd_mask::<_CMP_UNORD_Q>(a, a),
}

lanes! {
    Reg<true>, f32, "avx512f", V = __m512, M = __mmask16, W = 16,
    splat = _mm512_set1_ps, load = _mm512_loadu_ps, store = _mm512_storeu_ps,
    add = _mm512_add_ps, sub = _mm512_sub_ps, mul = _mm512_mul_ps, max = _mm512_max_ps,
    head = |n| ((1u32 << n) - 1) as __mmask16,
    load_head = |p, k| _mm512_maskz_loadu_ps(k, p),
    store_head = |p, k, v| _mm512_mask_storeu_ps(p, k, v),
    keep = |k, v| _mm512_maskz_mov_ps(k, v),
    abs = |a| _mm512_abs_ps(a),
    hmax = |a| _mm512_reduce_max_ps(a),
    eq_bits = |a, b| _mm512_cmp_ps_mask::<_CMP_EQ_OQ>(a, b),
    nan_bits = |a| _mm512_cmp_ps_mask::<_CMP_UNORD_Q>(a, a),
}

// AVX2 masks are whole registers, all ones in the selected lanes.
lanes! {
    Reg<false>, f64, "avx2,fma", V = __m256d, M = __m256i, W = 4,
    splat = _mm256_set1_pd, load = _mm256_loadu_pd, store = _mm256_storeu_pd,
    add = _mm256_add_pd, sub = _mm256_sub_pd, mul = _mm256_mul_pd, max = _mm256_max_pd,
    head = |n| _mm256_cmpgt_epi64(_mm256_set1_epi64x(n as i64), _mm256_setr_epi64x(0, 1, 2, 3)),
    load_head = |p, k| _mm256_maskload_pd(p, k),
    store_head = |p, k, v| _mm256_maskstore_pd(p, k, v),
    keep = |k, v| _mm256_and_pd(v, _mm256_castsi256_pd(k)),
    abs = |a| _mm256_andnot_pd(_mm256_set1_pd(-0.0), a),
    hmax = |a| {
        let m = _mm_max_pd(_mm256_castpd256_pd128(a), _mm256_extractf128_pd::<1>(a));
        _mm_cvtsd_f64(_mm_max_pd(m, _mm_unpackhi_pd(m, m)))
    },
    eq_bits = |a, b| _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_EQ_OQ>(a, b)),
    nan_bits = |a| _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_UNORD_Q>(a, a)),
}

lanes! {
    Reg<false>, f32, "avx2,fma", V = __m256, M = __m256i, W = 8,
    splat = _mm256_set1_ps, load = _mm256_loadu_ps, store = _mm256_storeu_ps,
    add = _mm256_add_ps, sub = _mm256_sub_ps, mul = _mm256_mul_ps, max = _mm256_max_ps,
    head = |n| {
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(n as i32), lanes)
    },
    load_head = |p, k| _mm256_maskload_ps(p, k),
    store_head = |p, k, v| _mm256_maskstore_ps(p, k, v),
    keep = |k, v| _mm256_and_ps(v, _mm256_castsi256_ps(k)),
    abs = |a| _mm256_andnot_ps(_mm256_set1_ps(-0.0), a),
    hmax = |a| {
        let m = _mm_max_ps(_mm256_castps256_ps128(a), _mm256_extractf128_ps::<1>(a));
        let m = _mm_max_ps(m, _mm_movehl_ps(m, m));
        _mm_cvtss_f32(_mm_max_ps(m, _mm_shuffle_ps::<1>(m, m)))
    },
    eq_bits = |a, b| _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_EQ_OQ>(a, b)),
    nan_bits = |a| _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_UNORD_Q>(a, a)),
}

/// [`super::lu_leaf`] on one tier's registers.
pub(super) trait LuBody<T>: Sync {
    /// `lu_leaf(m, n, a, lda, ipiv)`.
    fn lu(&self, m: usize, n: usize, a: &mut [T], lda: usize, ipiv: &mut [i32]) -> i32;
}

impl<T: RealScalar> LuBody<T> for Reg<true>
where
    Reg<true>: Lanes<T>,
{
    fn lu(&self, m: usize, n: usize, a: &mut [T], lda: usize, ipiv: &mut [i32]) -> i32 {
        // SAFETY: only `body` hands out a `Reg<true>`, and only on a host
        // that has AVX-512F.
        unsafe { lu_zmm(m, n, a, lda, ipiv) }
    }
}

impl<T: RealScalar> LuBody<T> for Reg<false>
where
    Reg<false>: Lanes<T>,
{
    fn lu(&self, m: usize, n: usize, a: &mut [T], lda: usize, ipiv: &mut [i32]) -> i32 {
        // SAFETY: only `body` hands out a `Reg<false>`, and only on a host
        // that has AVX2 and FMA.
        unsafe { lu_ymm(m, n, a, lda, ipiv) }
    }
}

/// [`lu`] on `zmm` registers.
///
/// # Safety
/// The host must have AVX-512F.
#[target_feature(enable = "avx512f")]
unsafe fn lu_zmm<T: RealScalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    ipiv: &mut [i32],
) -> i32
where
    Reg<true>: Lanes<T>,
{
    lu::<T, Reg<true>>(m, n, a, lda, ipiv)
}

/// [`lu`] on `ymm` registers.
///
/// # Safety
/// The host must have AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn lu_ymm<T: RealScalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    ipiv: &mut [i32],
) -> i32
where
    Reg<false>: Lanes<T>,
{
    lu::<T, Reg<false>>(m, n, a, lda, ipiv)
}

/// The vector body [`super::lu_leaf`] runs for `T` on this thread: `f64`
/// and `f32` on the tier the leaves' selector picks (`zmm` for AVX-512F,
/// `ymm` for AVX2+FMA); `None` for complex `T` and the generic build.
pub(super) fn body<T: Scalar>() -> Option<&'static dyn LuBody<T>> {
    if T::IS_COMPLEX {
        return None;
    }
    if crate::kernel::leaf_tier()? {
        real::<T, true>()
    } else {
        real::<T, false>()
    }
}

/// `Reg<ZMM>` as `T`'s body when `T` is `f64` or `f32`.
fn real<T: Scalar, const ZMM: bool>() -> Option<&'static dyn LuBody<T>>
where
    Reg<ZMM>: LuBody<f64> + LuBody<f32>,
{
    let d: &'static dyn LuBody<f64> = &Reg::<ZMM>;
    let s: &'static dyn LuBody<f32> = &Reg::<ZMM>;
    // A downcast succeeds exactly when `T` is that body's type.
    (&d as &dyn Any)
        .downcast_ref::<&'static dyn LuBody<T>>()
        .or_else(|| (&s as &dyn Any).downcast_ref())
        .copied()
}

/// The panel as a raw pointer and the length of the slice it came from;
/// every access asks for its extent, which is checked in debug builds.
#[derive(Clone, Copy)]
struct Panel<T> {
    p: *mut T,
    len: usize,
    lda: usize,
}

impl<T> Panel<T> {
    /// Element `(i, k)`, with `count` elements from there to be accessed.
    ///
    /// # Safety
    /// `i + k·lda + count ≤ len`.
    #[inline(always)]
    unsafe fn at(self, i: usize, k: usize, count: usize) -> *mut T {
        let off = i + k * self.lda;
        debug_assert!(off + count <= self.len, "panel access out of bounds");
        self.p.add(off)
    }
}

/// The strip loop of [`super::lu_leaf`] (see its generic body) with every
/// column pass on `S`'s registers.
///
/// # Safety
/// `S`'s tier features must be available.
#[inline(always)]
unsafe fn lu<T: RealScalar, S: Lanes<T>>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    ipiv: &mut [i32],
) -> i32 {
    if m == 0 || n == 0 {
        return 0;
    }
    // Every access below lies in rows `0..m` of columns `0..n`, so within
    // `(n − 1)·lda + m` elements (computed without wrapping).
    let extent = (n - 1).checked_mul(lda).and_then(|e| e.checked_add(m));
    assert!(
        m <= lda && extent.is_some_and(|e| e <= a.len()),
        "panel exceeds a"
    );
    let mn = m.min(n);
    let ipiv = &mut ipiv[..mn];
    let a = Panel {
        p: a.as_mut_ptr(),
        len: a.len(),
        lda,
    };
    let mut info = 0i32;
    let mut u = [T::zero(); STRIP * TILE_COLS];
    for j0 in (0..mn).step_by(STRIP) {
        let end = (j0 + STRIP).min(mn);
        // The first pass of the next pivot's search, when the in-strip
        // update of its column has made it.
        let mut next = None;
        for j in j0..end {
            let below = m - j - 1;
            let x = a.at(j, j, m - j);
            let p = j + match next.take() {
                Some(acc) => pick::<T, S>(x, m - j, acc),
                None => search::<T, S>(x, m - j),
            };
            ipiv[j] = (p + 1) as i32;
            if !(*a.at(p, j, 1)).is_zero() {
                if p != j {
                    for k in 0..n {
                        std::ptr::swap(a.at(j, k, 1), a.at(p, k, 1));
                    }
                }
                let pivot = *a.at(j, j, 1);
                let l = a.at(j + 1, j, below);
                if reciprocal_is_safe(pivot) {
                    scale::<T, S>(l, below, pivot.recip());
                } else {
                    divide_by(std::slice::from_raw_parts_mut(l, below), pivot);
                }
            } else if info == 0 {
                info = (j + 1) as i32;
            }
            if below > 0 {
                let l = a.at(j + 1, j, below);
                for k in j + 1..end {
                    let ajk = *a.at(j, k, 1);
                    if ajk.is_zero() {
                        continue;
                    }
                    let y = a.at(j + 1, k, below);
                    if k == j + 1 {
                        next = Some(fold::<T, S, 1, true>(l, lda, [ajk], y, below));
                    } else {
                        fold::<T, S, 1, false>(l, lda, [ajk], y, below);
                    }
                }
            }
        }
        apply_pivots::<T, S>(m, n, a, j0, end - j0, &mut u);
    }
    info
}

/// The generic `apply_pivots` for pivot columns `j0..j0 + d` and every
/// column right of them: per tile of [`TILE_COLS`] columns, the `d × d`
/// unit-lower solve on the pivots' rows stages `U` in `u`, then the rows
/// below take the strip in one pass per column (two columns per pass when
/// both have `STRIP` nonzero coefficients). A zero `u` skips its term.
///
/// # Safety
/// As [`lu`], whose checks cover `a`'s rows `0..m`, columns `0..n`.
#[inline(always)]
unsafe fn apply_pivots<T: RealScalar, S: Lanes<T>>(
    m: usize,
    n: usize,
    a: Panel<T>,
    j0: usize,
    d: usize,
    u: &mut [T; STRIP * TILE_COLS],
) {
    let first = j0 + d;
    let below = m - first.min(m);
    for c0 in (first..n).step_by(TILE_COLS) {
        let nc = TILE_COLS.min(n - c0);
        for (c, uc) in u.chunks_exact_mut(STRIP).take(nc).enumerate() {
            let col = a.at(j0, c0 + c, d);
            for r in 0..d {
                uc[r] = *col.add(r);
                if !uc[r].is_zero() {
                    let l = a.at(j0, j0 + r, d);
                    for s in r + 1..d {
                        *col.add(s) -= *l.add(s) * uc[r];
                    }
                }
            }
        }
        if below == 0 {
            continue;
        }
        let l = a.at(first, j0, (d - 1) * a.lda + below);
        // A full strip without a zero coefficient folds in one pass.
        let full = |x: &[T]| d == STRIP && x.iter().all(|t| !t.is_zero());
        let mut c = 0;
        while c < nc {
            let x = &u[c * STRIP..c * STRIP + d];
            let y = a.at(first, c0 + c, below);
            if c + 1 < nc {
                let x1 = &u[(c + 1) * STRIP..(c + 1) * STRIP + d];
                if full(x) && full(x1) {
                    let ys = (y, a.at(first, c0 + c + 1, below));
                    fold_pair::<T, S, STRIP>(l, a.lda, (coef(x), coef(x1)), ys, below);
                    c += 2;
                    continue;
                }
            }
            if full(x) {
                fold::<T, S, STRIP, false>(l, a.lda, coef(x), y, below);
            } else {
                for (r, &t) in x.iter().enumerate() {
                    if !t.is_zero() {
                        fold::<T, S, 1, false>(l.add(r * a.lda), a.lda, [t], y, below);
                    }
                }
            }
            c += 1;
        }
    }
}

/// The first [`STRIP`] coefficients of `x` as an array.
#[inline(always)]
fn coef<T: Copy>(x: &[T]) -> [T; STRIP] {
    std::array::from_fn(|l| x[l])
}

/// The index of the first largest `|x|` of the `len ≥ 1` elements at `x`,
/// or of the first NaN if there is one — [`crate::l1::iamax`]'s answer in
/// every case (all zeros: 0): [`pick`] on [`moduli`].
///
/// # Safety
/// As [`lu`]; `x` is valid for `len` reads.
#[inline(always)]
unsafe fn search<T: RealScalar, S: Lanes<T>>(x: *const T, len: usize) -> usize {
    pick::<T, S>(x, len, moduli::<T, S>(x, len))
}

/// The lane-wise largest modulus and the lane-wise sum of the moduli of the
/// `len` elements at `x` (the first pass of [`search`]).
///
/// # Safety
/// As [`search`].
#[inline(always)]
unsafe fn moduli<T: RealScalar, S: Lanes<T>>(x: *const T, len: usize) -> (S::V, S::V) {
    let (full, rest) = (len - len % S::W, len % S::W);
    let mut acc = (S::splat(T::zero()), S::splat(T::zero()));
    let mut i = 0;
    while i < full {
        acc = add_moduli::<T, S>(acc, S::load(x.add(i)));
        i += S::W;
    }
    if rest > 0 {
        // Masked-off lanes read as 0: they move neither the maximum nor the
        // sum.
        acc = add_moduli::<T, S>(acc, rows::<T, S>(x.add(full), Some(rest)));
    }
    acc
}

/// `(top, sum)` with `|v|` taken in: the lane-wise largest and sum.
///
/// # Safety
/// As [`Lanes`].
#[inline(always)]
unsafe fn add_moduli<T: RealScalar, S: Lanes<T>>(
    (top, sum): (S::V, S::V),
    v: S::V,
) -> (S::V, S::V) {
    let v = S::abs(v);
    (S::max(top, v), S::add(sum, v))
}

/// The second pass of [`search`], from the first's `(top, sum)`: the moduli
/// are not negative, so a lane of `sum` is NaN exactly when one of its terms
/// is; then the first NaN is the answer, else the first element whose
/// modulus is the largest of `top`.
///
/// # Safety
/// As [`search`].
#[inline(always)]
unsafe fn pick<T: RealScalar, S: Lanes<T>>(
    x: *const T,
    len: usize,
    (top, sum): (S::V, S::V),
) -> usize {
    if S::nan_bits(sum) != 0 {
        // (`first` ignores its third argument when it looks for NaNs.)
        return first::<T, S, true>(x, len, sum);
    }
    first::<T, S, false>(x, len, S::splat(S::hmax(top)))
}

/// The index of the first of the `len` elements at `x` that is NaN
/// (`NAN`) or whose modulus equals `max`'s lanes; `len` when none is. The
/// registers are read last to first, keeping the last hit: a fixed trip
/// count and a select, no branch on where the element lies (a pivot search
/// meets a new column every time, so such a branch would miss about once
/// per call).
///
/// # Safety
/// As [`search`].
#[inline(always)]
unsafe fn first<T: RealScalar, S: Lanes<T>, const NAN: bool>(
    x: *const T,
    len: usize,
    max: S::V,
) -> usize {
    let hits = |v: S::V| {
        if NAN {
            S::nan_bits(v)
        } else {
            S::eq_bits(S::abs(v), max)
        }
    };
    let (full, rest) = (len - len % S::W, len % S::W);
    let mut arg = len;
    if rest > 0 {
        // Only the first `rest` lanes of the tail are elements; no hit
        // counts 32 trailing zeros, past `len`.
        let b = hits(rows::<T, S>(x.add(full), Some(rest))) & ((1u32 << rest) - 1);
        arg = (full + b.trailing_zeros() as usize).min(len);
    }
    let mut i = full;
    while i > 0 {
        i -= S::W;
        let b = hits(S::load(x.add(i)));
        arg = if b != 0 {
            i + b.trailing_zeros() as usize
        } else {
            arg
        };
    }
    arg
}

/// The register of rows at `p`: all `W` of them, or only the first `rest`
/// (the rest read as zero and not touched).
///
/// # Safety
/// As [`lu`]; `p` is valid for `W` reads, or `rest < W` with `Some(rest)`.
#[inline(always)]
unsafe fn rows<T, S: Lanes<T>>(p: *const T, rest: Option<usize>) -> S::V {
    match rest {
        None => S::load(p),
        Some(rest) => {
            debug_assert!(rest < S::W, "a masked load of a full register");
            S::load_head(p, S::head(rest))
        }
    }
}

/// Writes the register of rows at `p`, all `W` or the first `rest`.
///
/// # Safety
/// As [`rows`], for writes.
#[inline(always)]
unsafe fn put<T, S: Lanes<T>>(p: *mut T, rest: Option<usize>, v: S::V) {
    match rest {
        None => S::store(p, v),
        Some(rest) => {
            debug_assert!(rest < S::W, "a masked store of a full register");
            S::store_head(p, S::head(rest), v)
        }
    }
}

/// `x := x·s` on the `len` elements at `x`.
///
/// # Safety
/// As [`lu`]; `x` is valid for `len` reads and writes.
#[inline(always)]
unsafe fn scale<T: RealScalar, S: Lanes<T>>(x: *mut T, len: usize, s: T) {
    let (full, rest) = (len - len % S::W, len % S::W);
    let s = S::splat(s);
    let mut i = 0;
    while i < full {
        put::<T, S>(x.add(i), None, S::mul(rows::<T, S>(x.add(i), None), s));
        i += S::W;
    }
    if rest > 0 {
        let p = x.add(full);
        put::<T, S>(p, Some(rest), S::mul(rows::<T, S>(p, Some(rest)), s));
    }
}

/// One pass `y := (…(y − a₀x₀) − …) − a_{G−1}x_{G−1}` over `len` rows,
/// column `l` of `A` at `a + l·lda`: the generic `fold`'s operations in its
/// order. With `TOP` it also returns [`moduli`] of the new `y` — the first
/// pass of the search that takes `y` next, without reading it again — and
/// else two zero registers.
///
/// # Safety
/// As [`lu`]; the `G` columns of `A` are valid for `len` reads, `y` for
/// `len` reads and writes.
#[inline(always)]
unsafe fn fold<T: RealScalar, S: Lanes<T>, const G: usize, const TOP: bool>(
    a: *const T,
    lda: usize,
    x: [T; G],
    y: *mut T,
    len: usize,
) -> (S::V, S::V) {
    let (full, rest) = (len - len % S::W, len % S::W);
    let x: [S::V; G] = std::array::from_fn(|l| S::splat(x[l]));
    let mut acc = (S::splat(T::zero()), S::splat(T::zero()));
    let mut i = 0;
    while i < full {
        let v = fold_rows::<T, S, G>(a.add(i), lda, &x, y.add(i), None);
        if TOP {
            acc = add_moduli::<T, S>(acc, v);
        }
        i += S::W;
    }
    if rest > 0 {
        let v = fold_rows::<T, S, G>(a.add(full), lda, &x, y.add(full), Some(rest));
        if TOP {
            // The lanes past the column hold 0 − 0·x, NaN for an infinite x.
            acc = add_moduli::<T, S>(acc, S::keep(S::head(rest), v));
        }
    }
    acc
}

/// [`fold`] on one register of rows (see [`rows`]); returns the new rows.
///
/// # Safety
/// As [`rows`] for `y` and the `G` columns of `A` at `a + l·lda`.
#[inline(always)]
unsafe fn fold_rows<T: RealScalar, S: Lanes<T>, const G: usize>(
    a: *const T,
    lda: usize,
    x: &[S::V; G],
    y: *mut T,
    rest: Option<usize>,
) -> S::V {
    let mut v = rows::<T, S>(y, rest);
    for (l, &xl) in x.iter().enumerate() {
        v = S::sub(v, S::mul(rows::<T, S>(a.add(l * lda), rest), xl));
    }
    put::<T, S>(y, rest, v);
    v
}

/// [`fold`] on two columns `y₀`, `y₁` with their own coefficients, in one
/// pass over the rows of `A` (each load of `A` serves both).
///
/// # Safety
/// As [`fold`], for both columns.
#[inline(always)]
unsafe fn fold_pair<T: RealScalar, S: Lanes<T>, const G: usize>(
    a: *const T,
    lda: usize,
    (x0, x1): ([T; G], [T; G]),
    (y0, y1): (*mut T, *mut T),
    len: usize,
) {
    let (full, rest) = (len - len % S::W, len % S::W);
    let x0: [S::V; G] = std::array::from_fn(|l| S::splat(x0[l]));
    let x1: [S::V; G] = std::array::from_fn(|l| S::splat(x1[l]));
    let mut i = 0;
    while i < full {
        pair_rows::<T, S, G>(a.add(i), lda, (&x0, &x1), (y0.add(i), y1.add(i)), None);
        i += S::W;
    }
    if rest > 0 {
        let ys = (y0.add(full), y1.add(full));
        pair_rows::<T, S, G>(a.add(full), lda, (&x0, &x1), ys, Some(rest));
    }
}

/// [`fold_pair`] on one register of rows (see [`rows`]).
///
/// # Safety
/// As [`fold_rows`], for both columns.
#[inline(always)]
unsafe fn pair_rows<T: RealScalar, S: Lanes<T>, const G: usize>(
    a: *const T,
    lda: usize,
    (x0, x1): (&[S::V; G], &[S::V; G]),
    (y0, y1): (*mut T, *mut T),
    rest: Option<usize>,
) {
    let (mut v0, mut v1) = (rows::<T, S>(y0, rest), rows::<T, S>(y1, rest));
    for l in 0..G {
        let al = rows::<T, S>(a.add(l * lda), rest);
        v0 = S::sub(v0, S::mul(al, x0[l]));
        v1 = S::sub(v1, S::mul(al, x1[l]));
    }
    put::<T, S>(y0, rest, v0);
    put::<T, S>(y1, rest, v1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`search`] on `zmm` registers.
    ///
    /// # Safety
    /// The host must have AVX-512F.
    #[target_feature(enable = "avx512f")]
    unsafe fn search_zmm<T: RealScalar>(x: &[T]) -> usize
    where
        Reg<true>: Lanes<T>,
    {
        search::<T, Reg<true>>(x.as_ptr(), x.len())
    }

    /// [`search`] on `ymm` registers.
    ///
    /// # Safety
    /// The host must have AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn search_ymm<T: RealScalar>(x: &[T]) -> usize
    where
        Reg<false>: Lanes<T>,
    {
        search::<T, Reg<false>>(x.as_ptr(), x.len())
    }

    /// The vector search returns `l1::iamax`'s index on every tier the host
    /// runs, at every tail length of both registers: values with one
    /// maximum, exact ties (the first wins, either sign), a NaN anywhere
    /// (the first wins, even before a larger value or an Inf), ±Inf, ±0 and
    /// all zeros. The elements past the vector are NaN: a read of one would
    /// show.
    fn search_is_iamax<T: RealScalar>()
    where
        Reg<true>: Lanes<T>,
        Reg<false>: Lanes<T>,
    {
        let zmm = std::arch::is_x86_feature_detected!("avx512f");
        let ymm = crate::kernel::host_has_avx2_fma();
        let nan = T::nan();
        let inf = T::one() / T::zero();
        let f = |v: f64| T::from_f64(v);
        for len in (1..=64).chain(95..=97) {
            let base: Vec<T> = (0..len)
                .map(|i| f(((i * 37 + 11) % 101) as f64 / 50.5 - 1.0))
                .collect();
            let mut cases: Vec<(String, Vec<T>)> = vec![
                ("values".into(), base.clone()),
                ("zeros".into(), vec![T::zero(); len]),
                (
                    "signed zeros".into(),
                    (0..len)
                        .map(|i| if i % 2 == 0 { -T::zero() } else { T::zero() })
                        .collect(),
                ),
            ];
            for at in [0, len / 3, len / 2, len - 1] {
                let mut x = base.clone();
                x[at] = f(-7.0);
                x[len - 1 - at / 2] = f(7.0);
                cases.push((format!("tie {at}"), x.clone()));
                x[at] = inf;
                cases.push((format!("inf {at}"), x.clone()));
                x[len - 1] = -inf;
                cases.push((format!("-inf {at}"), x.clone()));
                let mut x = base.clone();
                x[len - 1] = inf;
                x[at] = nan;
                cases.push((format!("nan {at}"), x.clone()));
                x[len / 2] = nan;
                cases.push((format!("two nans {at}"), x));
                let mut x = vec![T::zero(); len];
                x[at] = -T::zero();
                x[len - 1 - at / 2] = f(1e-300);
                cases.push((format!("tiny {at}"), x));
            }
            for (what, x) in cases {
                let want = crate::l1::iamax(len, &x, 1);
                let mut buf = x.clone();
                buf.extend(std::iter::repeat_n(nan, 16));
                let x = &buf[..len];
                let tag = format!("{} len={len} {what}", T::PREFIX);
                if zmm {
                    // SAFETY: the host has AVX-512F.
                    assert_eq!(unsafe { search_zmm(x) }, want, "zmm {tag}");
                }
                if ymm {
                    // SAFETY: the host has AVX2 and FMA.
                    assert_eq!(unsafe { search_ymm(x) }, want, "ymm {tag}");
                }
            }
        }
    }

    /// The entry refuses a slice shorter than the panel, or `lda < m`,
    /// before it takes a pointer, on each tier the host runs.
    #[test]
    fn the_entry_refuses_a_panel_past_the_slice() {
        // Whether `lu_leaf(m, 4, a, lda)` on `len` elements panics; `None`
        // without a vector body on this tier.
        let refused = |m: usize, len: usize, lda: usize| {
            let body = body::<f64>()?;
            let (mut a, mut ipiv) = (vec![1.0f64; len], [0i32; 4]);
            let run = || body.lu(m, 4, &mut a, lda, &mut ipiv);
            Some(std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).is_err())
        };
        for narrow in [false, true] {
            let pin = |m, len, lda| {
                let f = || refused(m, len, lda);
                if narrow {
                    crate::kernel::with_narrow_simd(f)
                } else {
                    f()
                }
            };
            if pin(4, 16, 4).is_none() {
                continue;
            }
            assert_eq!(pin(4, 16, 4), Some(false), "a 4 × 4 panel fits 16");
            assert_eq!(pin(4, 15, 4), Some(true), "one element short");
            assert_eq!(pin(4, 16, 3), Some(true), "lda < m");
        }
    }

    #[test]
    fn search_is_iamax_on_every_tier() {
        search_is_iamax::<f64>();
        search_is_iamax::<f32>();
    }
}
