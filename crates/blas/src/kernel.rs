//! Register-tiled microkernels for the packed BLAS-3 path.
//!
//! The packed gemm in [`crate::l3`] copies operand panels into contiguous
//! buffers ([`crate::pack`]) and then drives one of the microkernels
//! defined here over MR×NR tiles — the BLASFEO structure: the cache
//! blocking lives outside the kernel, the kernel sees full, zero-padded
//! micro-panels, and the kernel *owns its C tile*: it accumulates the
//! product in registers from zero, adds it into `C` once and masks ragged
//! edges itself, so a rank-32 update pays no scratch round trip per tile.
//!
//! Three interchangeable implementations sit behind the [`MicroKernel`]
//! trait, selected through the `LA_GEMM_KERNEL` tune knob
//! ([`la_core::tune::GemmKernel`]):
//!
//! * [`RefKernel`] — the reference triple loop. Slow; the bitwise ground
//!   truth the equivalence tests compare everything against.
//! * [`Unrolled`] — an explicitly unrolled register tile, generic over the
//!   scalar type. Performs the *same additions in the same order* as
//!   `RefKernel`, so the two are bitwise identical.
//! * the `simd` kernels — x86-64 AVX2+FMA vectorized tiles, one per real
//!   type (behind the `simd` cargo feature). FMA contracts the
//!   multiply-add rounding, so their results differ from the scalar
//!   kernels by a few ulps. [`kernel_for`] picks them once per
//!   [`PackedPlan`], after checking the scalar type and the CPU; complex
//!   types and other hosts get the unrolled kernel, so selecting `simd`
//!   is always safe and nothing is re-tested per tile.
//!
//! Every kernel for a given scalar type shares the same tile shape
//! ([`tile_dims`]), so the packed-panel layout — and therefore the
//! summation *grouping* — is identical across kernels.
//!
//! The triangular solve sweep (`l3::trsm_left_cols`) drives the same `tile`
//! method and adds no kernel code: its in-tile substitution is one
//! function generic over the tile shape (`solve_tile`), shared by all three
//! kernels.

use la_core::tune::GemmKernel;
use la_core::Scalar;

/// Largest `MR·NR` over all tile shapes in [`tile_dims`]; sizes the stack
/// tile of [`via_stack_tile`].
const MAX_TILE: usize = 64;

/// The microkernel tile shape `(MR, NR)` for a scalar type. One shape per
/// type, shared by every kernel variant so the packed layout is
/// kernel-independent: `f32` 16×4, `f64` 8×4 (two/two AVX vectors of rows
/// by four broadcast columns), complex types 4×2.
pub fn tile_dims<T: Scalar>() -> (usize, usize) {
    if T::IS_COMPLEX {
        (4, 2)
    } else if std::mem::size_of::<T>() == 4 {
        (16, 4)
    } else {
        (8, 4)
    }
}

/// A register-tiled microkernel: accumulates one tile of `op(A)·op(B)`
/// from packed micro-panels into `C`.
pub trait MicroKernel<T: Scalar>: Sync {
    /// Name recorded in probe spans (`"scalar"`, `"unrolled"`, `"simd"`).
    fn name(&self) -> &'static str;
    /// Tile height (rows of C per tile).
    fn mr(&self) -> usize;
    /// Tile width (columns of C per tile).
    fn nr(&self) -> usize;
    /// `C[..rows, ..cols] += Ap·Bp` over a depth of `kb`.
    ///
    /// `ap` holds `kb` groups of `mr()` values (one A micro-panel column
    /// per depth step), `bp` holds `kb` groups of `nr()` values; both are
    /// zero-padded by the packing layer. `c` starts at the tile's top-left
    /// element and has column stride `ldc`. Each element's sum starts at
    /// zero, runs over the depth in order and is added to `C` once, so
    /// the result does not depend on where tile boundaries fall.
    ///
    /// # Panics
    /// If `rows > mr()`, `cols > nr()`, a panel is shorter than `kb`
    /// groups, or `c` holds fewer than `(cols − 1)·ldc + rows` elements —
    /// before anything is written.
    #[allow(clippy::too_many_arguments)]
    fn tile(
        &self,
        kb: usize,
        ap: &[T],
        bp: &[T],
        c: &mut [T],
        ldc: usize,
        rows: usize,
        cols: usize,
    );
}

/// The argument checks of [`MicroKernel::tile`]. Returns `false` for an
/// empty tile (nothing to do).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn check_tile<T>(
    (mr, nr): (usize, usize),
    kb: usize,
    ap: &[T],
    bp: &[T],
    c: &[T],
    ldc: usize,
    rows: usize,
    cols: usize,
) -> bool {
    assert!(
        rows <= mr && cols <= nr,
        "{rows}x{cols} tile exceeds {mr}x{nr}"
    );
    assert!(
        ap.len() >= kb * mr && bp.len() >= kb * nr,
        "packed panel shorter than kb groups"
    );
    if rows == 0 || cols == 0 {
        return false;
    }
    assert!(
        c.len() >= (cols - 1) * ldc + rows,
        "C slice too short for the tile"
    );
    true
}

/// The one masked write-back, shared by every kernel's edge tiles and by
/// [`tile_where`]: runs `full` — a full `mr × nr` accumulate — on a stack
/// tile (column stride `mr`) and adds the entries selected by `keep(r, s)`
/// into `C`.
#[inline]
fn via_stack_tile<T: Scalar>(
    (mr, nr): (usize, usize),
    c: &mut [T],
    ldc: usize,
    full: impl FnOnce(&mut [T]),
    keep: impl Fn(usize, usize) -> bool,
) {
    // −0 is the exact additive identity (+0 would turn a −0 sum into +0),
    // so after `full` the stack tile holds the kernel's sums bit for bit
    // and a masked tile adds exactly what a full one would.
    let mut tile = [-T::zero(); MAX_TILE];
    let tile = &mut tile[..mr * nr];
    full(tile);
    for s in 0..nr {
        for r in 0..mr {
            if keep(r, s) {
                c[r + s * ldc] += tile[r + s * mr];
            }
        }
    }
}

/// Runs a kernel's full-tile accumulate `full(c, ldc)` straight on `C`
/// for a full tile, and through the stack tile, masked to `rows × cols`,
/// for an edge tile.
#[inline(always)]
fn full_or_edge<T: Scalar>(
    dims: (usize, usize),
    c: &mut [T],
    ldc: usize,
    rows: usize,
    cols: usize,
    full: impl Fn(&mut [T], usize),
) {
    if (rows, cols) == dims {
        full(c, ldc);
    } else {
        via_stack_tile(
            dims,
            c,
            ldc,
            |t| full(t, dims.0),
            |r, s| r < rows && s < cols,
        );
    }
}

/// [`MicroKernel::tile`] under an arbitrary element mask: adds the tile's
/// entries `(r, s)` with `r < rows`, `s < cols` and `keep(r, s)` into `C`.
/// The triangle-masked diagonal tiles of `syrk`/`herk` go through here.
#[allow(clippy::too_many_arguments)]
pub fn tile_where<T: Scalar>(
    kern: &dyn MicroKernel<T>,
    kb: usize,
    ap: &[T],
    bp: &[T],
    c: &mut [T],
    ldc: usize,
    rows: usize,
    cols: usize,
    keep: impl Fn(usize, usize) -> bool,
) {
    let dims = (kern.mr(), kern.nr());
    if !check_tile(dims, kb, ap, bp, c, ldc, rows, cols) {
        return;
    }
    via_stack_tile(
        dims,
        c,
        ldc,
        |t| kern.tile(kb, ap, bp, t, dims.0, dims.0, dims.1),
        |r, s| r < rows && s < cols && keep(r, s),
    );
}

/// The in-tile substitution of the triangular solve sweep (`trsm`): solves
/// the `rows × cols` tile of `B` at `b` (column stride `ldb`) against one
/// packed diagonal tile, writes `X` back over it and `−X` into `xneg`.
///
/// `d` is the `mr × mr` diagonal tile of `op(A)`, one column per group of
/// `mr` (`d[k·mr + r] = op(A)(r, k)`); rows past `rows` must be the
/// identity. Only the triangle is read, and with `unit` not its diagonal.
/// `xneg` holds `rows` groups of `nr` in packed-B layout, columns past
/// `cols` zero.
pub(crate) type SolveTile<T> =
    fn(unit: bool, d: &[T], b: &mut [T], ldb: usize, rows: usize, cols: usize, xneg: &mut [T]);

/// The [`SolveTile`] for `T`'s tile shape, substituting forward (`lower`)
/// or backward.
pub(crate) fn solve_tile_for<T: Scalar>(lower: bool) -> SolveTile<T> {
    match (tile_dims::<T>(), lower) {
        ((16, 4), true) => solve_tile::<T, 16, 4, true>,
        ((16, 4), false) => solve_tile::<T, 16, 4, false>,
        ((8, 4), true) => solve_tile::<T, 8, 4, true>,
        ((8, 4), false) => solve_tile::<T, 8, 4, false>,
        (_, true) => solve_tile::<T, 4, 2, true>,
        (_, false) => solve_tile::<T, 4, 2, false>,
    }
}

/// [`SolveTile`] over one tile shape and direction. Every loop bound is a
/// constant so the substitution unrolls; the right-hand sides run across
/// the lanes of each row, and a pivot divides (no reciprocal), as `trsv`
/// does.
fn solve_tile<T: Scalar, const MR: usize, const NR: usize, const LOWER: bool>(
    unit: bool,
    d: &[T],
    b: &mut [T],
    ldb: usize,
    rows: usize,
    cols: usize,
    xneg: &mut [T],
) {
    assert!(rows <= MR && cols <= NR && rows > 0 && cols > 0);
    assert!(d.len() >= MR * MR && xneg.len() >= rows * NR);
    assert!(b.len() >= (cols - 1) * ldb + rows);
    // A full tile — all but the ragged edges of `B` — is copied in and out
    // with constant bounds too.
    let full = (rows, cols) == (MR, NR);
    // Zero right-hand sides in the rows and lanes past a ragged edge.
    let mut t = [[T::zero(); NR]; MR];
    if full {
        for s in 0..NR {
            let col = &b[s * ldb..s * ldb + MR];
            for r in 0..MR {
                t[r][s] = col[r];
            }
        }
    } else {
        for s in 0..cols {
            for r in 0..rows {
                t[r][s] = b[r + s * ldb];
            }
        }
    }
    for step in 0..MR {
        let k = if LOWER { step } else { MR - 1 - step };
        let col = &d[k * MR..k * MR + MR];
        if !unit {
            let pivot = col[k];
            for x in &mut t[k] {
                *x = *x / pivot;
            }
        }
        let xk = t[k];
        let below = if LOWER { k + 1..MR } else { 0..k };
        for r in below {
            let a = col[r];
            for s in 0..NR {
                t[r][s] -= a * xk[s];
            }
        }
    }
    if full {
        for s in 0..NR {
            let col = &mut b[s * ldb..s * ldb + MR];
            for r in 0..MR {
                col[r] = t[r][s];
            }
        }
        for (g, row) in xneg.chunks_exact_mut(NR).zip(&t) {
            for s in 0..NR {
                g[s] = -row[s];
            }
        }
    } else {
        for (r, g) in xneg.chunks_exact_mut(NR).take(rows).enumerate() {
            for s in 0..NR {
                g[s] = if s < cols { -t[r][s] } else { T::zero() };
            }
            for s in 0..cols {
                b[r + s * ldb] = t[r][s];
            }
        }
    }
}

/// Reference triple-loop microkernel: one scalar accumulator per tile
/// element, depth innermost. The ground truth for the bitwise
/// kernel-equivalence tests.
pub struct RefKernel<const MR: usize, const NR: usize>;

impl<T: Scalar, const MR: usize, const NR: usize> MicroKernel<T> for RefKernel<MR, NR> {
    fn name(&self) -> &'static str {
        "scalar"
    }
    fn mr(&self) -> usize {
        MR
    }
    fn nr(&self) -> usize {
        NR
    }
    fn tile(
        &self,
        kb: usize,
        ap: &[T],
        bp: &[T],
        c: &mut [T],
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        if !check_tile((MR, NR), kb, ap, bp, c, ldc, rows, cols) {
            return;
        }
        for s in 0..cols {
            for (r, cv) in c[s * ldc..s * ldc + rows].iter_mut().enumerate() {
                let mut sum = T::zero();
                for l in 0..kb {
                    sum += ap[l * MR + r] * bp[l * NR + s];
                }
                *cv += sum;
            }
        }
    }
}

/// Explicitly unrolled register-tiled microkernel: the whole MR×NR
/// accumulator block lives in a const-sized array the compiler keeps in
/// registers, with the depth loop outermost. Each accumulator sees the
/// same products in the same order as [`RefKernel`], so results are
/// bitwise identical.
pub struct Unrolled<const MR: usize, const NR: usize>;

impl<const MR: usize, const NR: usize> Unrolled<MR, NR> {
    /// Full-tile accumulate: `C[..MR, ..NR] += Ap·Bp`, stored straight
    /// from the register block.
    #[inline(always)]
    fn full<T: Scalar>(kb: usize, ap: &[T], bp: &[T], c: &mut [T], ldc: usize) {
        let mut acc = [[T::zero(); MR]; NR];
        for l in 0..kb {
            let av = &ap[l * MR..l * MR + MR];
            let bv = &bp[l * NR..l * NR + NR];
            for (s, cs) in acc.iter_mut().enumerate() {
                let bs = bv[s];
                for (r, cv) in cs.iter_mut().enumerate() {
                    *cv += av[r] * bs;
                }
            }
        }
        for (s, cs) in acc.iter().enumerate() {
            for (cv, &v) in c[s * ldc..s * ldc + MR].iter_mut().zip(cs) {
                *cv += v;
            }
        }
    }
}

impl<T: Scalar, const MR: usize, const NR: usize> MicroKernel<T> for Unrolled<MR, NR> {
    fn name(&self) -> &'static str {
        "unrolled"
    }
    fn mr(&self) -> usize {
        MR
    }
    fn nr(&self) -> usize {
        NR
    }
    fn tile(
        &self,
        kb: usize,
        ap: &[T],
        bp: &[T],
        c: &mut [T],
        ldc: usize,
        rows: usize,
        cols: usize,
    ) {
        if !check_tile((MR, NR), kb, ap, bp, c, ldc, rows, cols) {
            return;
        }
        full_or_edge((MR, NR), c, ldc, rows, cols, |c, ldc| {
            Self::full(kb, ap, bp, c, ldc)
        });
    }
}

/// The CPU check of the `simd` feature: everything compiled with
/// `#[target_feature(enable = "avx2,fma")]` is called only behind it (the
/// standard library caches the detection, so asking again is two loads).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn host_has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// AVX2+FMA microkernels for the real types. [`Avx`] is private to this
/// module and [`for_type`] hands it out only after the CPU check, which is
/// what makes the `target_feature` calls behind its `tile` sound.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use super::{check_tile, full_or_edge, MicroKernel, Scalar};
    use std::arch::x86_64::*;

    /// The kernel for `T` if `T` is `f64` or `f32` and the host has
    /// AVX2+FMA.
    pub(super) fn for_type<T: Scalar>() -> Option<&'static dyn MicroKernel<T>> {
        use std::any::Any;
        if !super::host_has_avx2_fma() {
            return None;
        }
        let d: &'static dyn MicroKernel<f64> = &Avx;
        let s: &'static dyn MicroKernel<f32> = &Avx;
        // A downcast succeeds exactly when `T` is that kernel's type.
        (&d as &dyn Any)
            .downcast_ref::<&'static dyn MicroKernel<T>>()
            .or_else(|| (&s as &dyn Any).downcast_ref())
            .copied()
    }

    struct Avx;

    /// A real type with a vectorized full-tile accumulate.
    trait AvxTile: Scalar {
        const DIMS: (usize, usize);
        /// `C[..MR, ..NR] += Ap·Bp`.
        ///
        /// # Safety
        /// AVX2+FMA must be available; `a` / `b` must be readable for
        /// `kb·MR` / `kb·NR` elements and `c` readable and writable for
        /// `(NR − 1)·ldc + MR`.
        unsafe fn full(kb: usize, a: *const Self, b: *const Self, c: *mut Self, ldc: usize);
    }

    impl AvxTile for f64 {
        const DIMS: (usize, usize) = (8, 4);
        unsafe fn full(kb: usize, a: *const f64, b: *const f64, c: *mut f64, ldc: usize) {
            full_f64_8x4(kb, a, b, c, ldc)
        }
    }

    impl AvxTile for f32 {
        const DIMS: (usize, usize) = (16, 4);
        unsafe fn full(kb: usize, a: *const f32, b: *const f32, c: *mut f32, ldc: usize) {
            full_f32_16x4(kb, a, b, c, ldc)
        }
    }

    /// 8×4 f64 tile: rows in two 4-lane AVX vectors, four broadcast
    /// columns — eight independent FMA accumulator registers, each
    /// loaded-added-stored into its C column at the end.
    ///
    /// # Safety
    /// See [`AvxTile::full`].
    #[target_feature(enable = "avx2,fma")]
    unsafe fn full_f64_8x4(kb: usize, a: *const f64, b: *const f64, c: *mut f64, ldc: usize) {
        let mut c0 = [_mm256_setzero_pd(); 4];
        let mut c1 = [_mm256_setzero_pd(); 4];
        for l in 0..kb {
            let a0 = _mm256_loadu_pd(a.add(l * 8));
            let a1 = _mm256_loadu_pd(a.add(l * 8 + 4));
            for s in 0..4 {
                let bv = _mm256_set1_pd(*b.add(l * 4 + s));
                c0[s] = _mm256_fmadd_pd(a0, bv, c0[s]);
                c1[s] = _mm256_fmadd_pd(a1, bv, c1[s]);
            }
        }
        for s in 0..4 {
            let p = c.add(s * ldc);
            _mm256_storeu_pd(p, _mm256_add_pd(_mm256_loadu_pd(p), c0[s]));
            _mm256_storeu_pd(p.add(4), _mm256_add_pd(_mm256_loadu_pd(p.add(4)), c1[s]));
        }
    }

    /// 16×4 f32 tile: rows in two 8-lane AVX vectors, four broadcast
    /// columns.
    ///
    /// # Safety
    /// See [`AvxTile::full`].
    #[target_feature(enable = "avx2,fma")]
    unsafe fn full_f32_16x4(kb: usize, a: *const f32, b: *const f32, c: *mut f32, ldc: usize) {
        let mut c0 = [_mm256_setzero_ps(); 4];
        let mut c1 = [_mm256_setzero_ps(); 4];
        for l in 0..kb {
            let a0 = _mm256_loadu_ps(a.add(l * 16));
            let a1 = _mm256_loadu_ps(a.add(l * 16 + 8));
            for s in 0..4 {
                let bv = _mm256_set1_ps(*b.add(l * 4 + s));
                c0[s] = _mm256_fmadd_ps(a0, bv, c0[s]);
                c1[s] = _mm256_fmadd_ps(a1, bv, c1[s]);
            }
        }
        for s in 0..4 {
            let p = c.add(s * ldc);
            _mm256_storeu_ps(p, _mm256_add_ps(_mm256_loadu_ps(p), c0[s]));
            _mm256_storeu_ps(p.add(8), _mm256_add_ps(_mm256_loadu_ps(p.add(8)), c1[s]));
        }
    }

    impl<T: AvxTile> MicroKernel<T> for Avx {
        fn name(&self) -> &'static str {
            "simd"
        }
        fn mr(&self) -> usize {
            T::DIMS.0
        }
        fn nr(&self) -> usize {
            T::DIMS.1
        }
        fn tile(
            &self,
            kb: usize,
            ap: &[T],
            bp: &[T],
            c: &mut [T],
            ldc: usize,
            rows: usize,
            cols: usize,
        ) {
            if !check_tile(T::DIMS, kb, ap, bp, c, ldc, rows, cols) {
                return;
            }
            full_or_edge(T::DIMS, c, ldc, rows, cols, |c, ldc| {
                assert!(c.len() >= (T::DIMS.1 - 1) * ldc + T::DIMS.0);
                // SAFETY: `check_tile` proved the panel lengths and the
                // line above the extent of `c`; an `Avx` exists only on a
                // host with AVX2+FMA (see `for_type`).
                unsafe { T::full(kb, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), ldc) }
            });
        }
    }
}

/// Resolves a [`GemmKernel`] selection to a concrete kernel for `T` —
/// scalar type and CPU support are decided here, once per plan. `Auto`
/// (and `Simd` without support) resolve to the fastest applicable kernel;
/// the returned reference is a promoted ZST.
pub fn kernel_for<T: Scalar>(sel: GemmKernel) -> &'static dyn MicroKernel<T> {
    match sel {
        GemmKernel::Scalar => match tile_dims::<T>() {
            (16, 4) => &RefKernel::<16, 4>,
            (8, 4) => &RefKernel::<8, 4>,
            _ => &RefKernel::<4, 2>,
        },
        GemmKernel::Unrolled => unrolled_for::<T>(),
        GemmKernel::Simd | GemmKernel::Auto => {
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            if let Some(k) = simd::for_type::<T>() {
                return k;
            }
            unrolled_for::<T>()
        }
    }
}

fn unrolled_for<T: Scalar>() -> &'static dyn MicroKernel<T> {
    match tile_dims::<T>() {
        (16, 4) => &Unrolled::<16, 4>,
        (8, 4) => &Unrolled::<8, 4>,
        _ => &Unrolled::<4, 2>,
    }
}

/// Default cache-blocking sizes for the packed path, used when the
/// corresponding [`la_core::tune::TuneConfig`] knob is 0. `MC×KC` panels
/// of A (~256 KiB of f64) target L2; `KC×NC` panels of B target L3.
pub const DEFAULT_MC: usize = 128;
/// Default k-depth of a packed panel (see [`DEFAULT_MC`]).
pub const DEFAULT_KC: usize = 256;
/// Default column width of a packed B panel (see [`DEFAULT_MC`]).
pub const DEFAULT_NC: usize = 512;

/// A resolved packed-gemm execution plan: the concrete microkernel plus
/// the cache-blocking sizes, resolved *once* per call and passed down
/// through the stripe workers and the ABFT recovery reruns so every path
/// computes with the same kernel.
#[derive(Clone, Copy)]
pub struct PackedPlan<T: Scalar> {
    /// The microkernel to drive.
    pub kern: &'static dyn MicroKernel<T>,
    /// Row block of packed A panels.
    pub mc: usize,
    /// Depth block of packed panels.
    pub kc: usize,
    /// Column block of packed B panels.
    pub nc: usize,
    /// When true (an explicit, non-`Auto` kernel selection), even small
    /// products go through the packed path — the equivalence tests use
    /// this to pin the exact code path under test.
    pub force: bool,
}

impl<T: Scalar> PackedPlan<T> {
    /// Builds the plan from a tuning configuration.
    pub fn from_cfg(cfg: &la_core::TuneConfig) -> Self {
        let pick = |v: usize, d: usize| if v == 0 { d } else { v };
        PackedPlan {
            kern: kernel_for::<T>(cfg.gemm_kernel),
            mc: pick(cfg.gemm_mc, DEFAULT_MC).max(1),
            kc: pick(cfg.gemm_kc, DEFAULT_KC).max(1),
            nc: pick(cfg.gemm_nc, DEFAULT_NC).max(1),
            force: cfg.gemm_kernel != GemmKernel::Auto,
        }
    }

    /// Builds the plan from the current thread's tuning configuration.
    pub fn current() -> Self {
        Self::from_cfg(&la_core::tune::current())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use la_core::{RealScalar, C32, C64};

    const KERNELS: [GemmKernel; 3] = [GemmKernel::Scalar, GemmKernel::Unrolled, GemmKernel::Simd];

    #[test]
    fn tile_shapes_fit_the_stack_tile() {
        fn check<T: Scalar>() {
            let (mr, nr) = tile_dims::<T>();
            assert!(mr * nr <= MAX_TILE);
            for sel in KERNELS {
                let k = kernel_for::<T>(sel);
                assert_eq!((k.mr(), k.nr()), (mr, nr), "{} shape", k.name());
            }
        }
        check::<f32>();
        check::<f64>();
        check::<C32>();
        check::<C64>();
    }

    /// Deterministic values in [−1, 1).
    fn vals<T: Scalar>(n: usize, seed: usize) -> Vec<T> {
        let v = |i: usize| ((i * 37 + seed * 11) % 101) as f64 / 50.5 - 1.0;
        (0..n)
            .map(|i| {
                let im = if T::IS_COMPLEX { v(i + 50) } else { 0.0 };
                T::from_re_im(T::Real::from_f64(v(i)), T::Real::from_f64(im))
            })
            .collect()
    }

    /// The contract of `tile` on every kernel, full and edge shapes, with
    /// `ldc > rows` and a spare column so every kind of neighbour of the
    /// tile is present: the tile region is `C + Ap·Bp` (the reference
    /// order bitwise for scalar and unrolled, rounding-bounded for simd)
    /// and nothing else is touched.
    fn tile_contract<T: Scalar>() {
        let (mr, nr) = tile_dims::<T>();
        let eps = T::Real::EPS.to_f64();
        for kb in [0usize, 1, 33] {
            let ap: Vec<T> = vals(kb * mr, 1);
            let bp: Vec<T> = vals(kb * nr, 2);
            for rows in [1, mr - 1, mr] {
                for cols in [1, nr - 1, nr] {
                    let ldc = rows + 3;
                    let c0: Vec<T> = vals((nr + 1) * ldc, 3);
                    let run = |sel: GemmKernel| {
                        let mut c = c0.clone();
                        kernel_for::<T>(sel).tile(kb, &ap, &bp, &mut c, ldc, rows, cols);
                        c
                    };
                    let mut want = c0.clone();
                    let mut bound = vec![0.0f64; c0.len()];
                    for s in 0..cols {
                        for r in 0..rows {
                            let mut sum = T::zero();
                            for l in 0..kb {
                                sum += ap[l * mr + r] * bp[l * nr + s];
                                bound[r + s * ldc] +=
                                    (ap[l * mr + r].abs() * bp[l * nr + s].abs()).to_f64();
                            }
                            want[r + s * ldc] += sum;
                            bound[r + s * ldc] += c0[r + s * ldc].abs().to_f64();
                        }
                    }
                    let tag = format!("{} kb={kb} {rows}x{cols}", T::PREFIX);
                    assert_eq!(run(GemmKernel::Scalar), want, "{tag} scalar");
                    assert_eq!(run(GemmKernel::Unrolled), want, "{tag} unrolled");
                    // Outside the tile `bound` is 0: untouched means equal.
                    let simd = run(GemmKernel::Simd);
                    for (idx, (&g, &w)) in simd.iter().zip(&want).enumerate() {
                        let d = (g - w).abs().to_f64();
                        let tol = 4.0 * eps * (kb as f64 + 1.0) * bound[idx];
                        assert!(d <= tol, "{tag} simd[{idx}]: {g} vs {w}");
                    }
                }
            }
        }
    }

    #[test]
    fn tile_accumulates_in_place_and_touches_nothing_else() {
        tile_contract::<f32>();
        tile_contract::<f64>();
        tile_contract::<C32>();
        tile_contract::<C64>();
    }

    /// A `c` one element short of the tile's extent panics before any
    /// element is written, for full and edge tiles alike.
    fn short_c_panics<T: Scalar>() {
        let (mr, nr) = tile_dims::<T>();
        let kb = 3;
        let ap: Vec<T> = vals(kb * mr, 4);
        let bp: Vec<T> = vals(kb * nr, 5);
        for sel in KERNELS {
            for (rows, cols) in [(mr, nr), (mr - 1, nr), (1, 1)] {
                let ldc = mr + 2;
                let c0: Vec<T> = vals((cols - 1) * ldc + rows - 1, 6);
                let mut c = c0.clone();
                let kern = kernel_for::<T>(sel);
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    kern.tile(kb, &ap, &bp, &mut c, ldc, rows, cols)
                }));
                assert!(
                    r.is_err(),
                    "{} {rows}x{cols} accepted a short C",
                    kern.name()
                );
                assert_eq!(c, c0, "{} wrote before panicking", kern.name());
            }
        }
    }

    #[test]
    fn too_short_c_slice_panics_instead_of_writing() {
        short_c_panics::<f32>();
        short_c_panics::<f64>();
        short_c_panics::<C32>();
        short_c_panics::<C64>();
    }

    /// The contract of the tile substitution, full and ragged shapes, both
    /// directions, with NaN wherever it must not look (the other triangle,
    /// a unit diagonal): the tile holds `X`, `xneg` holds `−X` in packed-B
    /// layout with zero lanes past `cols`, and nothing else is touched.
    fn solve_tile_contract<T: Scalar>() {
        let (mr, nr) = tile_dims::<T>();
        let nan = T::from_f64(f64::NAN);
        for lower in [true, false] {
            for unit in [false, true] {
                for (rows, cols) in [(mr, nr), (mr - 1, nr), (mr, nr - 1), (1, 1)] {
                    // op(A)(r, k) at d[k·mr + r]; identity past `rows`.
                    let tri: Vec<T> = vals(mr * mr, 10);
                    let mut d = vec![nan; mr * mr];
                    for k in 0..mr {
                        for r in 0..mr {
                            let inside = if lower { r > k } else { r < k };
                            d[k * mr + r] = match (r == k, r < rows && k < rows) {
                                (true, true) if unit => nan,
                                (true, true) => tri[k * mr + r] + T::from_f64(3.0),
                                (true, false) => T::one(),
                                (false, true) if inside => tri[k * mr + r],
                                (false, true) => nan,
                                (false, false) => T::zero(),
                            };
                        }
                    }
                    let ldb = rows + 3;
                    let b0: Vec<T> = vals(cols * ldb + ldb, 11);
                    // Naive substitution, one dot product per element.
                    let mut want = b0.clone();
                    for s in 0..cols {
                        for step in 0..rows {
                            let r = if lower { step } else { rows - 1 - step };
                            let done = if lower { 0..r } else { r + 1..rows };
                            let mut x = want[r + s * ldb];
                            for k in done {
                                x -= d[k * mr + r] * want[k + s * ldb];
                            }
                            want[r + s * ldb] = if unit { x } else { x / d[r * mr + r] };
                        }
                    }
                    let mut b = b0.clone();
                    let mut xneg = vec![nan; rows * nr];
                    solve_tile_for::<T>(lower)(unit, &d, &mut b, ldb, rows, cols, &mut xneg);
                    let tag = format!("{} lower={lower} unit={unit} {rows}x{cols}", T::PREFIX);
                    let tol = 8.0 * mr as f64 * T::Real::EPS.to_f64();
                    for (idx, (&g, &w)) in b.iter().zip(&want).enumerate() {
                        let (r, s) = (idx % ldb, idx / ldb);
                        if r < rows && s < cols {
                            let err = (g - w).abs().to_f64();
                            assert!(err <= tol * (1.0 + w.abs().to_f64()), "{tag} ({r},{s})");
                            assert_eq!(xneg[r * nr + s], -g, "{tag} xneg ({r},{s})");
                        } else {
                            assert_eq!(g, b0[idx], "{tag} touched ({r},{s})");
                        }
                    }
                    for r in 0..rows {
                        for s in cols..nr {
                            assert_eq!(xneg[r * nr + s], T::zero(), "{tag} pad lane ({r},{s})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn solve_tile_substitutes_in_place_and_packs_minus_x() {
        solve_tile_contract::<f32>();
        solve_tile_contract::<f64>();
        solve_tile_contract::<C32>();
        solve_tile_contract::<C64>();
    }

    #[test]
    fn tile_where_adds_exactly_the_kept_entries() {
        fn check<T: Scalar>() {
            let (mr, nr) = tile_dims::<T>();
            let kb = 5;
            let ap: Vec<T> = vals(kb * mr, 7);
            let bp: Vec<T> = vals(kb * nr, 8);
            let ldc = mr + 1;
            let c0: Vec<T> = vals(nr * ldc, 9);
            for sel in KERNELS {
                let kern = kernel_for::<T>(sel);
                let mut full = c0.clone();
                kern.tile(kb, &ap, &bp, &mut full, ldc, mr, nr);
                let mut got = c0.clone();
                tile_where(kern, kb, &ap, &bp, &mut got, ldc, mr - 1, nr, |r, s| r >= s);
                for s in 0..nr {
                    for r in 0..ldc {
                        let kept = r < mr - 1 && r >= s;
                        let want = if kept { &full } else { &c0 }[r + s * ldc];
                        assert_eq!(got[r + s * ldc], want, "{} ({r},{s})", kern.name());
                    }
                }
            }
        }
        check::<f32>();
        check::<f64>();
        check::<C32>();
        check::<C64>();
    }
}
