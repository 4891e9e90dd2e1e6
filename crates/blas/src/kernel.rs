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
//! Three kinds of kernel sit behind the [`MicroKernel`] trait, selected
//! through the `LA_GEMM_KERNEL` tune knob ([`la_core::tune::GemmKernel`]):
//!
//! * [`RefKernel`] — the reference triple loop. Slow; the bitwise ground
//!   truth the equivalence tests compare everything against.
//! * [`Unrolled`] — an explicitly unrolled register tile, generic over the
//!   scalar type. Performs the *same additions in the same order* as
//!   `RefKernel`, so the two are bitwise identical.
//! * the `simd` kernels — x86-64 vectorized tiles for the real types
//!   (behind the `simd` cargo feature), in two tiers: AVX-512F `zmm` tiles
//!   (f64 16×8, f32 16×16) on a CPU with AVX-512F, else AVX2+FMA `ymm`
//!   tiles (f64 8×4, f32 16×4). FMA contracts the multiply-add rounding,
//!   so their results differ from the scalar kernels by a few ulps.
//!   [`kernel_for`] picks the widest tier the CPU runs, once per
//!   [`PackedPlan`], after checking the scalar type; complex types and
//!   other hosts get the unrolled kernel, so selecting `simd` is always
//!   safe and nothing is re-tested per tile.
//!
//! The scalar, unrolled and AVX2 kernels share one tile shape per scalar
//! type ([`tile_dims`]); the AVX-512 tiles are wider. Nothing outside a
//! kernel assumes its shape: the packing, the stack tile of an edge and the
//! solve sweep read it from the plan's kernel. Every kernel sums each
//! element from zero over the depth in order and adds it into `C` once, so
//! a shape moves where tiles fall, not what they sum: the two `simd` tiers
//! give `gemm` and `syrk` the same bits.
//!
//! The triangular solve sweep (`l3::trsm_left_cols`) drives the same `tile`
//! method and takes its in-tile substitution from the kernel
//! ([`MicroKernel::solver`]): one function generic over the tile shape
//! (`solve_tile`) for every kernel but the AVX-512 tier, whose
//! substitution holds the tile in 16 `zmm` registers and gives the generic
//! function's bits.
//!
//! The unblocked Level-2 leaves under the factorizations (`crate::leaf`)
//! are plain Rust, not tiles: `on_tier` runs each one as compiled for the
//! same tier the `simd` kernels would take (AVX-512F, else AVX2+FMA, else
//! the generic build). No leaf asks for a fused multiply-add, so a leaf's
//! bits do not depend on the tier.

use la_core::tune::GemmKernel;
use la_core::{RealScalar, Scalar};

/// Largest `MR·NR` over every kernel's tile (the f32 AVX-512 tile,
/// 16×16); sizes the stack tile of [`via_stack_tile`].
const MAX_TILE: usize = 256;

/// The tile shape `(MR, NR)` of the scalar, unrolled and AVX2 kernels for
/// a scalar type: `f32` 16×4, `f64` 8×4 (two/two AVX vectors of rows by
/// four broadcast columns), complex types 4×2. The AVX-512 tier's tiles are
/// wider; code that packs for a kernel reads [`MicroKernel::mr`] and
/// [`MicroKernel::nr`].
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
    /// The in-tile substitution of the solve sweep for this kernel's tile
    /// shape, forward (`lower`) or backward.
    fn solver(&self, lower: bool) -> SolveTile<T>;
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

/// What the diagonal of a packed diagonal tile holds, and so how a
/// [`SolveTile`] applies it: one value per packed diagonal block of the
/// solve sweep, chosen when the block is packed (`l3::pack_triangle`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pivots {
    /// A unit diagonal: nothing is read from it.
    Unit,
    /// Each pivot's reciprocal `1/d`: the substitution multiplies by it.
    Reciprocal,
    /// The pivots themselves: the substitution divides by them. Only a
    /// block with a pivot [`reciprocal_is_safe`] refuses is packed so.
    Divide,
}

/// `xGETF2`'s rule for replacing `x/d` by `x·(1/d)`: `d` is 0, ±Inf or
/// NaN, or its modulus is at least `sfmin`, the smallest number whose
/// reciprocal does not overflow. For those the product is the quotient
/// but for rounding — the last place, or a few when `|d| > 1/sfmin` makes
/// `1/d` subnormal — and an exception gives the same exceptional value
/// (`1/0 = Inf`, `1/Inf = 0`, NaN stays NaN). A subnormal `d` has an
/// infinite reciprocal, so `x·(1/d)` would be `Inf` where `x/d` is finite
/// (`1e-310/1e-310 = 1`): it must divide.
#[inline]
pub fn reciprocal_is_safe<T: Scalar>(d: T) -> bool {
    let m = d.abs();
    d.is_zero() || m >= T::Real::sfmin() || m.is_nan()
}

/// The in-tile substitution of the triangular solve sweep (`trsm`): solves
/// the `rows × cols` tile of `B` at `b` (column stride `ldb`) against one
/// packed diagonal tile, writes `X` back over it and `−X` into `xneg`.
///
/// `d` is the `mr × mr` diagonal tile of `op(A)`, one column per group of
/// `mr` (`d[k·mr + r] = op(A)(r, k)`), its diagonal as `pivots` says; rows
/// past `rows` must be the identity. Only the triangle is read, and with
/// [`Pivots::Unit`] not its diagonal. `xneg` holds `rows` groups of `nr` in
/// packed-B layout, columns past `cols` zero.
///
/// With [`Pivots::Reciprocal`] each pivot row is multiplied by the packed
/// `1/d`, as BLASFEO's and OpenBLAS's `trsm` kernels do, where the
/// reference `xTRSM` divides by `d`: a multiply issues every cycle, and a
/// division chain would wait on each quotient. The reciprocal is one
/// rounding, made once when the block is packed, and no substitution fuses
/// a multiply with its add, so the bits do not depend on the kernel or
/// the tier.
pub type SolveTile<T> =
    fn(pivots: Pivots, d: &[T], b: &mut [T], ldb: usize, rows: usize, cols: usize, xneg: &mut [T]);

/// The generic [`SolveTile`] at one tile shape.
fn solve_tile_at<T: Scalar, const MR: usize, const NR: usize>(lower: bool) -> SolveTile<T> {
    if lower {
        solve_tile::<T, MR, NR, true>
    } else {
        solve_tile::<T, MR, NR, false>
    }
}

/// [`SolveTile`] over one tile shape and direction. Every loop bound is a
/// constant so the substitution unrolls; the right-hand sides run across
/// the lanes of each row, and a pivot row is multiplied by the packed
/// reciprocal (divided by the pivot only under [`Pivots::Divide`], as
/// `trsv` always does).
fn solve_tile<T: Scalar, const MR: usize, const NR: usize, const LOWER: bool>(
    pivots: Pivots,
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
        let pivot = col[k];
        match pivots {
            Pivots::Unit => {}
            Pivots::Reciprocal => {
                for x in &mut t[k] {
                    *x *= pivot;
                }
            }
            Pivots::Divide => {
                for x in &mut t[k] {
                    *x = *x / pivot;
                }
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
    fn solver(&self, lower: bool) -> SolveTile<T> {
        solve_tile_at::<T, MR, NR>(lower)
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
    fn solver(&self, lower: bool) -> SolveTile<T> {
        solve_tile_at::<T, MR, NR>(lower)
    }
}

/// The CPU check of the AVX2 tier: everything compiled with
/// `#[target_feature(enable = "avx2,fma")]` is called only behind it (the
/// standard library caches the detection, so asking again is two loads).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) fn host_has_avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// The x86-64 SIMD microkernels for the real types, in two tiers: AVX-512F
/// (`Simd<true>`) and AVX2+FMA (`Simd<false>`). Both are private to this
/// module and [`tiers`] hands one out only after its CPU check, which is
/// what makes the `target_feature` calls behind its methods sound.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod simd {
    use super::{
        check_tile, full_or_edge, solve_tile_at, MicroKernel, Pivots, Scalar, SolveTile, MAX_TILE,
    };
    use std::any::Any;
    use std::arch::x86_64::*;
    use std::cell::Cell;

    /// The widest tier a thread may use.
    #[derive(Clone, Copy, PartialEq)]
    pub(super) enum Pin {
        /// The widest the CPU runs (the default).
        Widest,
        /// The AVX2 tier ([`super::with_narrow_simd`]).
        Narrow,
        /// No SIMD tier ([`super::with_no_simd`]).
        Generic,
    }

    thread_local! {
        /// This thread's pin.
        static PIN: Cell<Pin> = const { Cell::new(Pin::Widest) };
    }

    /// Pins this thread to a tier until dropped, then restores the previous
    /// pin (also on unwind).
    pub(super) struct Pinned(Pin);

    impl Pinned {
        pub(super) fn pin(to: Pin) -> Self {
            Pinned(PIN.replace(to))
        }
    }

    impl Drop for Pinned {
        fn drop(&mut self) {
            PIN.set(self.0);
        }
    }

    /// The SIMD kernels the CPU runs for `T`, widest first: the AVX-512
    /// tile if it has AVX-512F, the AVX2 tile if it has AVX2+FMA; `None`
    /// for a tier it lacks and for complex `T`.
    pub(super) fn tiers<T: Scalar>() -> [Option<&'static dyn MicroKernel<T>>; 2] {
        [
            std::arch::is_x86_feature_detected!("avx512f")
                .then(real::<T, true>)
                .flatten(),
            super::host_has_avx2_fma().then(real::<T, false>).flatten(),
        ]
    }

    /// The kernel [`super::kernel_for`] resolves `simd` to: the widest
    /// tier the thread's pin allows.
    pub(super) fn for_type<T: Scalar>() -> Option<&'static dyn MicroKernel<T>> {
        let [wide, narrow] = tiers::<T>();
        match PIN.get() {
            Pin::Widest => wide.or(narrow),
            Pin::Narrow => narrow,
            Pin::Generic => None,
        }
    }

    /// The tier [`super::on_tier`] runs a leaf on, by the same rule as
    /// [`for_type`]: `Some(true)` for AVX-512F, `Some(false)` for
    /// AVX2+FMA, `None` for the generic build.
    pub(crate) fn leaf_tier() -> Option<bool> {
        match PIN.get() {
            Pin::Widest if std::arch::is_x86_feature_detected!("avx512f") => Some(true),
            Pin::Generic => None,
            _ => super::host_has_avx2_fma().then_some(false),
        }
    }

    /// `leaf` compiled for AVX-512F.
    ///
    /// # Safety
    /// The host must have AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn run_avx512<L: super::Leaf>(leaf: L) -> L::Out {
        leaf.run()
    }

    /// `leaf` compiled for AVX2 and FMA (no fused multiply-add is asked
    /// for, so none is used).
    ///
    /// # Safety
    /// The host must have AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn run_avx2<L: super::Leaf>(leaf: L) -> L::Out {
        leaf.run()
    }

    /// `Simd<ZMM>` as `T`'s kernel when `T` is `f64` or `f32`.
    fn real<T: Scalar, const ZMM: bool>() -> Option<&'static dyn MicroKernel<T>>
    where
        Simd<ZMM>: Tile<f64> + Tile<f32>,
    {
        let d: &'static dyn MicroKernel<f64> = &Simd::<ZMM>;
        let s: &'static dyn MicroKernel<f32> = &Simd::<ZMM>;
        // A downcast succeeds exactly when `T` is that kernel's type.
        (&d as &dyn Any)
            .downcast_ref::<&'static dyn MicroKernel<T>>()
            .or_else(|| (&s as &dyn Any).downcast_ref())
            .copied()
    }

    /// One tier's kernel: AVX-512F `zmm` tiles when `ZMM`, AVX2+FMA `ymm`
    /// tiles otherwise.
    struct Simd<const ZMM: bool>;

    /// A tier's tile for one real type.
    trait Tile<T> {
        /// `(MR, NR)`.
        const DIMS: (usize, usize);
        /// `C[..MR, ..NR] += Ap·Bp`.
        ///
        /// # Safety
        /// The tier's CPU features must be available; `a` / `b` must be
        /// readable for `kb·MR` / `kb·NR` elements and `c` readable and
        /// writable for `(NR − 1)·ldc + MR`.
        unsafe fn full(kb: usize, a: *const T, b: *const T, c: *mut T, ldc: usize);
        /// The tile's [`SolveTile`].
        fn solver(lower: bool) -> SolveTile<T>;
    }

    impl Tile<f64> for Simd<false> {
        const DIMS: (usize, usize) = (8, 4);
        unsafe fn full(kb: usize, a: *const f64, b: *const f64, c: *mut f64, ldc: usize) {
            full_f64_8x4(kb, a, b, c, ldc)
        }
        fn solver(lower: bool) -> SolveTile<f64> {
            solve_tile_at::<f64, 8, 4>(lower)
        }
    }

    impl Tile<f32> for Simd<false> {
        const DIMS: (usize, usize) = (16, 4);
        unsafe fn full(kb: usize, a: *const f32, b: *const f32, c: *mut f32, ldc: usize) {
            full_f32_16x4(kb, a, b, c, ldc)
        }
        fn solver(lower: bool) -> SolveTile<f32> {
            solve_tile_at::<f32, 16, 4>(lower)
        }
    }

    impl Tile<f64> for Simd<true> {
        const DIMS: (usize, usize) = (16, 8);
        unsafe fn full(kb: usize, a: *const f64, b: *const f64, c: *mut f64, ldc: usize) {
            full_f64_16x8(kb, a, b, c, ldc)
        }
        fn solver(lower: bool) -> SolveTile<f64> {
            if lower {
                solve_f64::<true>
            } else {
                solve_f64::<false>
            }
        }
    }

    impl Tile<f32> for Simd<true> {
        const DIMS: (usize, usize) = (16, 16);
        unsafe fn full(kb: usize, a: *const f32, b: *const f32, c: *mut f32, ldc: usize) {
            full_f32_16x16(kb, a, b, c, ldc)
        }
        fn solver(lower: bool) -> SolveTile<f32> {
            if lower {
                solve_f32::<true>
            } else {
                solve_f32::<false>
            }
        }
    }

    impl<T: Scalar, const ZMM: bool> MicroKernel<T> for Simd<ZMM>
    where
        Self: Tile<T>,
    {
        fn name(&self) -> &'static str {
            "simd"
        }
        fn mr(&self) -> usize {
            <Self as Tile<T>>::DIMS.0
        }
        fn nr(&self) -> usize {
            <Self as Tile<T>>::DIMS.1
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
            let dims = <Self as Tile<T>>::DIMS;
            if !check_tile(dims, kb, ap, bp, c, ldc, rows, cols) {
                return;
            }
            full_or_edge(dims, c, ldc, rows, cols, |c, ldc| {
                assert!(c.len() >= (dims.1 - 1) * ldc + dims.0);
                // SAFETY: `check_tile` proved the panel lengths and the
                // line above the extent of `c`; a `Simd` exists only on a
                // host with its tier's features (see `tiers`).
                unsafe { Self::full(kb, ap.as_ptr(), bp.as_ptr(), c.as_mut_ptr(), ldc) }
            });
        }
        fn solver(&self, lower: bool) -> SolveTile<T> {
            <Self as Tile<T>>::solver(lower)
        }
    }

    /// 8×4 f64 tile: rows in two 4-lane AVX vectors, four broadcast
    /// columns — eight independent FMA accumulator registers, each
    /// loaded-added-stored into its C column at the end.
    ///
    /// # Safety
    /// See [`Tile::full`].
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
    /// See [`Tile::full`].
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

    /// 16×8 f64 tile: rows in two 8-lane `zmm` vectors, eight broadcast
    /// columns — 16 accumulator registers.
    ///
    /// # Safety
    /// See [`Tile::full`].
    #[target_feature(enable = "avx512f")]
    unsafe fn full_f64_16x8(kb: usize, a: *const f64, b: *const f64, c: *mut f64, ldc: usize) {
        let mut c0 = [_mm512_setzero_pd(); 8];
        let mut c1 = [_mm512_setzero_pd(); 8];
        for l in 0..kb {
            let a0 = _mm512_loadu_pd(a.add(l * 16));
            let a1 = _mm512_loadu_pd(a.add(l * 16 + 8));
            for s in 0..8 {
                let bv = _mm512_set1_pd(*b.add(l * 8 + s));
                c0[s] = _mm512_fmadd_pd(a0, bv, c0[s]);
                c1[s] = _mm512_fmadd_pd(a1, bv, c1[s]);
            }
        }
        for s in 0..8 {
            let p = c.add(s * ldc);
            _mm512_storeu_pd(p, _mm512_add_pd(_mm512_loadu_pd(p), c0[s]));
            _mm512_storeu_pd(p.add(8), _mm512_add_pd(_mm512_loadu_pd(p.add(8)), c1[s]));
        }
    }

    /// 16×16 f32 tile: rows in one 16-lane `zmm` vector, 16 broadcast
    /// columns — 16 accumulator registers.
    ///
    /// # Safety
    /// See [`Tile::full`].
    #[target_feature(enable = "avx512f")]
    unsafe fn full_f32_16x16(kb: usize, a: *const f32, b: *const f32, c: *mut f32, ldc: usize) {
        let mut acc = [_mm512_setzero_ps(); 16];
        for l in 0..kb {
            let a0 = _mm512_loadu_ps(a.add(l * 16));
            for s in 0..16 {
                let bv = _mm512_set1_ps(*b.add(l * 16 + s));
                acc[s] = _mm512_fmadd_ps(a0, bv, acc[s]);
            }
        }
        for s in 0..16 {
            let p = c.add(s * ldc);
            _mm512_storeu_ps(p, _mm512_add_ps(_mm512_loadu_ps(p), acc[s]));
        }
    }

    /// The f64 16×8 [`SolveTile`] of the AVX-512 tier.
    fn solve_f64<const LOWER: bool>(
        pivots: Pivots,
        d: &[f64],
        b: &mut [f64],
        ldb: usize,
        rows: usize,
        cols: usize,
        xneg: &mut [f64],
    ) {
        full_or_padded::<f64, 8>(d, b, ldb, rows, cols, xneg, |b, ldb, xneg| {
            // SAFETY: `full_or_padded`'s contract, and a `Simd<true>` —
            // the only way here — exists only on an AVX-512F host.
            unsafe { solve_f64_16x8::<LOWER>(pivots, d.as_ptr(), b, ldb, xneg) }
        })
    }

    /// The f32 16×16 [`SolveTile`] of the AVX-512 tier.
    fn solve_f32<const LOWER: bool>(
        pivots: Pivots,
        d: &[f32],
        b: &mut [f32],
        ldb: usize,
        rows: usize,
        cols: usize,
        xneg: &mut [f32],
    ) {
        full_or_padded::<f32, 16>(d, b, ldb, rows, cols, xneg, |b, ldb, xneg| {
            // SAFETY: as in `solve_f64`.
            unsafe { solve_f32_16x16::<LOWER>(pivots, d.as_ptr(), b, ldb, xneg) }
        })
    }

    /// The checks of a 16-row [`SolveTile`], then `full(b, ldb, xneg)` —
    /// a substitution of the whole `16 × NR` tile — straight on `b` for a
    /// full tile, or on a zero-padded copy whose `X` and `−X` are written
    /// back as the generic `solve_tile` writes them. `full` may assume `d`
    /// readable for 16·16 elements, `b` readable and writable for
    /// `(NR − 1)·ldb + 16` and `xneg` writable for `16·NR`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn full_or_padded<T: Scalar, const NR: usize>(
        d: &[T],
        b: &mut [T],
        ldb: usize,
        rows: usize,
        cols: usize,
        xneg: &mut [T],
        full: impl FnOnce(*mut T, usize, *mut T),
    ) {
        assert!(rows <= 16 && cols <= NR && rows > 0 && cols > 0);
        assert!(d.len() >= 16 * 16 && xneg.len() >= rows * NR);
        assert!(b.len() >= (cols - 1) * ldb + rows);
        if (rows, cols) == (16, NR) {
            return full(b.as_mut_ptr(), ldb, xneg.as_mut_ptr());
        }
        // Zero right-hand sides in the rows and lanes past a ragged edge.
        let mut t = [T::zero(); MAX_TILE];
        let mut x = [T::zero(); MAX_TILE];
        for s in 0..cols {
            t[16 * s..16 * s + rows].copy_from_slice(&b[s * ldb..s * ldb + rows]);
        }
        full(t.as_mut_ptr(), 16, x.as_mut_ptr());
        for s in 0..cols {
            b[s * ldb..s * ldb + rows].copy_from_slice(&t[16 * s..16 * s + rows]);
        }
        for (g, xr) in xneg.chunks_exact_mut(NR).zip(x.chunks_exact(NR)).take(rows) {
            g[..cols].copy_from_slice(&xr[..cols]);
            g[cols..].fill(T::zero());
        }
    }

    /// The substitution of a 16-row tile held in registers, `$t[r]` one
    /// row of right-hand sides: per step the pivot row is multiplied by
    /// the packed reciprocal (divided by the pivot under
    /// [`Pivots::Divide`], untouched under [`Pivots::Unit`]), then every
    /// row still to be solved takes a multiply and a subtract — the
    /// generic `solve_tile`'s operations in its order, unfused, so its
    /// bits. `$set1`, `$div`, `$mul` and `$sub` are the lane type's
    /// intrinsics. The 16 steps are spelled out so every row index is a
    /// constant and the tile never leaves registers; with no division on
    /// the chain, a step waits on a multiply, not on a quotient.
    macro_rules! substitute {
        ($t:ident, $d:ident, $piv:ident, $lower:ident, $set1:ident, $div:ident, $mul:ident, $sub:ident) => {
            substitute!(@ $t $d $piv $lower $set1 $div $mul $sub;
                0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15)
        };
        (@ $t:ident $d:ident $piv:ident $lower:ident $set1:ident $div:ident $mul:ident $sub:ident;
            $($step:literal)*) => {$({
            let k = if $lower { $step } else { 15 - $step };
            let col = $d.add(16 * k);
            match $piv {
                Pivots::Unit => {}
                Pivots::Reciprocal => $t[k] = $mul($t[k], $set1(*col.add(k))),
                Pivots::Divide => $t[k] = $div($t[k], $set1(*col.add(k))),
            }
            let xk = $t[k];
            for r in if $lower { k + 1..16 } else { 0..k } {
                $t[r] = $sub($t[r], $mul($set1(*col.add(r)), xk));
            }
        })*};
    }

    /// The full 16×8 f64 substitution with the tile in 16 `zmm` registers,
    /// one row of eight right-hand sides each: the columns of `b` are
    /// loaded and transposed into rows, substituted, transposed back and
    /// stored, and the rows negated into `xneg`.
    ///
    /// # Safety
    /// AVX-512F must be available; `d` must be readable for 16·16
    /// elements, `b` readable and writable for `7·ldb + 16` and `xneg`
    /// writable for 128.
    #[target_feature(enable = "avx512f")]
    unsafe fn solve_f64_16x8<const LOWER: bool>(
        pivots: Pivots,
        d: *const f64,
        b: *mut f64,
        ldb: usize,
        xneg: *mut f64,
    ) {
        let mut t = [_mm512_setzero_pd(); 16];
        for h in 0..2 {
            let mut cols = [_mm512_setzero_pd(); 8];
            for (s, v) in cols.iter_mut().enumerate() {
                *v = _mm512_loadu_pd(b.add(s * ldb + 8 * h));
            }
            for (r, v) in transpose_8x8(cols).into_iter().enumerate() {
                t[8 * h + r] = v;
            }
        }
        substitute!(
            t,
            d,
            pivots,
            LOWER,
            _mm512_set1_pd,
            _mm512_div_pd,
            _mm512_mul_pd,
            _mm512_sub_pd
        );
        for h in 0..2 {
            let mut rows = [_mm512_setzero_pd(); 8];
            for (r, v) in rows.iter_mut().enumerate() {
                *v = t[8 * h + r];
            }
            for (s, v) in transpose_8x8(rows).into_iter().enumerate() {
                _mm512_storeu_pd(b.add(s * ldb + 8 * h), v);
            }
        }
        // −x flips the sign bit, as the generic `-x` does (0 − x would
        // turn +0 into +0).
        let sign = _mm512_set1_epi64(i64::MIN);
        for (r, v) in t.into_iter().enumerate() {
            let neg = _mm512_xor_si512(_mm512_castpd_si512(v), sign);
            _mm512_storeu_pd(xneg.add(8 * r), _mm512_castsi512_pd(neg));
        }
    }

    /// The full 16×16 f32 substitution with the tile in 16 `zmm`
    /// registers, as [`solve_f64_16x8`].
    ///
    /// # Safety
    /// AVX-512F must be available; `d` must be readable for 16·16
    /// elements, `b` readable and writable for `15·ldb + 16` and `xneg`
    /// writable for 256.
    #[target_feature(enable = "avx512f")]
    unsafe fn solve_f32_16x16<const LOWER: bool>(
        pivots: Pivots,
        d: *const f32,
        b: *mut f32,
        ldb: usize,
        xneg: *mut f32,
    ) {
        let mut cols = [_mm512_setzero_ps(); 16];
        for (s, v) in cols.iter_mut().enumerate() {
            *v = _mm512_loadu_ps(b.add(s * ldb));
        }
        let mut t = transpose_16x16(cols);
        substitute!(
            t,
            d,
            pivots,
            LOWER,
            _mm512_set1_ps,
            _mm512_div_ps,
            _mm512_mul_ps,
            _mm512_sub_ps
        );
        for (s, v) in transpose_16x16(t).into_iter().enumerate() {
            _mm512_storeu_ps(b.add(s * ldb), v);
        }
        let sign = _mm512_set1_epi32(i32::MIN);
        for (r, v) in t.into_iter().enumerate() {
            let neg = _mm512_xor_si512(_mm512_castps_si512(v), sign);
            _mm512_storeu_ps(xneg.add(16 * r), _mm512_castsi512_ps(neg));
        }
    }

    /// The 4×4 transpose of 128-bit lanes: lane `j` of `x[i]` becomes lane
    /// `i` of output `j`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose_lanes(x: [__m512d; 4]) -> [__m512d; 4] {
        // 0x88 takes lanes 0 and 2 of each source, 0xDD lanes 1 and 3.
        let even = [
            _mm512_shuffle_f64x2::<0x88>(x[0], x[1]),
            _mm512_shuffle_f64x2::<0x88>(x[2], x[3]),
        ];
        let odd = [
            _mm512_shuffle_f64x2::<0xDD>(x[0], x[1]),
            _mm512_shuffle_f64x2::<0xDD>(x[2], x[3]),
        ];
        [
            _mm512_shuffle_f64x2::<0x88>(even[0], even[1]),
            _mm512_shuffle_f64x2::<0x88>(odd[0], odd[1]),
            _mm512_shuffle_f64x2::<0xDD>(even[0], even[1]),
            _mm512_shuffle_f64x2::<0xDD>(odd[0], odd[1]),
        ]
    }

    /// Transposes the 8×8 f64 block held in eight `zmm` rows (its own
    /// inverse).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose_8x8(r: [__m512d; 8]) -> [__m512d; 8] {
        // Lane j of `lo[i]` holds element 2j of rows 2i and 2i + 1, lane j
        // of `hi[i]` element 2j + 1.
        let mut lo = [_mm512_setzero_pd(); 4];
        let mut hi = [_mm512_setzero_pd(); 4];
        for i in 0..4 {
            lo[i] = _mm512_unpacklo_pd(r[2 * i], r[2 * i + 1]);
            hi[i] = _mm512_unpackhi_pd(r[2 * i], r[2 * i + 1]);
        }
        let (even, odd) = (transpose_lanes(lo), transpose_lanes(hi));
        [
            even[0], odd[0], even[1], odd[1], even[2], odd[2], even[3], odd[3],
        ]
    }

    /// Transposes the 16×16 f32 block held in 16 `zmm` rows (its own
    /// inverse).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose_16x16(r: [__m512; 16]) -> [__m512; 16] {
        // Lane j of `lo[i]` interleaves elements 4j, 4j + 1 of rows 2i and
        // 2i + 1; lane j of `hi[i]` elements 4j + 2, 4j + 3.
        let mut lo = [_mm512_setzero_ps(); 8];
        let mut hi = [_mm512_setzero_ps(); 8];
        for i in 0..8 {
            lo[i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
            hi[i] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
        }
        // Lane j of `q[c][i]` holds element 4j + c of rows 4i … 4i + 3.
        let mut q = [[_mm512_setzero_pd(); 4]; 4];
        for i in 0..4 {
            let (l0, l1) = (_mm512_castps_pd(lo[2 * i]), _mm512_castps_pd(lo[2 * i + 1]));
            let (h0, h1) = (_mm512_castps_pd(hi[2 * i]), _mm512_castps_pd(hi[2 * i + 1]));
            q[0][i] = _mm512_unpacklo_pd(l0, l1);
            q[1][i] = _mm512_unpackhi_pd(l0, l1);
            q[2][i] = _mm512_unpacklo_pd(h0, h1);
            q[3][i] = _mm512_unpackhi_pd(h0, h1);
        }
        let mut out = [_mm512_setzero_ps(); 16];
        for (c, qc) in q.into_iter().enumerate() {
            for (j, v) in transpose_lanes(qc).into_iter().enumerate() {
                out[4 * j + c] = _mm512_castpd_ps(v);
            }
        }
        out
    }
}

/// Runs `f` with `simd` and `auto` resolving, on this thread, to the
/// narrowest SIMD tier the CPU runs: the AVX2 tiles on an AVX-512F host,
/// the same kernel elsewhere. A hook for the tests and benches that put
/// the tiers side by side, not a tuning knob: a call that fans out to
/// other threads resolves its plans there to the widest tier.
#[doc(hidden)]
pub fn with_narrow_simd<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let _pin = simd::Pinned::pin(simd::Pin::Narrow);
    f()
}

/// Runs `f` with no SIMD tier on this thread: `simd` and `auto` resolve to
/// the unrolled kernel and [`on_tier`] runs the generic build of each leaf.
/// A hook for the tests that hold the tiers to the generic bits, like
/// [`with_narrow_simd`].
#[doc(hidden)]
pub fn with_no_simd<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    let _pin = simd::Pinned::pin(simd::Pin::Generic);
    f()
}

/// The body of a Level-2 leaf, which [`on_tier`] runs as compiled for one
/// SIMD tier.
pub(crate) trait Leaf {
    /// What the leaf returns.
    type Out;
    /// The leaf. Every implementation is `#[inline(always)]`: that is what
    /// puts a copy of the body, compiled for its tier, inside each tier's
    /// `target_feature` wrapper.
    fn run(self) -> Self::Out;
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) use simd::leaf_tier;

/// Runs `leaf` as compiled for the widest SIMD tier this thread may use —
/// the tier `simd` resolves to ([`kernel_for`]): AVX-512F, else AVX2+FMA,
/// else the generic build. The body is the same Rust on every tier and
/// never asks for a fused multiply-add, so only the vector width changes,
/// not the bits.
pub(crate) fn on_tier<L: Leaf>(leaf: L) -> L::Out {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    match simd::leaf_tier() {
        // SAFETY: `leaf_tier` names a tier only on a host that has its
        // features.
        Some(true) => return unsafe { simd::run_avx512(leaf) },
        // SAFETY: as above.
        Some(false) => return unsafe { simd::run_avx2(leaf) },
        None => {}
    }
    leaf.run()
}

/// The SIMD kernels the host runs for `T`, widest first; empty without
/// the `simd` feature, on other CPUs and for complex types. Every kernel
/// contract in the tests runs on each of them.
#[cfg(test)]
pub(crate) fn simd_kernels<T: Scalar>() -> Vec<&'static dyn MicroKernel<T>> {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    return simd::tiers::<T>().into_iter().flatten().collect();
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    Vec::new()
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
/// through the band workers and the ABFT recovery reruns so every path
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

    /// Every kernel the host runs for `T`: scalar, unrolled and each SIMD
    /// tier.
    fn kernels<T: Scalar>() -> Vec<&'static dyn MicroKernel<T>> {
        let mut k = vec![
            kernel_for::<T>(GemmKernel::Scalar),
            kernel_for::<T>(GemmKernel::Unrolled),
        ];
        k.extend(simd_kernels::<T>());
        k
    }

    /// Whether `kern` sums in the reference order, so gives its bits.
    fn exact<T: Scalar>(kern: &dyn MicroKernel<T>) -> bool {
        kern.name() != "simd"
    }

    #[test]
    fn tile_shapes_fit_the_stack_tile() {
        fn check<T: Scalar>() {
            for k in kernels::<T>() {
                assert!(k.mr() * k.nr() <= MAX_TILE, "{} shape", k.name());
                if exact(k) {
                    assert_eq!((k.mr(), k.nr()), tile_dims::<T>(), "{} shape", k.name());
                }
            }
            // `simd` is the widest tier, and the narrowest while pinned.
            let tiers = simd_kernels::<T>();
            let dims = |k: &dyn MicroKernel<T>| (k.mr(), k.nr());
            let want = |k: Option<&&dyn MicroKernel<T>>| k.map_or(tile_dims::<T>(), |k| dims(*k));
            let narrow = with_narrow_simd(|| kernel_for::<T>(GemmKernel::Simd));
            assert_eq!(dims(narrow), want(tiers.last()));
            assert_eq!(dims(kernel_for::<T>(GemmKernel::Simd)), want(tiers.first()));
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

    /// Both parts of every element as bit patterns (`f32` widens exactly).
    fn bits<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
            .collect()
    }

    /// The contract of `tile` on every kernel, full and edge shapes, with
    /// `ldc > rows` and a spare column so every kind of neighbour of the
    /// tile is present: the tile region is `C + Ap·Bp` (the reference
    /// order bitwise for scalar and unrolled, rounding-bounded for simd)
    /// and nothing else is touched.
    fn tile_contract<T: Scalar>() {
        let eps = T::Real::EPS.to_f64();
        for kern in kernels::<T>() {
            let (mr, nr) = (kern.mr(), kern.nr());
            for kb in [0usize, 1, 33] {
                let ap: Vec<T> = vals(kb * mr, 1);
                let bp: Vec<T> = vals(kb * nr, 2);
                for rows in [1, mr - 1, mr] {
                    for cols in [1, nr - 1, nr] {
                        let ldc = rows + 3;
                        let c0: Vec<T> = vals((nr + 1) * ldc, 3);
                        let mut got = c0.clone();
                        kern.tile(kb, &ap, &bp, &mut got, ldc, rows, cols);
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
                        let tag = format!(
                            "{} {} {mr}x{nr} kb={kb} {rows}x{cols}",
                            T::PREFIX,
                            kern.name()
                        );
                        if exact(kern) {
                            assert_eq!(got, want, "{tag}");
                            continue;
                        }
                        // Outside the tile `bound` is 0: untouched means equal.
                        for (idx, (&g, &w)) in got.iter().zip(&want).enumerate() {
                            let d = (g - w).abs().to_f64();
                            let tol = 4.0 * eps * (kb as f64 + 1.0) * bound[idx];
                            assert!(d <= tol, "{tag} [{idx}]: {g} vs {w}");
                        }
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
        let kb = 3;
        for kern in kernels::<T>() {
            let (mr, nr) = (kern.mr(), kern.nr());
            let ap: Vec<T> = vals(kb * mr, 4);
            let bp: Vec<T> = vals(kb * nr, 5);
            for (rows, cols) in [(mr, nr), (mr - 1, nr), (1, 1)] {
                let ldc = mr + 2;
                let c0: Vec<T> = vals((cols - 1) * ldc + rows - 1, 6);
                let mut c = c0.clone();
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    kern.tile(kb, &ap, &bp, &mut c, ldc, rows, cols)
                }));
                let tag = format!("{} {mr}x{nr} {rows}x{cols}", kern.name());
                assert!(r.is_err(), "{tag} accepted a short C");
                assert_eq!(c, c0, "{tag} wrote before panicking");
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

    /// Every way a packed diagonal tile may hold its diagonal.
    const PIVOTS: [Pivots; 3] = [Pivots::Unit, Pivots::Reciprocal, Pivots::Divide];

    /// The tile `d` with its first `rows` pivots packed as `pivots` says:
    /// replaced by their reciprocals for [`Pivots::Reciprocal`], as
    /// `l3::pack_triangle` packs them.
    fn packed<T: Scalar>(mut d: Vec<T>, mr: usize, rows: usize, pivots: Pivots) -> Vec<T> {
        if pivots == Pivots::Reciprocal {
            for r in 0..rows {
                d[r * mr + r] = d[r * mr + r].recip();
            }
        }
        d
    }

    /// A packed `mr × mr` diagonal tile for the substitution tests, a
    /// well-conditioned triangle for `rows` rows (identity past them), and
    /// `nan` wherever it must not be read: the other triangle and, with
    /// `unit`, the diagonal.
    fn diagonal_tile<T: Scalar>(mr: usize, rows: usize, lower: bool, unit: bool, nan: T) -> Vec<T> {
        // op(A)(r, k) at d[k·mr + r].
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
        d
    }

    /// The contract of every kernel's tile substitution, full and ragged
    /// shapes, both directions, every [`Pivots`], with NaN wherever it must
    /// not look (the other triangle, a unit diagonal): the tile holds `X`,
    /// `xneg` holds `−X` in packed-B layout with zero lanes past `cols`, and
    /// nothing else is touched.
    fn solve_tile_contract<T: Scalar>() {
        let nan = T::from_f64(f64::NAN);
        for kern in kernels::<T>() {
            let (mr, nr) = (kern.mr(), kern.nr());
            for lower in [true, false] {
                for pivots in PIVOTS {
                    let unit = pivots == Pivots::Unit;
                    for (rows, cols) in [(mr, nr), (mr - 1, nr), (mr, nr - 1), (1, 1)] {
                        let d = diagonal_tile(mr, rows, lower, unit, nan);
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
                        let dp = packed(d, mr, rows, pivots);
                        kern.solver(lower)(pivots, &dp, &mut b, ldb, rows, cols, &mut xneg);
                        let tag = format!(
                            "{} {} lower={lower} {pivots:?} {rows}x{cols}",
                            T::PREFIX,
                            kern.name()
                        );
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
    }

    #[test]
    fn solve_tile_substitutes_in_place_and_packs_minus_x() {
        solve_tile_contract::<f32>();
        solve_tile_contract::<f64>();
        solve_tile_contract::<C32>();
        solve_tile_contract::<C64>();
    }

    /// The generic `solve_tile` at a kernel's shape.
    fn generic_solver<T: Scalar>(dims: (usize, usize), lower: bool) -> SolveTile<T> {
        match dims {
            (16, 16) => solve_tile_at::<T, 16, 16>(lower),
            (16, 8) => solve_tile_at::<T, 16, 8>(lower),
            (16, 4) => solve_tile_at::<T, 16, 4>(lower),
            (8, 4) => solve_tile_at::<T, 8, 4>(lower),
            (4, 2) => solve_tile_at::<T, 4, 2>(lower),
            _ => panic!("no generic substitution at {dims:?}"),
        }
    }

    /// Every kernel's substitution gives the generic `solve_tile`'s bits at
    /// its shape — the promise of the AVX-512 tier's register-resident
    /// one: both directions, every [`Pivots`], every ragged `rows × cols`,
    /// with and without a NaN and an Inf in `B`; and with one pivot that
    /// is subnormal, ±0, ±Inf or NaN, multiplied by its reciprocal (what
    /// the packer would never pack for the subnormal one, so the bits of
    /// either form are held) or divided by. Where a NaN pivot's reciprocal
    /// meets a NaN right-hand side, which of the two NaNs the product
    /// returns is the compiler's choice (a product commutes; a debug build
    /// and the register body pick differently), so there a NaN only has
    /// to be a NaN.
    fn solver_is_the_generic_bit_for_bit<T: Scalar>() {
        let (nan, inf) = (T::from_f64(f64::NAN), T::from_f64(f64::INFINITY));
        let sfmin = T::from_real(T::Real::sfmin());
        let special = [
            None,
            Some(sfmin * T::from_f64(0.25)),
            Some(T::zero()),
            Some(-T::zero()),
            Some(inf),
            Some(-inf),
            Some(nan),
        ];
        for kern in kernels::<T>() {
            let (mr, nr) = (kern.mr(), kern.nr());
            for lower in [true, false] {
                for pivots in PIVOTS {
                    let unit = pivots == Pivots::Unit;
                    for pivot in special {
                        if unit && pivot.is_some() {
                            continue;
                        }
                        // The identity past `rows` is the packer's; a
                        // finite tile elsewhere keeps every other NaN one
                        // of B's.
                        let mut d = diagonal_tile(mr, mr, lower, unit, T::zero());
                        if let Some(p) = pivot {
                            d[(mr / 2) * (mr + 1)] = p;
                        }
                        let d = packed(d, mr, mr, pivots);
                        for rows in 1..=mr {
                            for cols in 1..=nr {
                                for poison in [false, true] {
                                    let ldb = rows + 2;
                                    let mut b0: Vec<T> = vals(cols * ldb, 12);
                                    if poison {
                                        b0[rows / 2 + (cols - 1) * ldb] = nan;
                                        b0[rows - 1] = inf;
                                    }
                                    let nan_pivot = pivot.is_some_and(|p| p.is_nan());
                                    let out = |v: &[T]| {
                                        let mut v = bits(v);
                                        for p in v.iter_mut().flat_map(|x| [&mut x.0, &mut x.1]) {
                                            if nan_pivot && f64::from_bits(*p).is_nan() {
                                                *p = f64::NAN.to_bits();
                                            }
                                        }
                                        v
                                    };
                                    let run = |solve: SolveTile<T>| {
                                        let (mut b, mut xneg) = (b0.clone(), vec![nan; rows * nr]);
                                        solve(pivots, &d, &mut b, ldb, rows, cols, &mut xneg);
                                        (out(&b), out(&xneg))
                                    };
                                    assert!(
                                        run(kern.solver(lower))
                                            == run(generic_solver((mr, nr), lower)),
                                        "{} {} lower={lower} {pivots:?} pivot={pivot:?} \
                                         {rows}x{cols} poison={poison}",
                                        T::PREFIX,
                                        kern.name()
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_solver_is_the_generic_substitution_bit_for_bit() {
        solver_is_the_generic_bit_for_bit::<f32>();
        solver_is_the_generic_bit_for_bit::<f64>();
        solver_is_the_generic_bit_for_bit::<C32>();
        solver_is_the_generic_bit_for_bit::<C64>();
    }

    #[test]
    fn tile_where_adds_exactly_the_kept_entries() {
        fn check<T: Scalar>() {
            let kb = 5;
            for kern in kernels::<T>() {
                let (mr, nr) = (kern.mr(), kern.nr());
                let ap: Vec<T> = vals(kb * mr, 7);
                let bp: Vec<T> = vals(kb * nr, 8);
                let ldc = mr + 1;
                let c0: Vec<T> = vals(nr * ldc, 9);
                let mut full = c0.clone();
                kern.tile(kb, &ap, &bp, &mut full, ldc, mr, nr);
                let mut got = c0.clone();
                tile_where(kern, kb, &ap, &bp, &mut got, ldc, mr - 1, nr, |r, s| r >= s);
                for s in 0..nr {
                    for r in 0..ldc {
                        let kept = r < mr - 1 && r >= s;
                        let want = if kept { &full } else { &c0 }[r + s * ldc];
                        let tag = format!("{} {mr}x{nr} ({r},{s})", kern.name());
                        assert_eq!(got[r + s * ldc], want, "{tag}");
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
