//! Level 3 BLAS: matrix-matrix operations.
//!
//! `gemm` is the workhorse the LAPACK blocked algorithms lean on (the
//! paper's §1.1: "LAPACK addresses this problem by reorganizing the
//! algorithms to use block matrix operations ... in the innermost loops").
//! The implementation is a BLASFEO-style packed path: operand panels are
//! copied once into contiguous zero-padded buffers ([`crate::pack`]) and a
//! register-tiled microkernel ([`crate::kernel`]) does the flops, with the
//! MC/KC/NC cache blocking and the kernel choice read from the runtime
//! [`la_core::tune`] configuration.
//!
//! `gemm`, left-side `trsm` and `trmm`, and `syrk`/`herk` each hand one
//! *band body* to one band driver (`bands`): it cuts the output into
//! column bands and runs them on the calling thread or across OS threads
//! ([`la_core::ctx::fan_out`]) — the data-parallel decomposition a Rayon
//! `par_chunks_mut` would express. Every body makes its kernel choices
//! from the whole call's shape, so any cut gives the one-thread bits, and
//! the ABFT recovery (`crate::abft`) re-runs the same body on the bands
//! it restores. `symm` routes its large products through `gemm`.
//!
//! Every decision point (thread budget, flop threshold, kernel, blocking)
//! reads the ambient context once on the *calling* thread and travels down
//! into the workers as a resolved [`PackedPlan`], so callers can retune or
//! force paths per call tree via `tune::with` without recompiling.
//! `trmm`, `syrk`/`herk` and `symm` route their inner updates through the
//! same packed gemm; left-side `trsm` drives the microkernel itself, over
//! a packed triangle (`trsm_left_cols`) — so the microkernel carries the
//! flops of the blocked factorizations above as well.
//!
//! Internally the whole call chain — banding, packing, the macro-kernel,
//! the ABFT checksum passes — passes typed [`MatRef`]/[`MatMut`] views
//! instead of raw `(&[T], lda, offset)` triples; the public signatures
//! keep the Fortran-style slice interface.

use la_core::{ctx, probe, tune, Diag, MatMut, MatRef, Scalar, Side, Trans, Uplo};

use crate::kernel::{self, PackedPlan};
use crate::l1::{axpy, laswp};
use crate::pack;

/// Estimated bytes touched by an operation that reads `reads` elements and
/// reads-and-writes `writes` output elements of `T`.
fn probe_bytes<T: Scalar>(reads: usize, writes: usize) -> u64 {
    ((reads + 2 * writes) * std::mem::size_of::<T>()) as u64
}

#[inline(always)]
fn cj<T: Scalar>(conj: bool, x: T) -> T {
    if conj {
        x.conj()
    } else {
        x
    }
}

/// Dimension product for a parallel-threshold flop estimate. Computed in
/// `u128` so extreme dimensions (`m·n·k` overflows `usize` already at
/// ~2.6M per side on 64-bit) saturate instead of wrapping around to a
/// small value that would silently force the serial path.
fn flop_product(d0: usize, d1: usize, d2: usize) -> u128 {
    d0 as u128 * d1 as u128 * d2 as u128
}

/// The one fork of the Level-3 operations: runs `body(j0, band)` over the
/// column bands of `c`, where `band` is the `width(workers)` columns
/// starting at column `j0` (the last band may be narrower), and returns
/// that width — the unit the ABFT recovery maps a bad column to.
///
/// The worker count is 1 below the parallel flop threshold (`flops` under
/// `par_flops`) or at a thread budget of one, else the budget with at
/// least `min_cols` columns a worker; the probe span notes the threads
/// that actually ran (1 when the OS refused every one). One
/// worker runs the bands in order on the calling thread; more take them in
/// order from one [`ctx::fan_out`]. Every body makes its kernel choices
/// from the whole call's shape, never from its band's, so neither the
/// worker count, nor the width, nor a band re-run by the recovery changes
/// a bit of the result.
///
/// With the `fault-inject` feature this hosts the one silent-corruption
/// hook of the Level-3 operations (`la_core::abft::inject`), addressed by
/// band index: it hits the band's first column at row `min(j0, m − 1)` —
/// the diagonal of a triangular update, referenced under either `uplo`.
fn bands<T: Scalar, F>(
    routine: &'static str,
    cfg: &tune::TuneConfig,
    flops: u128,
    min_cols: usize,
    width: impl FnOnce(usize) -> usize,
    c: MatMut<'_, T>,
    body: &F,
) -> usize
where
    F: Fn(usize, MatMut<'_, T>) + Sync,
{
    let n = c.ncols();
    let workers = if flops < cfg.par_flops as u128 || cfg.max_threads == 1 {
        1
    } else {
        cfg.threads().min(n.div_ceil(min_cols)).max(1)
    };
    let width = width(workers).max(1);
    let workers = workers.min(n.div_ceil(width));
    // The bands, cut lazily off the front of what is left of `c`.
    let mut rest = Some((0, c));
    let cut = std::iter::from_fn(move || {
        let (j0, c) = rest.take().filter(|(_, c)| c.ncols() > 0)?;
        let w = width.min(c.ncols());
        let (band, tail) = c.split_at_col(w);
        rest = Some((j0 + band.ncols(), tail));
        Some((j0, band))
    });
    #[cfg(not(feature = "fault-inject"))]
    let _ = routine;
    let ran = ctx::fan_out(workers, cut, |(j0, mut band): (usize, MatMut<'_, T>)| {
        body(j0, band.rb());
        #[cfg(feature = "fault-inject")]
        {
            let i = j0.min(band.nrows() - 1);
            la_core::abft::inject::maybe_corrupt(routine, j0 / width, band.at_mut(i, 0));
        }
    });
    probe::note_parallelism(ran);
    width
}

/// Depth (`k`) extent of op(A) given its stored view.
fn op_k<T: Scalar>(transa: Trans, a: &MatRef<'_, T>) -> usize {
    match transa {
        Trans::No => a.ncols(),
        _ => a.nrows(),
    }
}

/// General matrix-matrix product (`xGEMM`):
/// `C := alpha*op(A)*op(B) + beta*C`,
/// where `op(A)` is `m × k` and `op(B)` is `k × n`.
#[allow(clippy::too_many_arguments)]
pub fn gemm<T: Scalar>(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    // One ambient read serves the span, the plan and the ABFT gate.
    let ctx = ctx::current();
    let _probe = probe::span_in(
        &ctx,
        probe::Layer::Blas,
        "gemm",
        probe::flops::gemm(m, n, k),
        probe_bytes::<T>(m * k + k * n, m * n),
    );
    if m == 0 || n == 0 {
        return;
    }
    // C := beta*C
    if beta != T::one() {
        for j in 0..n {
            let col = &mut c[j * ldc..j * ldc + m];
            if beta.is_zero() {
                col.fill(T::zero());
            } else {
                for ci in col {
                    *ci *= beta;
                }
            }
        }
    }
    if alpha.is_zero() || k == 0 {
        return;
    }

    let cfg = &ctx.tune;
    let (ar, ac) = if transa == Trans::No { (m, k) } else { (k, m) };
    let (br, bc) = if transb == Trans::No { (k, n) } else { (n, k) };
    let av = MatRef::new(a, ar, ac, lda);
    let bv = MatRef::new(b, br, bc, ldb);
    let abft = crate::abft::active(&ctx, flop_product(m, n, k));
    // The kernel is chosen once, from the call's shape: the unpacked sweep
    // below the packing crossover needs, unprotected, no fork.
    let plan = PackedPlan::<T>::from_cfg(cfg);
    let small = small(&plan, m, n, k);
    if small && abft.is_none() {
        probe::note_parallelism(1);
        probe::note_kernel("small");
        gemm_small(transa, transb, alpha, av, bv, MatMut::new(c, m, n, ldc));
        return;
    }
    probe::note_kernel(if small { "small" } else { plan.kern.name() });
    // ABFT (see `crate::abft`): encode the column checksum after the
    // β-scaling, before the product accumulates.
    let check = abft.map(|pol| {
        crate::abft::gemm_encode(
            pol,
            transa,
            transb,
            alpha,
            av,
            bv,
            MatRef::new(c, m, n, ldc),
        )
    });
    let body = |j0: usize, cb: MatMut<'_, T>| {
        let w = cb.ncols();
        let bsub = match transb {
            Trans::No => bv.subview(0, j0, k, w),
            _ => bv.subview(j0, 0, w, k),
        };
        gemm_with(&plan, small, transa, transb, alpha, av, bsub, cb);
    };
    let cv = MatMut::new(c, m, n, ldc);
    let width = bands(
        "gemm",
        cfg,
        flop_product(m, n, k),
        8,
        |w| n.div_ceil(w),
        cv,
        &body,
    );
    if let Some(ck) = check {
        let cv = MatMut::new(c, m, n, ldc);
        crate::abft::verify_cols("gemm", ck, width, &body, cv, |c, j| {
            crate::abft::sum(c.col(j))
        });
    }
}

/// Products below this `m·n·k` run the unpacked sweep under an `Auto`
/// kernel selection (packing overhead dominates); an explicit kernel
/// selection forces the packed path at every size.
const SMALL_CROSSOVER: usize = 24 * 24 * 24;

/// Whether an `m × n × k` product runs the unpacked sweep: below
/// [`SMALL_CROSSOVER`], unless the plan's kernel was chosen explicitly.
fn small<T: Scalar>(plan: &PackedPlan<T>, m: usize, n: usize, k: usize) -> bool {
    !plan.force && flop_product(m, n, k) < SMALL_CROSSOVER as u128
}

/// `C += alpha*op(A)*op(B)` (beta already applied) on the kernel the
/// caller chose from its whole call's shape: the unpacked sweep when
/// `small`, the packed microkernel otherwise. A piece of a call computes
/// its elements exactly as the whole call would.
#[allow(clippy::too_many_arguments)]
fn gemm_with<T: Scalar>(
    plan: &PackedPlan<T>,
    small: bool,
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
) {
    if small {
        gemm_small(transa, transb, alpha, a, b, c);
    } else {
        gemm_packed(plan, transa, transb, alpha, a, b, c, None);
    }
}

/// Straightforward sweep used for small products, where packing overhead
/// would dominate.
fn gemm_small<T: Scalar>(
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    let k = op_k(transa, &a);
    let cja = transa.is_conj();
    let cjb = transb.is_conj();
    let bel = |l: usize, j: usize| -> T {
        match transb {
            Trans::No => b.at(l, j),
            _ => cj(cjb, b.at(j, l)),
        }
    };
    match transa {
        Trans::No => {
            for j in 0..n {
                let ccol = c.col_mut(j);
                for l in 0..k {
                    let t = alpha * bel(l, j);
                    if !t.is_zero() {
                        axpy(m, t, a.col(l), 1, ccol, 1);
                    }
                }
            }
        }
        _ => {
            for j in 0..n {
                for i in 0..m {
                    let acol = a.col(i);
                    let mut s = T::zero();
                    match transb {
                        Trans::No => {
                            let bcol = b.col(j);
                            if cja {
                                for l in 0..k {
                                    s += acol[l].conj() * bcol[l];
                                }
                            } else {
                                for l in 0..k {
                                    s += acol[l] * bcol[l];
                                }
                            }
                        }
                        _ => {
                            for l in 0..k {
                                s += cj(cja, acol[l]) * cj(cjb, b.at(j, l));
                            }
                        }
                    }
                    *c.at_mut(i, j) += alpha * s;
                }
            }
        }
    }
}

/// The part of `C` a packed sweep may touch when `C` is a piece of a
/// triangular update: element `(i, j)` of the swept view is referenced iff
/// `i ≥ j + shift` (`lower`) or `i ≤ j + shift` (upper).
#[derive(Clone, Copy)]
struct Triangle {
    lower: bool,
    shift: usize,
}

impl Triangle {
    fn keeps(self, i: usize, j: usize) -> bool {
        if self.lower {
            i >= j + self.shift
        } else {
            i <= j + self.shift
        }
    }
}

/// Packed gemm (Goto/BLASFEO GEBP): op(B) panels of `KC×NC` and op(A)
/// blocks of `MC×KC` are packed once into the thread-local arena, and the
/// plan's microkernel accumulates each MR×NR register tile straight into
/// `C`; ragged edges are zero-padded in the panels and masked by the
/// kernel, so results are deterministic for a given plan. Under a
/// [`Triangle`] the triangle is just another mask: tiles wholly outside it
/// are skipped and the tiles its edge crosses are masked element-wise.
// Not inlined: one copy of the loop nest per scalar type serves both
// callers, and measured ~5 % faster on the rank-k update than a copy
// inlined into each.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn gemm_packed<T: Scalar>(
    plan: &PackedPlan<T>,
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    mut c: MatMut<'_, T>,
    tri: Option<Triangle>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    let k = op_k(transa, &a);
    let (mr, nr) = (plan.kern.mr(), plan.kern.nr());
    let (mc, kc, nc) = (plan.mc, plan.kc, plan.nc);
    let a_cap = mc.min(m).div_ceil(mr) * mr * kc.min(k);
    let b_cap = nc.min(n).div_ceil(nr) * nr * kc.min(k);
    let ldc = c.lda();
    let cs = c.as_mut_slice();
    pack::with_arena::<T, _>(a_cap, b_cap, |apack, bpack| {
        let mut jc = 0;
        while jc < n {
            let nb = nc.min(n - jc);
            let nb_pad = nb.div_ceil(nr) * nr;
            let mut lc = 0;
            while lc < k {
                let kb = kc.min(k - lc);
                let bpack = &mut bpack[..nb_pad * kb];
                pack::pack_b(bpack, b, transb, lc, kb, jc, nb, nr, alpha);
                panel_update(
                    plan,
                    transa,
                    a,
                    0..m,
                    (lc, kb),
                    bpack,
                    (jc, nb),
                    apack,
                    cs,
                    ldc,
                    tri,
                );
                lc += kb;
            }
            jc += nb;
        }
    });
}

/// The macro-kernel under one packed B panel:
/// `C[span, jc..jc+nb] += op(A)[span, lc..lc+kb]·Bp`, with `bpack` the
/// `kb × nb` panel in [`pack::pack_b`] layout and `apack` room for an
/// `MC × kb` block of op(A), which is packed here `MC` rows at a time.
/// `cs` is the whole of `C` (column stride `ldc`); `tri` masks as in
/// [`gemm_packed`].
#[allow(clippy::too_many_arguments)]
fn panel_update<T: Scalar>(
    plan: &PackedPlan<T>,
    transa: Trans,
    a: MatRef<'_, T>,
    span: std::ops::Range<usize>,
    (lc, kb): (usize, usize),
    bpack: &[T],
    cols: (usize, usize),
    apack: &mut [T],
    cs: &mut [T],
    ldc: usize,
    tri: Option<Triangle>,
) {
    let mr = plan.kern.mr();
    let mut ic = span.start;
    while ic < span.end {
        let mb = plan.mc.min(span.end - ic);
        let ap = &mut apack[..mb.div_ceil(mr) * mr * kb];
        pack::pack_a(ap, a, transa, ic, mb, lc, kb, mr);
        tiles(plan.kern, ap, (ic, mb), kb, bpack, cols, cs, ldc, tri);
        ic += mb;
    }
}

/// The tile loops of the macro-kernel:
/// `C[ic..ic+mb, jc..jc+nb] += Ap·Bp` over a depth of `kb`, with `apack`
/// the `mb` rows in [`pack::pack_a`] layout and `bpack` the `nb` columns in
/// [`pack::pack_b`] layout. `cs` is the whole of `C` (column stride
/// `ldc`); `tri` masks as in [`gemm_packed`].
// Not inlined: one copy of the tile loops per scalar type serves the gemm
// nest, the solve sweep and the LU step, and measured 4–6 % faster on a
// 64×64×32 update than a copy inlined into `gemm_packed`.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn tiles<T: Scalar>(
    kern: &dyn kernel::MicroKernel<T>,
    apack: &[T],
    (ic, mb): (usize, usize),
    kb: usize,
    bpack: &[T],
    (jc, nb): (usize, usize),
    cs: &mut [T],
    ldc: usize,
    tri: Option<Triangle>,
) {
    let (mr, nr) = (kern.mr(), kern.nr());
    for js in (0..nb).step_by(nr) {
        let bp = &bpack[js * kb..(js + nr) * kb];
        let cols = nr.min(nb - js);
        for is in (0..mb).step_by(mr) {
            let ap = &apack[is * kb..(is + mr) * kb];
            let rows = mr.min(mb - is);
            // The tile covers rows i.., columns j.. of C.
            let (i, j) = (ic + is, jc + js);
            let ct = &mut cs[i + j * ldc..];
            let Some(tri) = tri else {
                kern.tile(kb, ap, bp, ct, ldc, rows, cols);
                continue;
            };
            // The corners deepest inside / outside a lower
            // triangle; the other way round for an upper.
            let (bl, tr) = ((i + rows - 1, j), (i, j + cols - 1));
            let (best, worst) = if tri.lower { (bl, tr) } else { (tr, bl) };
            if !tri.keeps(best.0, best.1) {
                continue;
            }
            if tri.keeps(worst.0, worst.1) {
                kern.tile(kb, ap, bp, ct, ldc, rows, cols);
            } else {
                kernel::tile_where(kern, kb, ap, bp, ct, ldc, rows, cols, |r, s| {
                    tri.keeps(i + r, j + s)
                });
            }
        }
    }
}

/// Symmetric (`xSYMM`, `conj = false`) or Hermitian (`xHEMM`,
/// `conj = true`) matrix-matrix product:
/// `C := alpha*A*B + beta*C` (`Side::Left`) or `alpha*B*A + beta*C`
/// (`Side::Right`), with `A` symmetric/Hermitian, one triangle stored.
#[allow(clippy::too_many_arguments)]
pub fn symm<T: Scalar>(
    conj: bool,
    side: Side,
    uplo: Uplo,
    m: usize,
    n: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    // Large symm routes through gemm below; the gemm span nests under this
    // one, so counter totals are inclusive along the call tree.
    let _probe = probe::span(
        probe::Layer::Blas,
        "symm",
        probe::flops::symm(side, m, n),
        probe_bytes::<T>(na * (na + 1) / 2 + m * n, m * n),
    );
    // Full element of the symmetric A from its stored triangle.
    let ael = |i: usize, j: usize| -> T {
        let stored_upper = uplo == Uplo::Upper;
        if (i <= j) == stored_upper || i == j {
            let v = a[i + j * lda];
            if conj && i == j {
                T::from_real(v.re())
            } else {
                v
            }
        } else {
            cj(conj, a[j + i * lda])
        }
    };
    debug_assert!(na <= lda.max(na));
    // Large products: materialise the full symmetric A (O(na²) memory,
    // negligible against the O(m·n·na) flops) and route through gemm so the
    // heavy lifting gets the packed kernel and the tune-driven column
    // striping. Same crossover as gemm's own small-product cutoff.
    if m * n * na >= SMALL_CROSSOVER {
        let mut afull = vec![T::zero(); na * na];
        for j in 0..na {
            for i in 0..na {
                afull[i + j * na] = ael(i, j);
            }
        }
        match side {
            Side::Left => gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                m,
                alpha,
                &afull,
                na,
                b,
                ldb,
                beta,
                c,
                ldc,
            ),
            Side::Right => gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                n,
                alpha,
                b,
                ldb,
                &afull,
                na,
                beta,
                c,
                ldc,
            ),
        }
        return;
    }
    for j in 0..n {
        for i in 0..m {
            let mut s = T::zero();
            match side {
                Side::Left => {
                    for l in 0..m {
                        s += ael(i, l) * b[l + j * ldb];
                    }
                }
                Side::Right => {
                    for l in 0..n {
                        s += b[i + l * ldb] * ael(l, j);
                    }
                }
            }
            let cc = &mut c[i + j * ldc];
            *cc = if beta.is_zero() {
                T::zero()
            } else {
                beta * *cc
            } + alpha * s;
        }
    }
}

/// Symmetric rank-k update (`xSYRK`):
/// `C := alpha*op(A)*op(A)ᵀ + beta*C`, updating only the `uplo` triangle.
/// `trans = No` uses `A` (`n × k`); `trans = Trans` uses `Aᵀ`.
#[allow(clippy::too_many_arguments)]
pub fn syrk<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    let _probe = probe::span(
        probe::Layer::Blas,
        "syrk",
        probe::flops::syrk(n, k),
        probe_bytes::<T>(n * k, n * (n + 1) / 2),
    );
    syrk_impl(false, uplo, trans, n, k, alpha, a, lda, beta, c, ldc)
}

/// Hermitian rank-k update (`xHERK`):
/// `C := alpha*op(A)*op(A)ᴴ + beta*C` with real `alpha`, `beta`
/// represented as `T` (imaginary parts must be zero).
#[allow(clippy::too_many_arguments)]
pub fn herk<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    n: usize,
    k: usize,
    alpha: T::Real,
    a: &[T],
    lda: usize,
    beta: T::Real,
    c: &mut [T],
    ldc: usize,
) {
    let _probe = probe::span(
        probe::Layer::Blas,
        "herk",
        probe::flops::syrk(n, k),
        probe_bytes::<T>(n * k, n * (n + 1) / 2),
    );
    syrk_impl(
        T::IS_COMPLEX,
        uplo,
        trans,
        n,
        k,
        T::from_real(alpha),
        a,
        lda,
        T::from_real(beta),
        c,
        ldc,
    )
}

#[allow(clippy::too_many_arguments)]
fn syrk_impl<T: Scalar>(
    conj: bool,
    uplo: Uplo,
    trans: Trans,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    if alpha.is_zero() || k == 0 {
        for j in 0..n {
            let (lo, hi) = match uplo {
                Uplo::Upper => (0, j + 1),
                Uplo::Lower => (j, n),
            };
            if beta != T::one() {
                for i in lo..hi {
                    let cc = &mut c[i + j * ldc];
                    *cc = if beta.is_zero() {
                        T::zero()
                    } else {
                        beta * *cc
                    };
                }
            }
            if conj {
                let cc = &mut c[j + j * ldc];
                *cc = T::from_real(cc.re());
            }
        }
        return;
    }
    // The update decomposes into column bands of C, each one triangle-
    // masked packed sweep (`band_update`). One worker takes `NC`-wide
    // bands; more take `SYRK_NB`-wide ones, which balances the triangle's
    // uneven band heights. A band's width does not change any element's
    // summation order.
    let ctx = ctx::current();
    let cfg = &ctx.tune;
    let plan = PackedPlan::<T>::from_cfg(cfg);
    probe::note_kernel(plan.kern.name());
    let (ar, ac) = if trans == Trans::No { (n, k) } else { (k, n) };
    let av = MatRef::new(a, ar, ac, lda);
    let flops = flop_product(n, n, k) / 2;
    // ABFT: encode over the stored triangle before the update runs (the
    // bands β-scale internally, so the snapshot is the pristine input).
    let check = crate::abft::active(&ctx, flops).map(|pol| {
        crate::abft::syrk_encode(
            pol,
            conj,
            uplo,
            trans,
            k,
            alpha,
            av,
            beta,
            MatRef::new(c, n, n, ldc),
        )
    });
    let ops = match (trans, conj) {
        (Trans::No, false) => (Trans::No, Trans::Trans),
        (Trans::No, true) => (Trans::No, Trans::ConjTrans),
        (_, false) => (Trans::Trans, Trans::No),
        (_, true) => (Trans::ConjTrans, Trans::No),
    };
    // One band: `op(A)·op(A)ᵀ`, or `·op(A)ᴴ` with a real diagonal.
    let body = |j0: usize, mut cb: MatMut<'_, T>| {
        band_update(&plan, uplo, ops, k, alpha, &[(av, av)], beta, j0, cb.rb());
        if conj {
            for j in 0..cb.ncols() {
                let cc = cb.at_mut(j0 + j, j);
                *cc = T::from_real(cc.re());
            }
        }
    };
    let width = |w: usize| if w > 1 { SYRK_NB } else { plan.nc };
    let cv = MatMut::new(c, n, n, ldc);
    let width = bands("syrk", cfg, flops, SYRK_NB, width, cv, &body);
    if let Some(ck) = check {
        let cv = MatMut::new(c, n, n, ldc);
        // Only the stored triangle is summed.
        let sum = |c: &MatMut<'_, T>, j: usize| match uplo {
            Uplo::Upper => crate::abft::sum(&c.col(j)[..=j]),
            Uplo::Lower => crate::abft::sum(&c.col(j)[j..]),
        };
        crate::abft::verify_cols("syrk", ck, width, &body, cv, sum);
    }
}

/// Column-band width of the rank-k update at more than one worker.
const SYRK_NB: usize = 48;

/// One column band of a triangular update,
/// `C := β·C + α·Σ op(X)·op(Y)ᵀ` over the `(X, Y)` pairs in `terms`, on
/// the `uplo` triangle only: β-scales the band's part of the triangle
/// (unless β = 1), then makes one triangle-masked packed sweep
/// ([`gemm_packed`]) per term over the rows the triangle references — the
/// band's rows of `op(Y)` are packed once per depth block (the B side of
/// the product). `(ta, tb)` are the gemm ops that make `op(X)` and
/// `op(Y)ᵀ` of the stored operands; `cb` is the column band of `C`
/// starting at column `j0`.
#[allow(clippy::too_many_arguments)]
fn band_update<T: Scalar>(
    plan: &PackedPlan<T>,
    uplo: Uplo,
    (ta, tb): (Trans, Trans),
    k: usize,
    alpha: T,
    terms: &[(MatRef<'_, T>, MatRef<'_, T>)],
    beta: T,
    j0: usize,
    mut cb: MatMut<'_, T>,
) {
    let (n, jb) = (cb.nrows(), cb.ncols());
    // C := β·C, skipped at β = 1 as `gemm` skips it.
    if beta != T::one() {
        for j in j0..j0 + jb {
            let (lo, hi) = match uplo {
                Uplo::Upper => (0, j + 1),
                Uplo::Lower => (j, n),
            };
            for cc in &mut cb.col_mut(j - j0)[lo..hi] {
                *cc = if beta.is_zero() {
                    T::zero()
                } else {
                    beta * *cc
                };
            }
        }
    }
    // Rows i0..i0+ib of op(X) as a stored subview.
    fn rows_of<T: Scalar>(
        x: MatRef<'_, T>,
        ta: Trans,
        k: usize,
        i0: usize,
        ib: usize,
    ) -> MatRef<'_, T> {
        match ta {
            Trans::No => x.subview(i0, 0, ib, k),
            _ => x.subview(0, i0, k, ib),
        }
    }
    let lower = uplo == Uplo::Lower;
    // Rows of the band the triangle references.
    let (r0, r1) = if lower { (j0, n) } else { (0, j0 + jb) };
    let tri = Triangle {
        lower,
        shift: j0 - r0,
    };
    for &(x, y) in terms {
        gemm_packed(
            plan,
            ta,
            tb,
            alpha,
            rows_of(x, ta, k, r0, r1 - r0),
            rows_of(y, ta, k, j0, jb),
            cb.rb().subview(r0, 0, r1 - r0, jb),
            Some(tri),
        );
    }
}

/// Symmetric rank-2k update (`xSYR2K`):
/// `C := alpha*op(A)*op(B)ᵀ + alpha*op(B)*op(A)ᵀ + beta*C`.
#[allow(clippy::too_many_arguments)]
pub fn syr2k<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    n: usize,
    k: usize,
    alpha: T,
    a: &[T],
    lda: usize,
    b: &[T],
    ldb: usize,
    beta: T,
    c: &mut [T],
    ldc: usize,
) {
    let _probe = probe::span(
        probe::Layer::Blas,
        "syr2k",
        probe::flops::syr2k(n, k),
        probe_bytes::<T>(2 * n * k, n * (n + 1) / 2),
    );
    if n == 0 {
        return;
    }
    let cfg = tune::current();
    let plan = PackedPlan::<T>::from_cfg(&cfg);
    // Large updates run like syrk's serial path: `NC`-wide column bands,
    // each one masked packed sweep per product term.
    if !alpha.is_zero() && k > 0 && !small(&plan, n, n, k) {
        probe::note_kernel(plan.kern.name());
        let (r, cdim) = if trans == Trans::No { (n, k) } else { (k, n) };
        let av = MatRef::new(a, r, cdim, lda);
        let bv = MatRef::new(b, r, cdim, ldb);
        // syr2k is symmetric (never conjugating): any transposed op maps
        // to a plain transpose in the gemm terms.
        let ops = if trans == Trans::No {
            (Trans::No, Trans::Trans)
        } else {
            (Trans::Trans, Trans::No)
        };
        let mut cv = MatMut::new(c, n, n, ldc);
        let mut j0 = 0usize;
        while j0 < n {
            let jb = plan.nc.min(n - j0);
            let cb = cv.rb().subview(0, j0, n, jb);
            band_update(
                &plan,
                uplo,
                ops,
                k,
                alpha,
                &[(av, bv), (bv, av)],
                beta,
                j0,
                cb,
            );
            j0 += jb;
        }
        return;
    }
    let ael = |i: usize, l: usize| -> T {
        match trans {
            Trans::No => a[i + l * lda],
            _ => a[l + i * lda],
        }
    };
    let bel = |i: usize, l: usize| -> T {
        match trans {
            Trans::No => b[i + l * ldb],
            _ => b[l + i * ldb],
        }
    };
    for j in 0..n {
        let (lo, hi) = match uplo {
            Uplo::Upper => (0, j + 1),
            Uplo::Lower => (j, n),
        };
        for i in lo..hi {
            let mut s = T::zero();
            for l in 0..k {
                s += ael(i, l) * bel(j, l) + bel(i, l) * ael(j, l);
            }
            let cc = &mut c[i + j * ldc];
            *cc = if beta.is_zero() {
                T::zero()
            } else {
                beta * *cc
            } + alpha * s;
        }
    }
}

/// Order at or below which `trmm` stays on its per-column Level-2 form;
/// above it it goes blocked, with the off-diagonal updates on the packed
/// gemm.
const TRX_NB: usize = 48;

/// Triangular matrix-matrix product (`xTRMM`):
/// `B := alpha*op(A)*B` (`Side::Left`) or `B := alpha*B*op(A)`
/// (`Side::Right`), with `A` triangular.
#[allow(clippy::too_many_arguments)]
pub fn trmm<T: Scalar>(
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
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    let _probe = probe::span(
        probe::Layer::Blas,
        "trmm",
        probe::flops::trmm(side, m, n),
        probe_bytes::<T>(na * (na + 1) / 2, m * n),
    );
    trmm_impl(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
}

/// Uninstrumented trmm body: the `Side::Right` path recurses into the
/// left-side algorithm through this entry so the recursion does not open
/// a second probe span for the same user-level call.
#[allow(clippy::too_many_arguments)]
fn trmm_impl<T: Scalar>(
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
    if m == 0 || n == 0 {
        return;
    }
    // Reference xTRMM: alpha = 0 sets B := 0 without referencing A.
    if alpha.is_zero() {
        for j in 0..n {
            b[j * ldb..j * ldb + m].fill(T::zero());
        }
        return;
    }
    match side {
        Side::Left => {
            let ctx = ctx::current();
            let abft = crate::abft::active(&ctx, flop_product(m, m, n) / 2);
            // Small shapes first: with a few columns a trmv each beats
            // setting up the blocked product (no plan, no workspace).
            if n < TRSM_OPA_MIN_COLS && abft.is_none() {
                probe::note_parallelism(1);
                probe::note_kernel("trmv");
                let (av, bv) = (MatRef::new(a, m, m, lda), MatMut::new(b, m, n, ldb));
                trmv_cols(uplo, trans, diag, alpha, av, bv);
                return;
            }
            // Column bands of B are independent: band := alpha·op(A)·band.
            let cfg = &ctx.tune;
            let plan = PackedPlan::<T>::from_cfg(cfg);
            probe::note_kernel(plan.kern.name());
            let av = MatRef::new(a, m, m, lda);
            // ABFT: encode from the unscaled input (the column kernel
            // applies alpha itself).
            let check = abft.map(|pol| {
                crate::abft::trmm_encode(
                    pol,
                    uplo,
                    trans,
                    diag,
                    alpha,
                    av,
                    MatRef::new(b, m, n, ldb),
                )
            });
            let body = |_: usize, bb: MatMut<'_, T>| {
                trmm_left_cols(&plan, n, uplo, trans, diag, alpha, av, bb)
            };
            let flops = flop_product(m, m, n) / 2;
            let bv = MatMut::new(b, m, n, ldb);
            let width = bands("trmm", cfg, flops, 4, |w| n.div_ceil(w), bv, &body);
            if let Some(ck) = check {
                let bv = MatMut::new(b, m, n, ldb);
                let sum = |b: &MatMut<'_, T>, j: usize| crate::abft::sum(b.col(j));
                crate::abft::verify_cols("trmm", ck, width, &body, bv, sum);
            }
        }
        Side::Right => {
            if m >= 12 {
                // Cache-friendly path: materialise Bᵀ, apply from the left
                // (unit-stride trmv columns), transpose back. The O(mn)
                // copies are negligible against the O(mn²) compute.
                let cjb = trans == Trans::ConjTrans;
                let mut bt = vec![T::zero(); n * m];
                transpose_into(m, n, b, ldb, &mut bt, n, cjb);
                let ltr = match trans {
                    Trans::No => Trans::Trans,
                    _ => Trans::No,
                };
                trmm_impl(
                    Side::Left,
                    uplo,
                    ltr,
                    diag,
                    n,
                    m,
                    T::one(),
                    a,
                    lda,
                    &mut bt,
                    n,
                );
                transpose_into(n, m, &bt, n, b, ldb, cjb);
                if alpha != T::one() {
                    for j in 0..n {
                        for x in &mut b[j * ldb..j * ldb + m] {
                            *x = alpha * *x;
                        }
                    }
                }
                return;
            }
            // Row i of B: rᵀ := op(A)ᵀ rᵀ. The stored triangle of A is
            // unchanged; only the trans flag composes with the transpose.
            for i in 0..m {
                let row = &mut b[i..];
                match trans {
                    Trans::No => crate::l2::trmv(uplo, Trans::Trans, diag, n, a, lda, row, ldb),
                    Trans::Trans => crate::l2::trmv(uplo, Trans::No, diag, n, a, lda, row, ldb),
                    Trans::ConjTrans => {
                        // r := r Aᴴ  ⇔  rᵀ := Ā rᵀ = conj(A · conj(rᵀ)).
                        crate::l1::lacgv(n, row, ldb);
                        crate::l2::trmv(uplo, Trans::No, diag, n, a, lda, row, ldb);
                        crate::l1::lacgv(n, row, ldb);
                    }
                }
                if alpha != T::one() {
                    let mut idx = 0;
                    for _ in 0..n {
                        row[idx] *= alpha;
                        idx += ldb;
                    }
                }
            }
        }
    }
}

/// `b_j := alpha·op(A)·b_j`, one `trmv` per column: the whole product at
/// small orders and for narrow `b`.
fn trmv_cols<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        crate::l2::trmv(uplo, trans, diag, col.len(), a.as_slice(), a.lda(), col, 1);
        if alpha != T::one() {
            for x in col {
                *x *= alpha;
            }
        }
    }
}

/// Serial left-side trmm: `b := alpha·op(A)·b` over every column of the
/// band. Small orders run a trmv per column; larger ones go blocked —
/// per diagonal block, the triangular part stays a trmv while the
/// off-diagonal contribution comes from gemm into a scratch panel (the
/// scratch sidesteps aliasing between the read and written row ranges of
/// `b`), on the kernel the whole call's width `n` picks.
#[allow(clippy::too_many_arguments)]
fn trmm_left_cols<T: Scalar>(
    plan: &PackedPlan<T>,
    n: usize,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    alpha: T,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    let m = b.nrows();
    let w = b.ncols();
    if m == 0 || w == 0 {
        return;
    }
    if m <= TRX_NB {
        trmv_cols(uplo, trans, diag, alpha, a, b);
        return;
    }
    // Whether op(A) acts as a *lower* triangular factor (row i draws on
    // rows ≤ i): stored-lower untransposed, or stored-upper transposed.
    let eff_lower = (uplo == Uplo::Lower) != trans.is_transposed();
    let nblk = m.div_ceil(TRX_NB);
    let mut tmp = vec![T::zero(); TRX_NB * w];
    let mut step = |i0: usize, ib: usize| {
        // Off-diagonal contribution op(A)[block, rest]·B[rest] into tmp.
        let (r0, rb) = if eff_lower {
            (0, i0)
        } else {
            (i0 + ib, m - i0 - ib)
        };
        let use_tmp = rb > 0;
        if use_tmp {
            tmp[..ib * w].fill(T::zero());
            let (asub, ta) = match (uplo, eff_lower) {
                (Uplo::Lower, true) => (a.subview(i0, 0, ib, i0), Trans::No),
                (Uplo::Upper, true) => (a.subview(0, i0, i0, ib), trans),
                (Uplo::Upper, false) => (a.subview(i0, i0 + ib, ib, rb), Trans::No),
                (Uplo::Lower, false) => (a.subview(i0 + ib, i0, rb, ib), trans),
            };
            gemm_with(
                plan,
                small(plan, ib, n, rb),
                ta,
                Trans::No,
                T::one(),
                asub,
                b.as_ref().subview(r0, 0, rb, w),
                MatMut::new(&mut tmp[..ib * w], ib, w, ib),
            );
        }
        // Diagonal block in place, then combine and scale.
        let ad = a.subview(i0, i0, ib, ib);
        for j in 0..w {
            let seg = &mut b.col_mut(j)[i0..i0 + ib];
            crate::l2::trmv(uplo, trans, diag, ib, ad.as_slice(), ad.lda(), seg, 1);
            let tcol = &tmp[j * ib..j * ib + ib];
            for (x, &t) in seg.iter_mut().zip(tcol) {
                let v = if use_tmp { *x + t } else { *x };
                *x = if alpha == T::one() { v } else { alpha * v };
            }
        }
    };
    if eff_lower {
        // Descending: each block reads the still-unmodified rows above it.
        for bi in (0..nblk).rev() {
            let i0 = bi * TRX_NB;
            step(i0, TRX_NB.min(m - i0));
        }
    } else {
        // Ascending: each block reads the still-unmodified rows below it.
        for bi in 0..nblk {
            let i0 = bi * TRX_NB;
            step(i0, TRX_NB.min(m - i0));
        }
    }
}

/// Triangular solve with multiple right-hand sides (`xTRSM`):
/// `op(A)·X = alpha·B` (`Side::Left`) or `X·op(A) = alpha·B`
/// (`Side::Right`); `X` overwrites `B`.
///
/// From four right-hand sides (any number under ABFT) the packed solve
/// sweep runs, and a `Diag::NonUnit` sweep multiplies by each pivot's
/// reciprocal, packed once per diagonal block, where the reference
/// `xTRSM` divides (as BLASFEO's and OpenBLAS's kernels do): results
/// differ from the division in the last place, the same way on every
/// kernel and tier. A block with a subnormal pivot — whose reciprocal
/// overflows — divides instead (`xGETF2`'s `sfmin` rule,
/// [`crate::kernel::reciprocal_is_safe`]), so `1e-310/1e-310` stays 1.
/// Fewer right-hand sides take `trsv` per column, which divides.
#[allow(clippy::too_many_arguments)]
pub fn trsm<T: Scalar>(
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
    let na = match side {
        Side::Left => m,
        Side::Right => n,
    };
    let _probe = probe::span(
        probe::Layer::Blas,
        "trsm",
        probe::flops::trsm(side, m, n),
        probe_bytes::<T>(na * (na + 1) / 2, m * n),
    );
    trsm_impl(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb)
}

/// Uninstrumented trsm body: the `Side::Right` path recurses into the
/// left-side algorithm through this entry so the recursion does not open
/// a second probe span for the same user-level call.
#[allow(clippy::too_many_arguments)]
fn trsm_impl<T: Scalar>(
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
    if m == 0 || n == 0 {
        return;
    }
    // Reference xTRSM: alpha = 0 sets B := 0 without referencing A.
    if alpha.is_zero() {
        for j in 0..n {
            b[j * ldb..j * ldb + m].fill(T::zero());
        }
        return;
    }
    if alpha != T::one() {
        for j in 0..n {
            for x in &mut b[j * ldb..j * ldb + m] {
                *x = alpha * *x;
            }
        }
    }
    match side {
        Side::Left => {
            let ctx = ctx::current();
            let abft = crate::abft::active(&ctx, flop_product(m, m, n) / 2);
            let av = MatRef::new(a, m, m, lda);
            // The kernel is chosen once, from the call's own width: with a
            // few right-hand sides a trsv each beats setting up the packed
            // sweep. Every band and ABFT re-run solves with the same
            // choice, so a column's result depends on neither.
            let narrow = n < TRSM_OPA_MIN_COLS;
            if narrow && abft.is_none() {
                probe::note_parallelism(1);
                probe::note_kernel("trsv");
                trsv_cols(uplo, trans, diag, av, MatMut::new(b, m, n, ldb));
                return;
            }
            let cfg = &ctx.tune;
            let plan = PackedPlan::<T>::from_cfg(cfg);
            // Each right-hand-side column solves independently against the
            // same triangle, so the columns of B split into bands like
            // gemm's C.
            let solve = |_: usize, bb: MatMut<'_, T>| {
                if narrow {
                    trsv_cols(uplo, trans, diag, av, bb)
                } else {
                    trsm_left_cols(&plan, uplo, trans, diag, av, bb)
                }
            };
            probe::note_kernel(if narrow { "trsv" } else { plan.kern.name() });
            // ABFT: alpha is already folded into B, so the column sums of
            // B as it stands are the expected values of (eᵀop(A))·X.
            let check = abft.map(|pol| {
                crate::abft::trsm_encode(pol, uplo, trans, diag, av, MatRef::new(b, m, n, ldb))
            });
            let flops = flop_product(m, m, n) / 2;
            let bv = MatMut::new(b, m, n, ldb);
            let width = bands("trsm", cfg, flops, 4, |w| n.div_ceil(w), bv, &solve);
            if let Some(ck) = check {
                crate::abft::trsm_verify(ck, width, &solve, MatMut::new(b, m, n, ldb));
            }
        }
        Side::Right => {
            if m >= 12 {
                // Transpose, left-solve (unit-stride columns), transpose
                // back — the same trick as trmm's right side.
                let cjb = trans == Trans::ConjTrans;
                let mut bt = vec![T::zero(); n * m];
                transpose_into(m, n, b, ldb, &mut bt, n, cjb);
                let ltr = match trans {
                    Trans::No => Trans::Trans,
                    _ => Trans::No,
                };
                trsm_impl(
                    Side::Left,
                    uplo,
                    ltr,
                    diag,
                    n,
                    m,
                    T::one(),
                    a,
                    lda,
                    &mut bt,
                    n,
                );
                transpose_into(n, m, &bt, n, b, ldb, cjb);
                return;
            }
            // X·op(A) = B  ⇔  op(A)ᵀ·Xᵀ = Bᵀ: solve along the rows of B,
            // composing the transposes (triangle of A is unchanged).
            for i in 0..m {
                let row = &mut b[i..];
                match trans {
                    Trans::No => crate::l2::trsv(uplo, Trans::Trans, diag, n, a, lda, row, ldb),
                    Trans::Trans => crate::l2::trsv(uplo, Trans::No, diag, n, a, lda, row, ldb),
                    Trans::ConjTrans => {
                        // X Aᴴ = B  ⇔  Ā Xᵀ = Bᵀ  ⇔  A conj(Xᵀ) = conj(Bᵀ).
                        crate::l1::lacgv(n, row, ldb);
                        crate::l2::trsv(uplo, Trans::No, diag, n, a, lda, row, ldb);
                        crate::l1::lacgv(n, row, ldb);
                    }
                }
            }
        }
    }
}

/// Serial left-side triangular solve over the columns of `b` (alpha
/// already applied), `op(A)·x_j = b_j`, as one sweep of the packed
/// microkernel. Per diagonal block of order ≤ `KC` the triangle of op(A)
/// is packed once ([`pack_triangle`], with the pivots' reciprocals where
/// [`kernel::reciprocal_is_safe`] allows); per `NC` band of `b` the block's
/// rows are solved ([`solve_band`]), and the rows outside the block then
/// take an ordinary packed update from the −X panel that solve leaves.
/// Row panels sit on the `MR` grid of the whole triangle and columns do
/// not interact, so a column's result depends on nothing but `m`.
fn trsm_left_cols<T: Scalar>(
    plan: &PackedPlan<T>,
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    let (m, w) = (b.nrows(), b.ncols());
    if m == 0 || w == 0 {
        return;
    }
    let (mr, nr) = (plan.kern.mr(), plan.kern.nr());
    // Whether op(A) acts as a *lower* triangular factor: forward
    // substitution, ascending rows.
    let lower = (uplo == Uplo::Lower) != trans.is_transposed();
    let kd = diag_block(plan);
    let tri_cap = tri_len(kd.min(m), mr);
    // Room for the op(A) blocks of the off-block update, if there is one.
    let blk_cap = if m > kd {
        plan.mc.min(m).div_ceil(mr) * mr * kd
    } else {
        0
    };
    let x_cap = plan.nc.min(w).div_ceil(nr) * nr * kd.min(m);
    let ldb = b.lda();
    let bs = b.as_mut_slice();
    pack::with_arena::<T, _>(tri_cap + blk_cap, x_cap, |abuf, xpack| {
        let (tri, apack) = abuf.split_at_mut(tri_cap);
        let nblk = m.div_ceil(kd);
        for bi in 0..nblk {
            let k0 = if lower { bi } else { nblk - 1 - bi } * kd;
            let kb = kd.min(m - k0);
            let pivots = pack_triangle(tri, a, trans, lower, diag, k0, kb, mr);
            // The rows still to be solved.
            let rest = if lower { k0 + kb..m } else { 0..k0 };
            let mut jc = 0;
            while jc < w {
                let nb = plan.nc.min(w - jc);
                let xp = &mut xpack[..nb.div_ceil(nr) * nr * kb];
                solve_band(
                    plan.kern,
                    tri,
                    (lower, pivots),
                    (k0, kb),
                    (jc, nb),
                    bs,
                    ldb,
                    xp,
                );
                panel_update(
                    plan,
                    trans,
                    a,
                    rest.clone(),
                    (k0, kb),
                    xp,
                    (jc, nb),
                    apack,
                    bs,
                    ldb,
                    None,
                );
                jc += nb;
            }
        }
    });
}

/// Order of the solve sweep's diagonal blocks: `KC` on the `MR` grid.
fn diag_block<T: Scalar>(plan: &PackedPlan<T>) -> usize {
    let mr = plan.kern.mr();
    (plan.kc / mr).max(1) * mr
}

/// Elements of a packed triangle of order `kb` ([`pack_triangle`]).
fn tri_len(kb: usize, mr: usize) -> usize {
    let np = kb.div_ceil(mr);
    mr * mr * np * (np + 1) / 2
}

/// The substitution of the solve sweep on one band: solves rows
/// `k0..k0 + kb` of columns `jc..jc + nb` of `bs` (column stride `ldb`)
/// against the diagonal block packed in `tri` ([`pack_triangle`]), every
/// row outside the block already applied. Per `NR`-column panel the
/// block's row panels are walked in substitution order: the kernel adds
/// `A·(−X)` of the rows already solved straight into the `b` tile (`X` is
/// kept negated, in packed-B layout, so the `C += Ap·Bp` tile contract
/// serves unchanged), the tile is substituted against its diagonal tile,
/// whose diagonal `pivots` describes, and `X` goes to `bs`, `−X` to
/// `xpack` — which then holds the band's `kb × nb` panel of −X in
/// [`pack::pack_b`] layout.
#[allow(clippy::too_many_arguments)]
fn solve_band<T: Scalar>(
    kern: &dyn kernel::MicroKernel<T>,
    tri: &[T],
    (lower, pivots): (bool, kernel::Pivots),
    (k0, kb): (usize, usize),
    (jc, nb): (usize, usize),
    bs: &mut [T],
    ldb: usize,
    xpack: &mut [T],
) {
    let (mr, nr) = (kern.mr(), kern.nr());
    let solve_tile = kern.solver(lower);
    for js in (0..nb).step_by(nr) {
        let cols = nr.min(nb - js);
        let xp = &mut xpack[js * kb..(js + nr) * kb];
        for (is, rows, solved, at) in tri_panels(kb, mr, lower) {
            let (dt, ap) = tri[at..at + (mr + solved) * mr].split_at(mr * mr);
            let bt = &mut bs[k0 + is + (jc + js) * ldb..];
            if solved > 0 {
                // The solved rows: above the panel, or below.
                let x0 = if lower { 0 } else { is + rows };
                let xs = &xp[x0 * nr..(x0 + solved) * nr];
                kern.tile(solved, ap, xs, bt, ldb, rows, cols);
            }
            let xneg = &mut xp[is * nr..(is + rows) * nr];
            solve_tile(pivots, dt, bt, ldb, rows, cols, xneg);
        }
    }
}

/// One step of right-looking LU on the `n` columns `c` right of a
/// factored panel `l` — the `m × jb` unit-lower `L11` over `L21`, both
/// counted from the panel's first row, as is `c`: the panel's row
/// interchanges `ipiv` (1-based, from the panel's first row),
/// `U12 := L11⁻¹·A12` and `A22 −= L21·U12`. This is the `laswp`, the
/// `trsm` and the `gemm` of a blocked `getrf` step, with their bits, in
/// one serial sweep.
///
/// Where the `trsm` and the `gemm` would both pack, the step packs `L11`
/// and `L21` once and then walks bands of `c` a few hundred KiB wide
/// (`lu_band`): each band takes its interchanges, the substitution of
/// the solve sweep (`solve_band`), which leaves −U12 in packed-B layout,
/// and the update of the rows below from that panel — while the band is
/// still in cache, and with no copy of `U12`. Below those sizes (fewer
/// than four columns, a product under the packing crossover, or a panel
/// deeper than one diagonal block) the step runs the forms the separate
/// calls would choose.
#[allow(clippy::too_many_arguments)]
pub fn lu_step<T: Scalar>(
    m: usize,
    n: usize,
    jb: usize,
    l: &[T],
    ldl: usize,
    ipiv: &[i32],
    c: &mut [T],
    ldc: usize,
) {
    assert!(
        jb <= m && ipiv.len() >= jb,
        "lu_step: {jb} pivots over {m} rows"
    );
    let below = m - jb;
    let _probe = probe::span(
        probe::Layer::Blas,
        "lu_step",
        probe::flops::trsm(Side::Left, jb, n) + probe::flops::gemm(below, n, jb),
        probe_bytes::<T>(m * jb, m * n),
    );
    if n == 0 || jb == 0 {
        return;
    }
    probe::note_parallelism(1);
    let plan = PackedPlan::<T>::from_cfg(&tune::current());
    let (mr, nr) = (plan.kern.mr(), plan.kern.nr());
    let lv = MatRef::new(l, m, jb, ldl);
    let l11 = lv.subview(0, 0, jb, jb);
    // Each kernel is chosen from the whole step's shape, as the separate
    // `trsm` and `gemm` calls choose theirs.
    let narrow = n < TRSM_OPA_MIN_COLS;
    let small = below > 0 && small(&plan, below, n, jb);
    if narrow || small || jb > diag_block(&plan) {
        probe::note_kernel(if narrow { "trsv" } else { plan.kern.name() });
        laswp(n, c, ldc, 0, jb, ipiv);
        let top = MatMut::new(c, jb, n, ldc);
        if narrow {
            trsv_cols(Uplo::Lower, Trans::No, Diag::Unit, l11, top);
        } else {
            trsm_left_cols(&plan, Uplo::Lower, Trans::No, Diag::Unit, l11, top);
        }
        if below == 0 {
            return;
        }
        let l21 = lv.subview(jb, 0, below, jb);
        if small {
            // U12 staged in the arena, as the unpacked sweep reads it.
            pack::with_arena::<T, _>(0, jb * n, |_, u12| {
                for (j, dst) in u12.chunks_exact_mut(jb).enumerate() {
                    dst.copy_from_slice(&c[j * ldc..j * ldc + jb]);
                }
                let u12 = MatRef::new(u12, jb, n, jb);
                let a22 = MatMut::new(&mut c[jb..], below, n, ldc);
                gemm_small(Trans::No, Trans::No, -T::one(), l21, u12, a22);
            });
            return;
        }
        // The packed nest, packing −U12 straight from `c`.
        let (kc, nc) = (plan.kc.min(jb), plan.nc.min(n));
        let a_cap = plan.mc.min(below).div_ceil(mr) * mr * kc;
        pack::with_arena::<T, _>(a_cap, nc.div_ceil(nr) * nr * kc, |apack, bpack| {
            for jc in (0..n).step_by(plan.nc) {
                let nb = plan.nc.min(n - jc);
                for lc in (0..jb).step_by(plan.kc) {
                    let kb = plan.kc.min(jb - lc);
                    let bp = &mut bpack[..nb.div_ceil(nr) * nr * kb];
                    let u12 = MatRef::new(c, jb, n, ldc);
                    pack::pack_b(bp, u12, Trans::No, lc, kb, jc, nb, nr, -T::one());
                    let cols = (jc, nb);
                    panel_update(
                        &plan,
                        Trans::No,
                        lv,
                        jb..m,
                        (lc, kb),
                        bp,
                        cols,
                        apack,
                        c,
                        ldc,
                        None,
                    );
                }
            }
        });
        return;
    }
    probe::note_kernel(plan.kern.name());
    // `L21` is packed once when it fits, and the bands are cut for the
    // cache; else it is packed per `MC` block of each `NC` band, as in gemm.
    let whole = below * jb * std::mem::size_of::<T>() <= LU_PACK_BYTES;
    let bw = if whole { lu_band::<T>(m, nr) } else { plan.nc }.min(n);
    let tri_cap = tri_len(jb, mr);
    let l21_rows = if whole { below } else { plan.mc.min(below) };
    let a_cap = tri_cap + l21_rows.div_ceil(mr) * mr * jb;
    pack::with_arena::<T, _>(a_cap, bw.div_ceil(nr) * nr * jb, |abuf, xpack| {
        let (tri, apack) = abuf.split_at_mut(tri_cap);
        let piv = pack_triangle(tri, lv, Trans::No, true, Diag::Unit, 0, jb, mr);
        if whole {
            pack::pack_a(apack, lv, Trans::No, jb, below, 0, jb, mr);
        }
        let mc = (plan.mc / mr).max(1) * mr;
        for jc in (0..n).step_by(bw) {
            let nb = bw.min(n - jc);
            laswp(nb, &mut c[jc * ldc..], ldc, 0, jb, ipiv);
            let xp = &mut xpack[..nb.div_ceil(nr) * nr * jb];
            solve_band(plan.kern, tri, (true, piv), (0, jb), (jc, nb), c, ldc, xp);
            if !whole {
                let cols = (jc, nb);
                panel_update(
                    &plan,
                    Trans::No,
                    lv,
                    jb..m,
                    (0, jb),
                    xp,
                    cols,
                    apack,
                    c,
                    ldc,
                    None,
                );
                continue;
            }
            for i0 in (0..below).step_by(mc) {
                let mb = mc.min(below - i0);
                let ap = &apack[i0 * jb..];
                tiles(plan.kern, ap, (jb + i0, mb), jb, xp, (jc, nb), c, ldc, None);
            }
        }
    });
}

/// Largest `L21` (in bytes) that [`lu_step`] packs once for all its
/// bands — a serial step's up to ≈ 1 000 f64 rows. A task-graph block's
/// deeper panel takes `gemm`'s per-block packing instead, so the arena of
/// each of the graph's short-lived workers stays at `gemm`'s size.
const LU_PACK_BYTES: usize = 256 << 10;

/// Bytes of `c` one band of [`lu_step`] spans.
const LU_BAND_BYTES: usize = 384 << 10;

/// Width of one band of [`lu_step`] over `m` rows: [`LU_BAND_BYTES`] of
/// `T`, on the `NR` grid and at least one `NR` panel.
fn lu_band<T: Scalar>(m: usize, nr: usize) -> usize {
    (LU_BAND_BYTES / (m * std::mem::size_of::<T>()) / nr).max(1) * nr
}

/// One step of right-looking Cholesky on the block of order `jb + rest`
/// whose corner is `a[0]`, `A11` (`jb × jb`) already factored: the
/// off-diagonal block (`U12 := U11⁻ᴴ·A12`, resp. `L21 := A21·L11⁻ᴴ`), then
/// `A22 −= U12ᴴ·U12` (resp. `L21·L21ᴴ`) on the `uplo` triangle. This is
/// the `trsm` and the `herk` of a blocked `potrf` step, with their bits,
/// in one serial sweep.
///
/// Either triangle solves `op(A11)·X = B` by forward substitution, `X`
/// being `jb × rest`: `U12` in place (`op = ᴴ`), or `L21ᴴ` in `ws` (at
/// least `jb·rest` elements, contents ignored; an Upper step reads none
/// of it), into which the step copies `A21`'s conjugate transpose and out
/// of which it copies `L21` back. The step packs the triangle once; per
/// `NC` band of `X` the substitution of the solve sweep (`solve_band`)
/// leaves −X in packed-B layout, and that panel is the B side of the
/// triangle-masked update of the band's columns of `A22`, whose A side,
/// `Xᴴ`, is packed per `MC` block from rows of `X` already solved — Upper
/// walks the bands left to right (it reads the rows above), Lower right to
/// left (the rows below). Bands, blocks, tiles and masks are `herk`'s at
/// one thread. With fewer than four columns, or a triangle deeper than one
/// diagonal block or one `KC` depth, the step runs the forms the separate
/// calls would choose.
pub fn chol_step<T: Scalar>(
    uplo: Uplo,
    jb: usize,
    rest: usize,
    a: &mut [T],
    lda: usize,
    ws: &mut [T],
) {
    let _probe = probe::span(
        probe::Layer::Blas,
        "chol_step",
        probe::flops::trsm(Side::Left, jb, rest) + probe::flops::syrk(rest, jb),
        probe_bytes::<T>(jb * (jb + 1) / 2, jb * rest + rest * (rest + 1) / 2),
    );
    if rest == 0 || jb == 0 {
        return;
    }
    probe::note_parallelism(1);
    let plan = PackedPlan::<T>::from_cfg(&tune::current());
    let (mr, nr) = (plan.kern.mr(), plan.kern.nr());
    let upper = uplo == Uplo::Upper;
    // op(A11) is lower triangular either way: U11ᴴ, or L11.
    let trans = if upper { Trans::ConjTrans } else { Trans::No };
    let (left, right) = a.split_at_mut(jb * lda);
    let (mut copy, ldx) = match uplo {
        Uplo::Upper => (None, lda),
        Uplo::Lower => {
            let copy = &mut ws[..jb * rest];
            for c in 0..jb {
                for (r, &x) in left[jb + c * lda..][..rest].iter().enumerate() {
                    copy[c + r * jb] = x.conj();
                }
            }
            (Some(copy), jb)
        }
    };
    let a11 = MatRef::new(left, jb, jb, lda);
    let tri = Triangle {
        lower: !upper,
        shift: 0,
    };
    // The rows of A22 a band of columns `jc..jc + nb` references.
    let rows = |jc: usize, nb: usize| if upper { 0..jc + nb } else { jc..rest };
    let narrow = rest < TRSM_OPA_MIN_COLS;
    probe::note_kernel(if narrow { "trsv" } else { plan.kern.name() });
    // The sweep solves a band while it updates: it needs `trsm`'s packed
    // form on one diagonal block of one depth block. Else the solve's own
    // form runs first, and the update packs −X from its result per `KC`
    // depth block, as `herk` does.
    let fused = !narrow && jb <= diag_block(&plan) && jb <= plan.kc;
    if !fused {
        let x = MatMut::new(copy.as_deref_mut().unwrap_or(right), jb, rest, ldx);
        if narrow {
            trsv_cols(uplo, trans, Diag::NonUnit, a11, x);
        } else {
            trsm_left_cols(&plan, uplo, trans, Diag::NonUnit, a11, x);
        }
    }
    let kc = plan.kc.min(jb);
    let tri_cap = if fused { tri_len(jb, mr) } else { 0 };
    let a_cap = tri_cap + plan.mc.min(rest).div_ceil(mr) * mr * kc;
    let b_cap = plan.nc.min(rest).div_ceil(nr) * nr * kc;
    pack::with_arena::<T, _>(a_cap, b_cap, |abuf, bpack| {
        let (tp, apack) = abuf.split_at_mut(tri_cap);
        let piv = fused.then(|| pack_triangle(tp, a11, trans, true, Diag::NonUnit, 0, jb, mr));
        let nbands = rest.div_ceil(plan.nc);
        for q in 0..nbands {
            // A Lower band reads the rows of X right of it.
            let jc = if upper { q } else { nbands - 1 - q } * plan.nc;
            let nb = plan.nc.min(rest - jc);
            for lc in (0..jb).step_by(plan.kc) {
                let kb = plan.kc.min(jb - lc);
                let bp = &mut bpack[..nb.div_ceil(nr) * nr * kb];
                if let Some(piv) = piv {
                    let xs = copy.as_deref_mut().unwrap_or(right);
                    solve_band(plan.kern, tp, (true, piv), (0, jb), (jc, nb), xs, ldx, bp);
                } else {
                    let x = MatRef::new(copy.as_deref().unwrap_or(right), jb, rest, ldx);
                    pack::pack_b(bp, x, Trans::No, lc, kb, jc, nb, nr, -T::one());
                }
                let home = (copy.as_deref(), ldx);
                let block = (rows(jc, nb), (lc, kb), (jc, nb));
                chol_update(&plan, (right, lda), home, (jb, rest), block, bp, apack, tri);
            }
            // `herk` leaves the diagonal of a Hermitian update real.
            if T::IS_COMPLEX {
                for j in jc..jc + nb {
                    let d = &mut right[jb + j + j * lda];
                    *d = T::from_real(d.re());
                }
            }
        }
    });
    if let Some(copy) = copy {
        for c in 0..jb {
            for (r, x) in left[jb + c * lda..][..rest].iter_mut().enumerate() {
                *x = copy[c + r * jb].conj();
            }
        }
    }
}

/// `A22 −= XᴴX` on the rows and columns of `A22` that `block` names, at its
/// depth block `(lc, kb)`, for a [`chol_step`]: `A22` is `right` below its
/// top `jb` rows (column stride `lda`), `X` the `jb × rest` panel in the
/// copy given (with its column stride), else in those top rows. `bpack`
/// holds the columns' `kb` rows of −X in packed-B layout, and `Xᴴ` is
/// packed here per `MC` block of rows, as `herk`'s sweep packs it; `tri`
/// masks the tiles.
#[allow(clippy::too_many_arguments)]
fn chol_update<T: Scalar>(
    plan: &PackedPlan<T>,
    (right, lda): (&mut [T], usize),
    (copy, ldx): (Option<&[T]>, usize),
    (jb, rest): (usize, usize),
    (rows, (lc, kb), cols): (std::ops::Range<usize>, (usize, usize), (usize, usize)),
    bpack: &[T],
    apack: &mut [T],
    tri: Triangle,
) {
    let mr = plan.kern.mr();
    let mut ic = rows.start;
    while ic < rows.end {
        let mb = plan.mc.min(rows.end - ic);
        let ap = &mut apack[..mb.div_ceil(mr) * mr * kb];
        let x = MatRef::new(copy.unwrap_or(right), jb, rest, ldx);
        pack::pack_a(ap, x, Trans::ConjTrans, ic, mb, lc, kb, mr);
        let a22 = &mut right[jb..];
        tiles(
            plan.kern,
            ap,
            (ic, mb),
            kb,
            bpack,
            cols,
            a22,
            lda,
            Some(tri),
        );
        ic += mb;
    }
}

/// The `MR`-row panels of a diagonal block of order `kb`, in substitution
/// order (top down for `lower`, bottom up otherwise), as `(is, rows,
/// solved, at)`: first block row, height, block rows solved before it and
/// the panel's offset in the packed triangle. Panels are cut from the top
/// of the block, so only the bottom one can be ragged.
fn tri_panels(
    kb: usize,
    mr: usize,
    lower: bool,
) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    let np = kb.div_ceil(mr);
    let (mut solved, mut at) = (0, 0);
    (0..np).map(move |q| {
        let is = if lower { q } else { np - 1 - q } * mr;
        let rows = mr.min(kb - is);
        let item = (is, rows, solved, at);
        at += (mr + solved) * mr;
        solved += rows;
        item
    })
}

/// Packs the triangle of `op(A)(k0.., k0..)` of order `kb` for the solve
/// sweep: per row panel of [`tri_panels`], the `MR × MR` diagonal tile
/// (rows past a ragged edge made the identity) followed by the panel's
/// `MR × solved` part against the rows solved before it — compact, each
/// panel only as deep as the triangle reaches. [`pack::pack_a`] transposes
/// and conjugates; the unreferenced triangle is copied into the diagonal
/// tiles but never read from them.
///
/// Returns what the diagonal tiles' diagonals hold, for the substitution
/// ([`kernel::Pivots`]). A `Diag::NonUnit` block whose every pivot passes
/// [`kernel::reciprocal_is_safe`] — `xGETF2`'s `sfmin` rule — has each
/// pivot replaced by its reciprocal, one division per pivot, so that the
/// substitution multiplies; a block with a subnormal pivot keeps the
/// pivots and divides, as the reference `xTRSM` does.
#[allow(clippy::too_many_arguments)]
fn pack_triangle<T: Scalar>(
    tri: &mut [T],
    a: MatRef<'_, T>,
    trans: Trans,
    lower: bool,
    diag: Diag,
    k0: usize,
    kb: usize,
    mr: usize,
) -> kernel::Pivots {
    for (is, rows, solved, at) in tri_panels(kb, mr, lower) {
        let (dt, ap) = tri[at..at + (mr + solved) * mr].split_at_mut(mr * mr);
        let i0 = k0 + is;
        pack::pack_a(&mut dt[..rows * mr], a, trans, i0, rows, i0, rows, mr);
        dt[rows * mr..].fill(T::zero());
        for r in rows..mr {
            dt[r * mr + r] = T::one();
        }
        let l0 = if lower { k0 } else { i0 + rows };
        pack::pack_a(ap, a, trans, i0, rows, l0, solved, mr);
    }
    if diag == Diag::Unit {
        return kernel::Pivots::Unit;
    }
    // The packed pivots, at `r·(mr + 1)` of each diagonal tile.
    let pivots = || {
        tri_panels(kb, mr, lower)
            .flat_map(move |(_, rows, _, at)| (0..rows).map(move |r| at + r * (mr + 1)))
    };
    if !pivots().all(|p| kernel::reciprocal_is_safe(tri[p])) {
        return kernel::Pivots::Divide;
    }
    for p in pivots() {
        tri[p] = tri[p].recip();
    }
    kernel::Pivots::Reciprocal
}

/// Side of the square blocks [`transpose_into`] copies: each destination
/// column of a block takes a whole 64-byte line of `f64`, so a transpose
/// with a long destination stride writes a few lines at a time instead of
/// one element per line.
const TRANSPOSE_BLOCK: usize = 8;

/// `dst := srcᵀ` (conjugated when `conj`): `src` is `m × n` with column
/// stride `lds`, `dst` is `n × m` with column stride `ldd`. Copies
/// [`TRANSPOSE_BLOCK`]-square blocks, a block row of `src` at a time, each
/// block read down its columns.
fn transpose_into<T: Scalar>(
    m: usize,
    n: usize,
    src: &[T],
    lds: usize,
    dst: &mut [T],
    ldd: usize,
    conj: bool,
) {
    const B: usize = TRANSPOSE_BLOCK;
    for i0 in (0..m).step_by(B) {
        let rows = B.min(m - i0);
        for j0 in (0..n).step_by(B) {
            for j in j0..(j0 + B).min(n) {
                let col = &src[i0 + j * lds..][..rows];
                for (i, &v) in (i0..).zip(col) {
                    dst[j + i * ldd] = if conj { v.conj() } else { v };
                }
            }
        }
    }
}

/// Right-hand-side count from which the Level-3 forms pay for their
/// set-up: below it left-side [`trsm`] / [`trmm`] run a `trsv` / `trmv` per
/// column at any order.
const TRSM_OPA_MIN_COLS: usize = 4;

/// `op(A)·x_j = b_j`, one `trsv` per column: cheaper than any set-up when
/// `b` is narrow.
fn trsv_cols<T: Scalar>(
    uplo: Uplo,
    trans: Trans,
    diag: Diag,
    a: MatRef<'_, T>,
    mut b: MatMut<'_, T>,
) {
    for j in 0..b.ncols() {
        let col = b.col_mut(j);
        crate::l2::trsv(uplo, trans, diag, col.len(), a.as_slice(), a.lda(), col, 1);
    }
}

#[cfg(test)]
mod band_tests {
    use super::*;
    use la_core::{RealScalar, C64};

    #[test]
    fn flop_estimates_do_not_wrap_at_extreme_dims() {
        // m·n·k in bare usize wraps already at ~2.6M per side on 64-bit;
        // a wrapped estimate would land below par_flops and silently
        // force the serial path. The u128 product must keep such sizes
        // above any realistic threshold.
        let huge = 1usize << 22; // (2^22)^3 = 2^66 > usize::MAX
        let p = flop_product(huge, huge, huge);
        assert_eq!(p, 1u128 << 66);
        assert!(p > usize::MAX as u128);
        // The wrapped usize computation demonstrates the old failure:
        assert_eq!(huge.wrapping_mul(huge).wrapping_mul(huge), 0);
        // And the worker rule reads the estimate as it is: under a
        // four-thread budget a tiny product stays one band of width `n`,
        // the u128-sized one takes four.
        let cfg = tune::TuneConfig {
            max_threads: 4,
            oversubscribe: true,
            ..tune::TuneConfig::defaults()
        };
        let n = 64;
        let mut c = vec![0.0f64; n * n];
        let mut width = |flops: u128| {
            let cv = MatMut::new(&mut c, n, n, n);
            bands("rule", &cfg, flops, 1, |w| n.div_ceil(w), cv, &|_, _| {})
        };
        assert_eq!(width(flop_product(8, 8, 8)), n);
        assert_eq!(width(p), n.div_ceil(4));
    }

    #[test]
    fn stripe_workers_run_under_the_callers_ambient() {
        // The la-blas row of la-core's hop test
        // (`ctx::tests::every_hop_carries_the_ambient_and_nothing_else`):
        // two bands under `oversubscribe` are a `ctx::fan_out`, so the
        // scoped configuration, the cancel token, the heartbeat and the
        // sibling clamp all reach the band workers, and the caller's
        // parked ABFT fault does not.
        use la_core::cancel::{self, CancelToken, Heartbeat};
        use la_core::{abft, AbftPolicy, Ctx, FpCheckPolicy, ProbePolicy};
        use std::sync::Mutex;
        // A direct read, to check the cached host count against.
        #[allow(clippy::disallowed_methods)]
        let host = std::thread::available_parallelism().map_or(1, |p| p.get());
        let sentinel = Ctx {
            tune: tune::TuneConfig {
                nb_getrf: 17,
                max_threads: 2,
                oversubscribe: true,
                ..tune::TuneConfig::defaults()
            },
            fp_check: FpCheckPolicy::Full,
            abft: AbftPolicy::Verify,
            probe: ProbePolicy::Counters,
        };
        let token = CancelToken::new();
        let outside = token.clone();
        let beat = Heartbeat::new();
        let caller = std::thread::current().id();
        let lost = Mutex::new(Vec::new());
        let check = |ok: bool, what: &str| {
            if !ok {
                lost.lock().unwrap().push(what.to_string());
            }
        };
        let body = |_: usize, _: MatMut<'_, f64>| {
            check(std::thread::current().id() != caller, "ran on the caller");
            check(ctx::current() == sentinel, "Ctx");
            check(
                tune::TuneConfig::defaults().threads() == (host / 2).clamp(1, 8),
                "sibling clamp",
            );
            let beats = beat.beats();
            cancel::cancelled();
            check(beat.beats() > beats, "heartbeat");
            check(abft::take_pending().is_none(), "ABFT pending fault crossed");
            outside.cancel();
            check(cancel::cancelled(), "cancel token");
        };
        let mut c = vec![0.0f64; 16 * 16];
        abft::clear_pending();
        abft::raise("hop-test", 7);
        ctx::with(sentinel, || {
            cancel::with_token(token, || {
                cancel::with_heartbeat(beat.clone(), || {
                    // Flops above any threshold: the budget decides.
                    let cv = MatMut::new(&mut c, 16, 16, 16);
                    let cfg = tune::current();
                    bands("hop-test", &cfg, u128::MAX, 1, |w| 16 / w, cv, &body)
                })
            })
        });
        let lost = lost.into_inner().unwrap();
        assert!(lost.is_empty(), "band hop lost: {lost:?}");
        assert_eq!(abft::take_pending().map(|f| f.block), Some(7));
    }

    fn vals<T: Scalar>(seed: u64, len: usize) -> Vec<T> {
        let mut z = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            z ^= z << 13;
            z ^= z >> 7;
            z ^= z << 17;
            T::Real::from_f64((z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0)
        };
        (0..len)
            .map(|_| {
                let re = next();
                let im = if T::IS_COMPLEX {
                    next()
                } else {
                    T::Real::zero()
                };
                T::from_re_im(re, im)
            })
            .collect()
    }

    fn bits<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
            .collect()
    }

    /// One call of the table: the routine (the name its bands carry), a
    /// label, and the call on fresh copies of its inputs, returning its
    /// output.
    type Call<T> = (&'static str, String, Box<dyn Fn() -> Vec<T>>);

    fn gemm_call<T: Scalar>(m: usize, n: usize, k: usize, tb: Trans) -> Call<T> {
        let a: Vec<T> = vals(1, m * k);
        let b: Vec<T> = vals(2, k * n);
        let c0: Vec<T> = vals(3, m * n);
        let ldb = if tb == Trans::No { k } else { n };
        let (alpha, beta) = (T::from_f64(1.5), T::from_f64(0.5));
        let call = move || {
            let mut c = c0.clone();
            gemm(
                Trans::No,
                tb,
                m,
                n,
                k,
                alpha,
                &a,
                m,
                &b,
                ldb,
                beta,
                &mut c,
                m,
            );
            c
        };
        ("gemm", format!("gemm {m}x{n}x{k} {tb:?}"), Box::new(call))
    }

    /// `gemm` (both `transb`), `syrk` and `herk` (both `uplo` and
    /// `trans`), Left `trmm` and Left `trsm` (both `uplo` and `trans`), at
    /// order `n`.
    fn calls<T: Scalar>(n: usize) -> Vec<Call<T>> {
        let mut out = vec![
            gemm_call(n, n, n, Trans::No),
            gemm_call(n, n, n, Trans::Trans),
        ];
        let k = 17;
        let mut tri: Vec<T> = vals(4, n * n);
        for i in 0..n {
            tri[i + i * n] = T::from_f64(n as f64 + 1.0);
        }
        for uplo in [Uplo::Lower, Uplo::Upper] {
            for trans in [Trans::No, Trans::ConjTrans] {
                let lda = if trans == Trans::No { n } else { k };
                let a: Vec<T> = vals(5, n * k);
                let c0: Vec<T> = vals(6, n * n);
                for hermitian in [false, true] {
                    let (a, c0) = (a.clone(), c0.clone());
                    let call = move || {
                        let mut c = c0.clone();
                        if hermitian {
                            let (alpha, beta) = (T::Real::from_f64(1.5), T::Real::from_f64(0.5));
                            herk(uplo, trans, n, k, alpha, &a, lda, beta, &mut c, n);
                        } else {
                            let (alpha, beta) = (T::from_f64(1.5), T::from_f64(0.5));
                            let trans = if trans == Trans::No {
                                trans
                            } else {
                                Trans::Trans
                            };
                            syrk(uplo, trans, n, k, alpha, &a, lda, beta, &mut c, n);
                        }
                        c
                    };
                    let name = if hermitian { "herk" } else { "syrk" };
                    out.push((
                        "syrk",
                        format!("{name} {n} {uplo:?} {trans:?}"),
                        Box::new(call),
                    ));
                }
                let b0: Vec<T> = vals(7, n * n);
                for solve in [false, true] {
                    let (tri, b0) = (tri.clone(), b0.clone());
                    let call = move || {
                        let mut b = b0.clone();
                        let (side, diag, alpha) = (Side::Left, Diag::NonUnit, T::from_f64(0.75));
                        let op = if solve { trsm::<T> } else { trmm::<T> };
                        op(side, uplo, trans, diag, n, n, alpha, &tri, n, &mut b, n);
                        b
                    };
                    let name = if solve { "trsm" } else { "trmm" };
                    out.push((
                        name,
                        format!("{name} {n} {uplo:?} {trans:?}"),
                        Box::new(call),
                    ));
                }
            }
        }
        out
    }

    /// `workers` forced bands: every call forks, whatever its size.
    fn forced(workers: usize) -> tune::TuneConfig {
        tune::TuneConfig {
            max_threads: workers,
            oversubscribe: true,
            par_flops: 0,
            ..tune::TuneConfig::defaults()
        }
    }

    /// Every call of the table at 1, 2, 3 and 5 forced workers gives the
    /// one-thread bits: the bands cut only the columns, and every band
    /// body takes its kernel from the whole call's shape. The 20 × 67 × 20
    /// `gemm` is the shape whose 17-column bands fall under the packing
    /// crossover that the whole call does not.
    fn bands_are_bit_neutral_for<T: Scalar>() {
        let one = tune::TuneConfig {
            max_threads: 1,
            ..tune::TuneConfig::defaults()
        };
        let mut table = vec![
            gemm_call::<T>(20, 67, 20, Trans::No),
            gemm_call::<T>(20, 67, 20, Trans::Trans),
        ];
        for n in [1, 7, 47, 48, 49, 97] {
            table.extend(calls::<T>(n));
        }
        for (_, what, call) in &table {
            let want = bits(&tune::with(one, call));
            for workers in [1, 2, 3, 5] {
                let got = bits(&tune::with(forced(workers), call));
                assert!(got == want, "{} {what}: {workers} workers", T::PREFIX);
            }
        }
    }

    /// An ABFT `Recover` of a corrupted ragged last band re-runs the band
    /// body on it and gives the clean bits: at order 97 two workers cut
    /// 49 + 48 columns, and `syrk`'s 48-wide bands leave one.
    #[cfg(feature = "fault-inject")]
    fn recovered_last_band_is_clean<T: Scalar>() {
        use la_core::abft::inject::{arm, is_armed, CorruptKind, Corruption};
        use la_core::abft::{self, AbftPolicy};
        let table = calls::<T>(97);
        for (routine, last) in [("gemm", 1), ("syrk", 2), ("trmm", 1), ("trsm", 1)] {
            let (_, what, call) = table.iter().find(|c| c.0 == routine).unwrap();
            let clean = bits(&tune::with(forced(1), call));
            abft::clear_pending();
            let recoveries = abft::recoveries();
            let got = abft::with_policy(AbftPolicy::Recover, || {
                arm(Corruption {
                    routine,
                    stripe: last,
                    kind: CorruptKind::FlipMantissaBit,
                });
                bits(&tune::with(forced(2), call))
            });
            let tag = format!("{} {what}", T::PREFIX);
            assert!(!is_armed(), "{tag}: the corruption did not fire");
            assert!(abft::recoveries() > recoveries, "{tag}: not recovered");
            assert!(abft::take_pending().is_none(), "{tag}: pending fault");
            assert!(got == clean, "{tag}: recovery is not the clean bits");
        }
    }

    #[test]
    fn bands_are_bit_neutral() {
        // Multi-band calls may fire a corruption another test armed.
        let _armed = crate::abft::tests::ARMED
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        bands_are_bit_neutral_for::<f64>();
        bands_are_bit_neutral_for::<C64>();
        #[cfg(feature = "fault-inject")]
        {
            recovered_last_band_is_clean::<f64>();
            recovered_last_band_is_clean::<C64>();
        }
    }
}

#[cfg(test)]
mod pack_triangle_tests {
    use super::*;
    use la_core::{RealScalar, C32, C64};

    /// [`pack_triangle`] packs the pivots' reciprocals exactly when every
    /// pivot of the block passes `xGETF2`'s rule: one pivot that is
    /// subnormal (by modulus, for the complex types) keeps the block
    /// dividing, while ±0, ±Inf, NaN, `±sfmin` and a subnormal pivot
    /// outside the block do not. Nothing but the pivots differs from the
    /// unit-diagonal packing, and a reciprocal is `recip()`'s bits.
    fn packs_reciprocals_by_the_rule<T: Scalar>() {
        let sfmin = T::Real::sfmin();
        let eps = T::Real::EPS;
        let re = |x: T::Real| T::from_real(x);
        let mut cases: Vec<(String, Option<T>, usize, kernel::Pivots)> = Vec::new();
        let (k0, kb, n) = (3usize, 21usize, 26usize);
        let inside = k0 + 5;
        let recip = kernel::Pivots::Reciprocal;
        let divide = kernel::Pivots::Divide;
        let nan = re(T::Real::nan());
        let inf = re(T::Real::one() / T::Real::zero());
        for (what, v, want) in [
            ("normal", None, recip),
            ("sfmin", Some(re(sfmin)), recip),
            ("-sfmin", Some(re(-sfmin)), recip),
            (
                "largest subnormal",
                Some(re(sfmin * (T::Real::one() - eps))),
                divide,
            ),
            (
                "-sfmin/4",
                Some(re(-sfmin / T::Real::from_f64(4.0))),
                divide,
            ),
            ("smallest subnormal", Some(re(sfmin * eps)), divide),
            ("+0", Some(T::zero()), recip),
            ("-0", Some(-T::zero()), recip),
            ("+Inf", Some(inf), recip),
            ("-Inf", Some(-inf), recip),
            ("NaN", Some(nan), recip),
        ] {
            cases.push((what.into(), v, inside, want));
        }
        let half = sfmin / T::Real::from_f64(2.0);
        cases.push(("subnormal outside".into(), Some(re(half)), k0 - 1, recip));
        if T::IS_COMPLEX {
            let small = T::from_re_im(half, half);
            cases.push(("|re + i·im| < sfmin".into(), Some(small), inside, divide));
            let three = T::Real::from_f64(0.75) * sfmin;
            let big = T::from_re_im(three, three);
            cases.push(("|re + i·im| ≥ sfmin".into(), Some(big), inside, recip));
        }
        let lda = n + 1;
        let a0: Vec<T> = (0..lda * n)
            .map(|i| {
                let x = |k: usize| T::Real::from_f64(((i * 37 + k) % 101) as f64 / 50.0 - 1.0);
                T::from_re_im(x(0) + T::Real::from_f64(2.0), x(50))
            })
            .collect();
        for mr in [4usize, 8, 16] {
            let cap = tri_len(kb, mr);
            for (what, v, at, want) in &cases {
                let mut a = a0.clone();
                if let Some(v) = *v {
                    a[at + at * lda] = v;
                }
                let av = MatRef::new(&a, n, n, lda);
                for lower in [true, false] {
                    for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
                        let tag = format!("{} {what} mr={mr} lower={lower} {trans:?}", T::PREFIX);
                        let pack = |diag: Diag| {
                            let mut tri = vec![T::zero(); cap];
                            let got = pack_triangle(&mut tri, av, trans, lower, diag, k0, kb, mr);
                            (tri, got)
                        };
                        let (plain, unit) = pack(Diag::Unit);
                        assert_eq!(unit, kernel::Pivots::Unit, "{tag}");
                        let (tri, got) = pack(Diag::NonUnit);
                        assert_eq!(got, *want, "{tag}");
                        let mut expect = plain.clone();
                        if got == recip {
                            for (_, rows, _, at) in tri_panels(kb, mr, lower) {
                                for r in 0..rows {
                                    let p = at + r * (mr + 1);
                                    expect[p] = plain[p].recip();
                                }
                            }
                        }
                        let bits = |v: &[T]| {
                            v.iter()
                                .map(|x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
                                .collect::<Vec<_>>()
                        };
                        assert!(bits(&tri) == bits(&expect), "{tag}: packed triangle");
                    }
                }
            }
        }
    }

    #[test]
    fn pack_triangle_packs_reciprocals_exactly_when_the_rule_allows() {
        packs_reciprocals_by_the_rule::<f32>();
        packs_reciprocals_by_the_rule::<f64>();
        packs_reciprocals_by_the_rule::<C32>();
        packs_reciprocals_by_the_rule::<C64>();
    }
}
