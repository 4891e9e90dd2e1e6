//! Level 3 BLAS: matrix-matrix operations.
//!
//! `gemm` is the workhorse the LAPACK blocked algorithms lean on (the
//! paper's §1.1: "LAPACK addresses this problem by reorganizing the
//! algorithms to use block matrix operations ... in the innermost loops").
//! The implementation is a BLASFEO-style packed path: operand panels are
//! copied once into contiguous zero-padded buffers ([`crate::pack`]) and a
//! register-tiled microkernel ([`crate::kernel`]) does the flops, with the
//! MC/KC/NC cache blocking and the kernel choice read from the runtime
//! [`la_core::tune`] configuration. Large products additionally split the
//! columns of `C` across OS threads ([`la_core::ctx::fan_out`]) — the same
//! data-parallel decomposition a Rayon `par_chunks_mut` would express.
//!
//! Every decision point (thread budget, flop threshold, kernel, blocking)
//! reads the ambient context once on the *calling* thread and travels down
//! into the workers as a resolved [`PackedPlan`], so callers can retune or
//! force paths per call tree via `tune::with` without recompiling.
//! `trsm`, `trmm`, `syrk`/`herk` and `symm` reuse the same column-striped
//! decomposition as `gemm`. `trmm`, `syrk`/`herk` and `symm` route their
//! inner updates through the same packed serial gemm; left-side `trsm`
//! drives the microkernel itself, over a packed triangle
//! (`trsm_left_cols`) — so the microkernel carries the flops of the
//! blocked factorizations above as well.
//!
//! Internally the whole call chain — striping, packing, the macro-kernel,
//! the ABFT checksum passes — passes typed [`MatRef`]/[`MatMut`] views
//! instead of raw `(&[T], lda, offset)` triples; the public signatures
//! keep the Fortran-style slice interface.

use la_core::{ctx, probe, tune, Diag, MatMut, MatRef, Scalar, Side, Trans, Uplo};

use crate::kernel::{self, PackedPlan};
use crate::l1::axpy;
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

/// Graceful degradation of a parallel BLAS-3 operation: snapshots the
/// output, attempts the parallel path, and — if any worker thread panics
/// (`ctx::fan_out` re-raises a worker panic on the caller)
/// — restores the snapshot and re-runs the operation on the serial path,
/// so the process survives and the result is the one the serial code
/// would have produced. The fallback is counted through
/// [`la_core::except::note_parallel_fallback`].
///
/// The snapshot is O(output), negligible against the O(m·n·k) flops that
/// put the operation above the parallel threshold in the first place.
fn with_serial_fallback<T: Scalar>(
    out: &mut [T],
    parallel: impl FnOnce(&mut [T]),
    serial: impl FnOnce(&mut [T]),
) {
    let snapshot = out.to_vec();
    let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| parallel(&mut *out)));
    if attempt.is_err() {
        out.copy_from_slice(&snapshot);
        la_core::except::note_parallel_fallback();
        serial(out);
    }
}

/// Test-only fault injection (see `TuneConfig::fault_inject_par`): panics
/// inside the worker that drew the first stripe, so the panic takes the
/// real cross-thread propagation path. Compiled only into builds with the
/// `fault-inject` cargo feature; default builds never read the flag.
fn maybe_inject_stripe_fault(stripe: usize) {
    if cfg!(feature = "fault-inject") && stripe == 0 && tune::current().fault_inject_par {
        panic!("injected BLAS-3 stripe fault");
    }
}

/// Splits the columns of `c` into `stripes` contiguous bands and runs
/// `f(j0, band)` on scoped threads, where `band` starts at column `j0`.
/// [`MatMut::split_at_col`] hands each worker a disjoint view, so the
/// split needs no manual length bookkeeping (the final band may be
/// unpadded, per the view contract).
fn stripe_cols<T: Scalar, F>(routine: &'static str, stripes: usize, c: MatMut<'_, T>, f: F)
where
    F: Fn(usize, MatMut<'_, T>) + Sync,
{
    let n = c.ncols();
    let base = n / stripes;
    let extra = n % stripes;
    #[cfg(not(feature = "fault-inject"))]
    let _ = routine;
    let mut bands = Vec::with_capacity(stripes);
    let mut rest = c;
    let mut j0 = 0usize;
    for t in 0..stripes {
        let w = base + usize::from(t < extra);
        if w == 0 {
            continue;
        }
        let (mine, tail) = rest.split_at_col(w);
        rest = tail;
        bands.push((t, j0, mine));
        j0 += w;
    }
    ctx::fan_out(stripes, bands.into_iter(), |(t, j0, mut mine)| {
        maybe_inject_stripe_fault(t);
        f(j0, mine.rb());
        // Silent-corruption injection (one-shot, armed through
        // `la_core::abft::inject`): flips one element of this worker's
        // finished band so the checksum layer above has something real to
        // detect.
        #[cfg(feature = "fault-inject")]
        la_core::abft::inject::maybe_corrupt(routine, t, &mut mine.as_mut_slice()[0]);
    });
}

/// Dimension product for a parallel-threshold flop estimate. Computed in
/// `u128` so extreme dimensions (`m·n·k` overflows `usize` already at
/// ~2.6M per side on 64-bit) saturate instead of wrapping around to a
/// small value that would silently force the serial path.
fn flop_product(d0: usize, d1: usize, d2: usize) -> u128 {
    d0 as u128 * d1 as u128 * d2 as u128
}

/// Number of column stripes worth spawning for an `n`-column output under
/// the current tuning config, with `min_cols` columns per stripe as the
/// granularity floor. Returns 1 (serial) when the flop count is below the
/// configured parallel threshold or the thread budget is 1. The tests run
/// cheapest first — two field compares settle every small call — so the
/// resolved budget is consulted only by a call that may really stripe.
fn par_stripes(cfg: &tune::TuneConfig, flops: u128, n: usize, min_cols: usize) -> usize {
    if flops < cfg.par_flops as u128 || cfg.max_threads == 1 {
        return 1;
    }
    cfg.threads().min(n.div_ceil(min_cols.max(1))).max(1)
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
    let stripes = par_stripes(cfg, flop_product(m, n, k), n, 8);
    probe::note_parallelism(stripes);
    let (ar, ac) = if transa == Trans::No { (m, k) } else { (k, m) };
    let (br, bc) = if transb == Trans::No { (k, n) } else { (n, k) };
    let av = MatRef::new(a, ar, ac, lda);
    let bv = MatRef::new(b, br, bc, ldb);
    let abft = crate::abft::active(&ctx, flop_product(m, n, k));
    // Small shapes first: a serial, unprotected product below the packing
    // crossover is the unpacked sweep and needs no plan.
    let small = cfg.gemm_kernel == tune::GemmKernel::Auto && m * n * k < SMALL_CROSSOVER;
    if small && stripes == 1 && abft.is_none() {
        probe::note_kernel("small");
        gemm_small(transa, transb, alpha, av, bv, MatMut::new(c, m, n, ldc));
        return;
    }
    let plan = PackedPlan::<T>::from_cfg(cfg);
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
    if stripes > 1 {
        with_serial_fallback(
            c,
            |c| {
                gemm_striped(
                    stripes,
                    &plan,
                    transa,
                    transb,
                    alpha,
                    av,
                    bv,
                    MatMut::new(c, m, n, ldc),
                )
            },
            |c| {
                gemm_serial(
                    &plan,
                    transa,
                    transb,
                    alpha,
                    av,
                    bv,
                    MatMut::new(c, m, n, ldc),
                )
            },
        );
    } else {
        gemm_serial(
            &plan,
            transa,
            transb,
            alpha,
            av,
            bv,
            MatMut::new(c, m, n, ldc),
        );
    }
    if let Some(ck) = check {
        crate::abft::gemm_verify(
            ck,
            stripes,
            &plan,
            transa,
            transb,
            alpha,
            av,
            bv,
            MatMut::new(c, m, n, ldc),
        );
    }
}

/// Splits the columns of `C` into `stripes` independent sub-products run
/// on scoped threads (the data-parallel decomposition a Rayon
/// `par_chunks_mut` would express). Exposed at crate level so the split
/// bookkeeping stays testable on single-core machines.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_striped<T: Scalar>(
    stripes: usize,
    plan: &PackedPlan<T>,
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
) {
    let k = op_k(transa, &a);
    stripe_cols("gemm", stripes, c, |j0, cb| {
        let w = cb.ncols();
        let bsub = match transb {
            Trans::No => b.subview(0, j0, k, w),
            _ => b.subview(j0, 0, w, k),
        };
        gemm_serial(plan, transa, transb, alpha, a, bsub, cb);
    });
}

/// Products below this `m·n·k` run the unpacked sweep under an `Auto`
/// kernel selection (packing overhead dominates); an explicit kernel
/// selection forces the packed path at every size.
const SMALL_CROSSOVER: usize = 24 * 24 * 24;

/// Serial gemm accumulating `alpha*op(A)*op(B)` into `C` (beta already
/// applied): small problems take a simple sweep; larger ones — or any
/// problem under a forced kernel choice — go through the packed
/// microkernel path.
pub(crate) fn gemm_serial<T: Scalar>(
    plan: &PackedPlan<T>,
    transa: Trans,
    transb: Trans,
    alpha: T,
    a: MatRef<'_, T>,
    b: MatRef<'_, T>,
    c: MatMut<'_, T>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    let k = op_k(transa, &a);
    if m == 0 || n == 0 || k == 0 || alpha.is_zero() {
        return;
    }
    if plan.force || m * n * k >= SMALL_CROSSOVER {
        gemm_packed(plan, transa, transb, alpha, a, b, c, None);
    } else {
        gemm_small(transa, transb, alpha, a, b, c);
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
// Not inlined: one copy of the tile loops per scalar type serves the gemm
// nest and the solve sweep, and measured 4–6 % faster on a 64×64×32 update
// than a copy inlined into `gemm_packed`.
#[allow(clippy::too_many_arguments)]
#[inline(never)]
fn panel_update<T: Scalar>(
    plan: &PackedPlan<T>,
    transa: Trans,
    a: MatRef<'_, T>,
    span: std::ops::Range<usize>,
    (lc, kb): (usize, usize),
    bpack: &[T],
    (jc, nb): (usize, usize),
    apack: &mut [T],
    cs: &mut [T],
    ldc: usize,
    tri: Option<Triangle>,
) {
    let kern = plan.kern;
    let (mr, nr) = (kern.mr(), kern.nr());
    let mut ic = span.start;
    while ic < span.end {
        let mb = plan.mc.min(span.end - ic);
        let mb_pad = mb.div_ceil(mr) * mr;
        pack::pack_a(&mut apack[..mb_pad * kb], a, transa, ic, mb, lc, kb, mr);
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
        ic += mb;
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
            for i in lo..hi {
                let cc = &mut c[i + j * ldc];
                *cc = if beta.is_zero() {
                    T::zero()
                } else {
                    beta * *cc
                };
            }
            if conj {
                let cc = &mut c[j + j * ldc];
                *cc = T::from_real(cc.re());
            }
        }
        return;
    }
    // The update decomposes into column bands of C, each one packed sweep
    // (`syrk_block`). The serial path takes `NC`-wide bands; the parallel
    // path deals `SYRK_NB`-wide ones round-robin across scoped threads,
    // which balances the triangle's uneven band heights and needs no
    // synchronisation. Both run the same band code, and a band's width
    // does not change any element's summation order.
    let ctx = ctx::current();
    let cfg = &ctx.tune;
    let plan = PackedPlan::<T>::from_cfg(cfg);
    let workers = par_stripes(cfg, flop_product(n, n, k) / 2, n, SYRK_NB).min(n.div_ceil(SYRK_NB));
    probe::note_parallelism(workers);
    probe::note_kernel(plan.kern.name());
    let (ar, ac) = if trans == Trans::No { (n, k) } else { (k, n) };
    let av = MatRef::new(a, ar, ac, lda);
    // ABFT: encode over the stored triangle before the update runs (the
    // blocks β-scale internally, so the snapshot is the pristine input).
    let check = crate::abft::active(&ctx, flop_product(n, n, k) / 2).map(|pol| {
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
    if workers > 1 {
        with_serial_fallback(
            c,
            |c| {
                syrk_blocks_par(
                    workers,
                    &plan,
                    conj,
                    uplo,
                    trans,
                    n,
                    k,
                    alpha,
                    av,
                    beta,
                    MatMut::new(c, n, n, ldc),
                )
            },
            |c| {
                syrk_blocks_serial(
                    &plan,
                    conj,
                    uplo,
                    trans,
                    n,
                    k,
                    alpha,
                    av,
                    beta,
                    MatMut::new(c, n, n, ldc),
                )
            },
        );
    } else {
        syrk_blocks_serial(
            &plan,
            conj,
            uplo,
            trans,
            n,
            k,
            alpha,
            av,
            beta,
            MatMut::new(c, n, n, ldc),
        );
    }
    if let Some(ck) = check {
        crate::abft::syrk_verify(
            ck,
            &plan,
            conj,
            uplo,
            trans,
            k,
            alpha,
            av,
            beta,
            MatMut::new(c, n, n, ldc),
        );
    }
}

/// Column-band width the parallel rank-k path deals out, and the unit
/// the ABFT recovery re-runs.
pub(crate) const SYRK_NB: usize = 48;

/// The parallel rank-k path: `SYRK_NB`-column bands dealt round-robin to
/// `workers` scoped threads. Carries the same fault-injection hook as
/// [`stripe_cols`] so the degradation path is testable here too.
#[allow(clippy::too_many_arguments)]
fn syrk_blocks_par<T: Scalar>(
    workers: usize,
    plan: &PackedPlan<T>,
    conj: bool,
    uplo: Uplo,
    trans: Trans,
    n: usize,
    k: usize,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let mut blocks: Vec<(usize, usize, MatMut<'_, T>)> = Vec::new();
    let mut rest = c;
    let mut j0 = 0usize;
    while j0 < n {
        let jb = SYRK_NB.min(n - j0);
        let (mine, tail) = rest.split_at_col(jb);
        rest = tail;
        blocks.push((j0, jb, mine));
        j0 += jb;
    }
    let mut work: Vec<Vec<(usize, usize, MatMut<'_, T>)>> = Vec::new();
    work.resize_with(workers, Vec::new);
    for (idx, blk) in blocks.into_iter().enumerate() {
        work[idx % workers].push(blk);
    }
    ctx::fan_out(workers, work.into_iter().enumerate(), |(t, list)| {
        maybe_inject_stripe_fault(t);
        for (j0, jb, mut cb) in list {
            syrk_block(plan, conj, uplo, trans, k, alpha, a, beta, j0, jb, cb.rb());
            // One-shot silent-corruption hook: hits the diagonal element
            // of this block (updated under either uplo), addressed by
            // block index so tests can aim at it.
            #[cfg(feature = "fault-inject")]
            la_core::abft::inject::maybe_corrupt("syrk", j0 / SYRK_NB, &mut cb.as_mut_slice()[j0]);
        }
    });
}

/// The serial rank-k path: `NC`-wide column bands, in order. Each element
/// sees the same additions in the same order as under the parallel
/// path's narrower bands — a band's width only moves tile boundaries.
#[allow(clippy::too_many_arguments)]
fn syrk_blocks_serial<T: Scalar>(
    plan: &PackedPlan<T>,
    conj: bool,
    uplo: Uplo,
    trans: Trans,
    n: usize,
    k: usize,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    c: MatMut<'_, T>,
) {
    let mut rest = c;
    let mut j0 = 0usize;
    while j0 < n {
        let jb = plan.nc.min(n - j0);
        let (mine, tail) = rest.split_at_col(jb);
        rest = tail;
        syrk_block(plan, conj, uplo, trans, k, alpha, a, beta, j0, jb, mine);
        j0 += jb;
    }
}

/// One column band of a rank-k update ([`band_update`] with the single
/// term `op(A)·op(A)ᵀ`, or `·op(A)ᴴ` with a real diagonal for `conj`).
/// Always packed, whatever the size. `cb` is the column band of `C`
/// starting at column `j0` (full `n` rows, `jb` columns).
#[allow(clippy::too_many_arguments)]
pub(crate) fn syrk_block<T: Scalar>(
    plan: &PackedPlan<T>,
    conj: bool,
    uplo: Uplo,
    trans: Trans,
    k: usize,
    alpha: T,
    a: MatRef<'_, T>,
    beta: T,
    j0: usize,
    jb: usize,
    mut cb: MatMut<'_, T>,
) {
    let ops = match (trans, conj) {
        (Trans::No, false) => (Trans::No, Trans::Trans),
        (Trans::No, true) => (Trans::No, Trans::ConjTrans),
        (_, false) => (Trans::Trans, Trans::No),
        (_, true) => (Trans::ConjTrans, Trans::No),
    };
    band_update(plan, uplo, ops, k, alpha, &[(a, a)], beta, j0, cb.rb());
    // The Hermitian update keeps the diagonal real.
    if conj {
        for j in j0..j0 + jb {
            let cc = cb.at_mut(j, j - j0);
            *cc = T::from_real(cc.re());
        }
    }
}

/// One column band of a triangular update,
/// `C := β·C + α·Σ op(X)·op(Y)ᵀ` over the `(X, Y)` pairs in `terms`, on
/// the `uplo` triangle only: β-scales the band's part of the triangle,
/// then makes one triangle-masked packed sweep ([`gemm_packed`]) per term
/// over the rows the triangle references — the band's rows of `op(Y)` are
/// packed once per depth block (the B side of the product). `(ta, tb)`
/// are the gemm ops that make `op(X)` and `op(Y)ᵀ` of the stored
/// operands; `cb` is the column band of `C` starting at column `j0`.
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
    for j in j0..j0 + jb {
        let (lo, hi) = match uplo {
            Uplo::Upper => (0, j + 1),
            Uplo::Lower => (j, n),
        };
        let col = cb.col_mut(j - j0);
        for cc in &mut col[lo..hi] {
            *cc = if beta.is_zero() {
                T::zero()
            } else {
                beta * *cc
            };
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
    if !alpha.is_zero() && k > 0 && (plan.force || n * n * k >= SMALL_CROSSOVER) {
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
            // Column bands of B are independent: band := alpha·op(A)·band,
            // so the columns stripe across threads exactly like gemm's C.
            let cfg = &ctx.tune;
            let plan = PackedPlan::<T>::from_cfg(cfg);
            let stripes = par_stripes(cfg, flop_product(m, m, n) / 2, n, 4);
            probe::note_parallelism(stripes);
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
            if stripes > 1 {
                with_serial_fallback(
                    b,
                    |b| {
                        stripe_cols("trmm", stripes, MatMut::new(b, m, n, ldb), |_, bb| {
                            trmm_left_cols(&plan, uplo, trans, diag, alpha, av, bb);
                        })
                    },
                    |b| {
                        trmm_left_cols(
                            &plan,
                            uplo,
                            trans,
                            diag,
                            alpha,
                            av,
                            MatMut::new(b, m, n, ldb),
                        )
                    },
                );
            } else {
                trmm_left_cols(
                    &plan,
                    uplo,
                    trans,
                    diag,
                    alpha,
                    av,
                    MatMut::new(b, m, n, ldb),
                );
            }
            if let Some(ck) = check {
                crate::abft::trmm_verify(
                    ck,
                    stripes,
                    &plan,
                    uplo,
                    trans,
                    diag,
                    alpha,
                    av,
                    MatMut::new(b, m, n, ldb),
                );
            }
        }
        Side::Right => {
            if m >= 12 {
                // Cache-friendly path: materialise Bᵀ, apply from the left
                // (unit-stride trmv columns), transpose back. The O(mn)
                // copies are negligible against the O(mn²) compute.
                let cjb = trans == Trans::ConjTrans;
                let mut bt = vec![T::zero(); n * m];
                for j in 0..n {
                    for i in 0..m {
                        let v = b[i + j * ldb];
                        bt[j + i * n] = if cjb { v.conj() } else { v };
                    }
                }
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
                for j in 0..n {
                    for i in 0..m {
                        let v = bt[j + i * n];
                        let v = if cjb { v.conj() } else { v };
                        b[i + j * ldb] = if alpha == T::one() { v } else { alpha * v };
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
/// off-diagonal contribution comes from the packed gemm into a scratch
/// panel (the scratch sidesteps aliasing between the read and written
/// row ranges of `b`).
pub(crate) fn trmm_left_cols<T: Scalar>(
    plan: &PackedPlan<T>,
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
            gemm_serial(
                plan,
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
            // sweep. Stripes and ABFT re-runs solve with the same choice,
            // so a column's result depends on neither.
            let narrow = n < TRSM_OPA_MIN_COLS;
            if narrow && abft.is_none() {
                probe::note_parallelism(1);
                probe::note_kernel("trsv");
                trsv_cols(uplo, trans, diag, av, MatMut::new(b, m, n, ldb));
                return;
            }
            let cfg = &ctx.tune;
            let plan = PackedPlan::<T>::from_cfg(cfg);
            let solve = |bb: MatMut<'_, T>| {
                if narrow {
                    trsv_cols(uplo, trans, diag, av, bb)
                } else {
                    trsm_left_cols(&plan, uplo, trans, diag, av, bb)
                }
            };
            // Each right-hand-side column solves independently against the
            // same triangle, so the columns of B stripe across threads the
            // same way gemm stripes C (per-column arithmetic identical to
            // the serial path).
            let stripes = par_stripes(cfg, flop_product(m, m, n) / 2, n, 4);
            probe::note_parallelism(stripes);
            probe::note_kernel(if narrow { "trsv" } else { plan.kern.name() });
            // ABFT: alpha is already folded into B, so the column sums of
            // B as it stands are the expected values of (eᵀop(A))·X.
            let check = abft.map(|pol| {
                crate::abft::trsm_encode(pol, uplo, trans, diag, av, MatRef::new(b, m, n, ldb))
            });
            if stripes > 1 {
                with_serial_fallback(
                    b,
                    |b| {
                        stripe_cols("trsm", stripes, MatMut::new(b, m, n, ldb), |_, bb| {
                            solve(bb)
                        })
                    },
                    |b| solve(MatMut::new(b, m, n, ldb)),
                );
            } else {
                solve(MatMut::new(b, m, n, ldb));
            }
            if let Some(ck) = check {
                crate::abft::trsm_verify(ck, stripes, solve, MatMut::new(b, m, n, ldb));
            }
        }
        Side::Right => {
            if m >= 12 {
                // Transpose, left-solve (unit-stride columns), transpose
                // back — the same trick as trmm's right side.
                let cjb = trans == Trans::ConjTrans;
                let mut bt = vec![T::zero(); n * m];
                for j in 0..n {
                    for i in 0..m {
                        let v = b[i + j * ldb];
                        bt[j + i * n] = if cjb { v.conj() } else { v };
                    }
                }
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
                for j in 0..n {
                    for i in 0..m {
                        let v = bt[j + i * n];
                        b[i + j * ldb] = if cjb { v.conj() } else { v };
                    }
                }
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
/// is packed once ([`pack_triangle`]); per `NC` band and `NR`-column panel
/// of `b` the block's row panels are walked in substitution order: the
/// kernel adds `A·(−X)` of the rows already solved straight into the `b`
/// tile (`X` is kept negated, in packed-B layout, so the `C += Ap·Bp`
/// tile contract serves unchanged), the tile is substituted against its
/// diagonal tile, and `X` goes to `b`, `−X` to the panel. The rows outside
/// the block then take an ordinary packed update from that same panel.
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
    let kern = plan.kern;
    let (mr, nr) = (kern.mr(), kern.nr());
    // Whether op(A) acts as a *lower* triangular factor: forward
    // substitution, ascending rows.
    let lower = (uplo == Uplo::Lower) != trans.is_transposed();
    let unit = diag == Diag::Unit;
    let solve_tile = kernel::solve_tile_for::<T>(lower);
    // Order of a diagonal block: KC on the MR grid.
    let kd = (plan.kc / mr).max(1) * mr;
    let np = kd.min(m).div_ceil(mr);
    let tri_cap = mr * mr * np * (np + 1) / 2;
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
            pack_triangle(tri, a, trans, lower, k0, kb, mr);
            // The rows still to be solved.
            let rest = if lower { k0 + kb..m } else { 0..k0 };
            let mut jc = 0;
            while jc < w {
                let nb = plan.nc.min(w - jc);
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
                        solve_tile(unit, dt, bt, ldb, rows, cols, xneg);
                    }
                }
                let nb_pad = nb.div_ceil(nr) * nr;
                panel_update(
                    plan,
                    trans,
                    a,
                    rest.clone(),
                    (k0, kb),
                    &xpack[..nb_pad * kb],
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
fn pack_triangle<T: Scalar>(
    tri: &mut [T],
    a: MatRef<'_, T>,
    trans: Trans,
    lower: bool,
    k0: usize,
    kb: usize,
    mr: usize,
) {
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
mod striped_tests {
    use super::*;

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

        // And par_stripes still parallelises at those extremes (multi-
        // thread config — oversubscribed on purpose, since this host may
        // have a single core — and the default threshold) instead of
        // reporting 1.
        let cfg = tune::TuneConfig {
            max_threads: 4,
            oversubscribe: true,
            ..tune::TuneConfig::defaults()
        };
        assert_eq!(
            par_stripes(&cfg, flop_product(huge, huge, huge), huge, 8),
            4
        );
        // Small products still honour the threshold.
        assert_eq!(par_stripes(&cfg, flop_product(8, 8, 8), 8, 8), 1);
    }

    #[test]
    fn stripe_workers_run_under_the_callers_ambient() {
        // The la-blas row of la-core's hop test
        // (`ctx::tests::every_hop_carries_the_ambient_and_nothing_else`):
        // a striped gemm under `oversubscribe` is a `ctx::fan_out`, so the
        // scoped configuration, the cancel token, the heartbeat and the
        // sibling clamp all reach the stripe workers, and the caller's
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
        let mut c = vec![0.0f64; 16 * 16];
        abft::clear_pending();
        abft::raise("hop-test", 7);
        ctx::with(sentinel, || {
            cancel::with_token(token, || {
                cancel::with_heartbeat(beat.clone(), || {
                    stripe_cols("gemm", 2, MatMut::new(&mut c, 16, 16, 16), |_, _| {
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
                    })
                })
            })
        });
        let lost = lost.into_inner().unwrap();
        assert!(lost.is_empty(), "stripe hop lost: {lost:?}");
        assert_eq!(abft::take_pending().map(|f| f.block), Some(7));
    }

    #[test]
    fn striped_split_matches_serial() {
        // Exercises the thread-stripe bookkeeping even on one core.
        let (m, n, k) = (13usize, 23usize, 9usize);
        let plan = PackedPlan::<f64>::from_cfg(&tune::TuneConfig::defaults());
        let a: Vec<f64> = (0..m * k).map(|x| (x % 17) as f64 - 8.0).collect();
        let b: Vec<f64> = (0..k * n).map(|x| (x % 13) as f64 - 6.0).collect();
        let av = MatRef::new(&a, m, k, m);
        for &tb in &[Trans::No, Trans::Trans] {
            let bb: Vec<f64> = if tb == Trans::No {
                b.clone()
            } else {
                // n × k layout for the transposed operand.
                let mut t = vec![0.0; n * k];
                for j in 0..n {
                    for l in 0..k {
                        t[j + l * n] = b[l + j * k];
                    }
                }
                t
            };
            let bv = if tb == Trans::No {
                MatRef::new(&bb, k, n, k)
            } else {
                MatRef::new(&bb, n, k, n)
            };
            let mut c1 = vec![0.0f64; m * n];
            gemm_serial(
                &plan,
                Trans::No,
                tb,
                1.0,
                av,
                bv,
                MatMut::new(&mut c1, m, n, m),
            );
            for stripes in [2usize, 3, 5] {
                let mut c2 = vec![0.0f64; m * n];
                gemm_striped(
                    stripes,
                    &plan,
                    Trans::No,
                    tb,
                    1.0,
                    av,
                    bv,
                    MatMut::new(&mut c2, m, n, m),
                );
                for idx in 0..m * n {
                    assert!(
                        (c1[idx] - c2[idx]).abs() < 1e-12,
                        "{tb:?} stripes={stripes} at {idx}"
                    );
                }
            }
        }
    }
}
