//! Task-graph factorizations: `getrf`, `potrf` and `geqrf` cut into tasks
//! over blocks of whole columns of the caller's matrix, factored in place
//! by the dependency-tracked dag runtime (`la_core::dag`). The public
//! entries come here when the thread budget is above one and the problem
//! spans the routine's threshold in blocks (`aux::DAG_MIN_TILES`, decided
//! in `aux::Blocking::of`); the block width is
//! `TuneConfig::tile_size()`.
//!
//! The PLASMA-style sequential-task-flow formulation: each step of the
//! blocked loop becomes a panel task on its block plus one update task per
//! later block, each declaring the blocks (and per-step stores) it reads
//! and writes; the runtime infers the RAW/WAR/WAW edges and runs the whole
//! graph on one `ctx::fan_out` team — one fork and one join per
//! factorization, where the blocked loop would need one per BLAS-3 call.
//! Lookahead is emergent: the step-`k+1` panel only depends on the step-`k`
//! update of its own block, and the runtime starts the ready task with the
//! longest chain ahead of it, so that panel overtakes the rest of the
//! step-`k` updates.
//!
//! A block of whole columns is one contiguous range of the column-major
//! `a`, so two blocks never share an element, and every task reaches its
//! memory through `Cols`, the one place that turns a shared array into
//! slices: it asserts bounds, and in debug builds that no two live views
//! overlap where either writes.
//!
//! Contracts match the blocked routines exactly — same output layout
//! (LAPACK factor formats, global 1-based `ipiv`, `tau`), same `info`
//! conventions including the `-102`/`-103`/`-104` extension codes — so
//! `getrs`/`potrs`/`ormqr` consume the results unchanged. `geqrf_dag`
//! keeps the standard compact-WY panel format (a panel task per block plus
//! per-block block-reflector applies) rather than the tile-QR
//! `tsqrt`/`ssrfb` variant, which would change the `V`/`tau` layout
//! consumers rely on.
//!
//! One deliberate divergence: on a positive `info` (singular `U`, non-SPD
//! minor) the graph keeps running — later tasks consume whatever the
//! failed panel left, exactly as blocked `getrf` does; `potrf_dag`
//! reports the same first failing index as blocked `potrf` but the
//! trailing blocks hold updated (meaningless) values rather than untouched
//! input. Negative codes abort the graph.
//!
//! Memory: `getrf` takes nothing besides `a` — each update is one
//! `la_blas::lu_step` sweep, which solves `U12` and updates below it from
//! the packing arena of the thread that runs it, and a panel runs the
//! blocked loop, which takes no workspace either. `geqrf` takes one scratch
//! block per block of `a` (`larfb`'s workspace, nb·n elements; a panel task
//! works in its own block's) plus its block-reflector factors (nb² per
//! step); `potrf` its diagonal workspace (nb²) and, for `Uplo::Upper`, each
//! step's row of `U` right of its diagonal block (under n²/2). All of it is
//! taken fallibly before the first task runs: refused, the entry returns
//! `aux::INFO_NO_WORKSPACE` with `a` as it found it, and the public
//! `potrf`/`geqrf` run their serial route instead.

use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

use la_blas::{gemm, herk, lu_step, trsm};
use la_core::dag::Builder;
use la_core::{probe, Diag, Scalar, Side, Trans, Uplo};

use crate::aux::{
    lacpy, larfb, larft, laswp, one_thread, try_zeros, Blocking, Route, INFO_NO_WORKSPACE,
};

/// A column-major array shared by the tasks of one graph and lent out by
/// ranges of whole columns: column `c` is the `rows` elements at `c·ld`.
struct Cols<'a, T> {
    ptr: *mut T,
    len: usize,
    ld: usize,
    rows: usize,
    /// Element ranges of the live views, and whether each one writes.
    #[cfg(debug_assertions)]
    live: std::sync::Mutex<Vec<(usize, usize, bool)>>,
    _array: PhantomData<&'a mut [T]>,
}

// SAFETY: views are only lent through `Cols::view`, whose callers (dag
// tasks) never hold overlapping views where either writes — the runtime
// never runs two tasks with conflicting declarations at once. `T: Send`
// scalars carry no thread affinity.
unsafe impl<T: Send> Sync for Cols<'_, T> {}

impl<'a, T> Cols<'a, T> {
    fn new(a: &'a mut [T], rows: usize, ld: usize) -> Self {
        debug_assert!(rows <= ld);
        Cols {
            ptr: a.as_mut_ptr(),
            len: a.len(),
            ld,
            rows,
            #[cfg(debug_assertions)]
            live: Default::default(),
            _array: PhantomData,
        }
    }

    /// Columns `c0..c1`: the slice from row 0 of column `c0` to the last
    /// row of column `c1 − 1`, element `(i, c0 + c)` at `i + c·ld`.
    ///
    /// # Safety
    /// The calling task declared a write (`write`) or a read of every
    /// resource these columns belong to, so no other task writes them —
    /// or, for a write, reads them — while the view lives.
    unsafe fn view(&self, c0: usize, c1: usize, write: bool) -> View<'_, 'a, T> {
        assert!(c0 < c1, "empty column range {c0}..{c1}");
        let (start, end) = (c0 * self.ld, (c1 - 1) * self.ld + self.rows);
        assert!(end <= self.len, "columns {c0}..{c1} out of bounds");
        #[cfg(debug_assertions)]
        {
            let mut live = self.live.lock().unwrap_or_else(|e| e.into_inner());
            assert!(
                live.iter()
                    .all(|&(s, e, w)| e <= start || end <= s || !(w || write)),
                "columns {c0}..{c1} overlap a live view"
            );
            live.push((start, end, write));
        }
        View {
            cols: self,
            start,
            len: end - start,
            write,
        }
    }
}

/// One task's borrow of a column range of a [`Cols`].
struct View<'s, 'a, T> {
    cols: &'s Cols<'a, T>,
    start: usize,
    len: usize,
    write: bool,
}

impl<T> Deref for View<'_, '_, T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        // SAFETY: in bounds (asserted in `Cols::view`), and by its contract
        // no other task writes these elements while the view lives.
        unsafe { std::slice::from_raw_parts(self.cols.ptr.add(self.start), self.len) }
    }
}

impl<T> DerefMut for View<'_, '_, T> {
    fn deref_mut(&mut self) -> &mut [T] {
        assert!(self.write, "write through a read view");
        // SAFETY: as for `deref`; a write view's contract also excludes
        // readers in other tasks.
        unsafe { std::slice::from_raw_parts_mut(self.cols.ptr.add(self.start), self.len) }
    }
}

#[cfg(debug_assertions)]
impl<T> Drop for View<'_, '_, T> {
    fn drop(&mut self) {
        let mut live = self.cols.live.lock().unwrap_or_else(|e| e.into_inner());
        let me = (self.start, self.start + self.len, self.write);
        if let Some(at) = live.iter().position(|&v| v == me) {
            live.swap_remove(at);
        }
    }
}

/// A panel core's `info` as the task's: a positive index moves from the
/// panel's numbering to the matrix's; a negative code (cancelled) is the
/// task's own, which is what aborts the graph.
fn global_info(info: i32, offset: usize) -> i32 {
    if info > 0 {
        info + offset as i32
    } else {
        info
    }
}

/// Task-graph LU with partial pivoting — drop-in for the blocked
/// `getrf_core` (same pivots, same global 1-based `ipiv`).
///
/// Resources: block `j` is id `j`, step `k`'s pivots `nt + k`.
pub fn getrf_dag<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, ipiv: &mut [i32]) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "getrf_dag",
        probe::flops::getrf(m, n),
        (2 * m * n * std::mem::size_of::<T>()) as u64,
    );
    let mn = m.min(n);
    if mn == 0 {
        return 0;
    }
    let nb = la_core::tune::current().tile_size();
    let (nt, kt) = (n.div_ceil(nb), mn.div_ceil(nb));
    let width = |j: usize| nb.min(n - j * nb);
    // Each step's pivots count from its panel's first row; a step that
    // never runs (a cancelled graph) leaves the identity.
    for p in ipiv[..mn].chunks_mut(nb) {
        for (i, p) in p.iter_mut().enumerate() {
            *p = i as i32 + 1;
        }
    }
    let info = {
        let a = &Cols::new(a, m, lda);
        let piv = &Cols::new(&mut ipiv[..mn], 1, 1);
        let mut g = Builder::new();
        for k in 0..kt {
            let (ck, jb, wk) = (k * nb, nb.min(mn - k * nb), width(k));
            let rows = m - ck;
            g.task("lu_panel", &[], &[k, nt + k], move || {
                // SAFETY: block k and step k's pivots are this task's
                // declared writes.
                let (mut blk, mut p) =
                    unsafe { (a.view(ck, ck + wk, true), piv.view(ck, ck + jb, true)) };
                let split = (jb * lda).min(blk.len());
                let (panel, rest) = blk.split_at_mut(split);
                let panel = &mut panel[ck..];
                // Blocked panel (never re-enters the dag: it is one block
                // wide).
                let how = Blocking::of("getrf", rows, jb);
                let info = one_thread(|| match how.route {
                    Route::Unblocked => crate::lu::getf2(rows, jb, panel, lda, &mut p),
                    _ => crate::lu::getrf_blocked(rows, jb, panel, lda, &mut p, how.nb),
                });
                if jb < wk {
                    // The m < n edge: the last panel is narrower than its
                    // block, whose other columns get the step's update here.
                    lu_step(rows, wk - jb, jb, panel, lda, &p, &mut rest[ck..], lda);
                }
                global_info(info, ck)
            });
            // Row interchanges on the blocks left of the panel (the
            // factored L columns).
            for j in 0..k {
                let cj = j * nb;
                g.task("lu_swap_left", &[nt + k], &[j], move || {
                    // SAFETY: declared write of block j, read of the pivots.
                    let (mut blk, p) =
                        unsafe { (a.view(cj, cj + nb, true), piv.view(ck, ck + jb, false)) };
                    laswp(nb, &mut blk[ck..], lda, 0, jb, &p);
                    0
                });
            }
            for j in k + 1..nt {
                let (cj, wj) = (j * nb, width(j));
                g.task("lu_update", &[k, nt + k], &[j], move || {
                    // SAFETY: declared reads of block k and the pivots, write
                    // of block j.
                    let (l, p, mut c) = unsafe {
                        (
                            a.view(ck, ck + jb, false),
                            piv.view(ck, ck + jb, false),
                            a.view(cj, cj + wj, true),
                        )
                    };
                    lu_step(rows, wj, jb, &l[ck..], lda, &p, &mut c[ck..], lda);
                    0
                });
            }
        }
        g.run().info()
    };
    for (k, p) in ipiv[..mn].chunks_mut(nb).enumerate() {
        for p in p {
            *p += (k * nb) as i32;
        }
    }
    info
}

/// Task-graph Cholesky — drop-in for the blocked `potrf_core`.
///
/// Resources: block `j` is id `j`, the diagonal workspace `nt`, and (for
/// `Upper`) the part of step `k`'s row store over block `j` is
/// `nt + 1 + k·nt + j`.
pub fn potrf_dag<T: Scalar>(uplo: Uplo, n: usize, a: &mut [T], lda: usize) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "potrf_dag",
        probe::flops::potrf(n),
        (n * (n + 1) * std::mem::size_of::<T>()) as u64,
    );
    if n == 0 {
        return 0;
    }
    let nb = la_core::tune::current().tile_size();
    let nt = n.div_ceil(nb);
    let width = |j: usize| nb.min(n - j * nb);
    // Step k's store holds U(k, (k+1)·nb..n), `nb` rows, from this column
    // of the store on (every step that has one is a whole block wide).
    let first = |k: usize| k * n - nb * k * (k + 1) / 2;
    let store_cols = match uplo {
        Uplo::Upper => first(nt - 1),
        Uplo::Lower => 0,
    };
    let Some(mut ws) = try_zeros::<T>(nb * nb + nb * store_cols) else {
        return INFO_NO_WORKSPACE;
    };
    let (diag_ws, stores) = ws.split_at_mut(nb * nb);
    let diag_ws = &Cols::new(diag_ws, nb * nb, nb * nb);
    let stores = &Cols::new(stores, nb, nb);
    let a = &Cols::new(a, n, lda);
    let part = |k: usize, j: usize| nt + 1 + k * nt + j;

    let mut g = Builder::new();
    for k in 0..nt {
        let (ck, nk) = (k * nb, width(k));
        g.task("po_diag", &[], &[k, nt], move || {
            // SAFETY: declared writes of block k and the diagonal workspace.
            let (mut blk, mut w) = unsafe { (a.view(ck, ck + nk, true), diag_ws.view(0, 1, true)) };
            // Blocked diagonal factorization (never re-enters the dag: it
            // is one block wide).
            let how = Blocking::of("potrf", nk, nk);
            let nb = crate::chol::loop_nb(how, nk);
            let info = one_thread(|| {
                crate::chol::potrf_blocked(uplo, nk, &mut blk[ck..], lda, nb, &mut w)
            });
            if info == 0 && uplo == Uplo::Lower && ck + nk < n {
                // L21 := A21·L11⁻ᴴ, reading L11 from a copy: the two share
                // columns.
                let l11 = &mut w[..nk * nk];
                lacpy(Some(Uplo::Lower), nk, nk, &blk[ck..], lda, l11, nk);
                trsm(
                    Side::Right,
                    Uplo::Lower,
                    Trans::ConjTrans,
                    Diag::NonUnit,
                    n - ck - nk,
                    nk,
                    T::one(),
                    l11,
                    nk,
                    &mut blk[ck + nk..],
                    lda,
                );
            }
            global_info(info, ck)
        });
        match uplo {
            Uplo::Lower => {
                for j in k + 1..nt {
                    let (cj, wj) = (j * nb, width(j));
                    g.task("po_update", &[k], &[j], move || {
                        // SAFETY: declared read of block k, write of block j.
                        let (l, mut c) =
                            unsafe { (a.view(ck, ck + nk, false), a.view(cj, cj + wj, true)) };
                        // A(j, j) −= L(j, k)·L(j, k)ᴴ; the rows below it
                        // −= L(i, k)·L(j, k)ᴴ.
                        herk(
                            Uplo::Lower,
                            Trans::No,
                            wj,
                            nk,
                            -T::Real::one(),
                            &l[cj..],
                            lda,
                            T::Real::one(),
                            &mut c[cj..],
                            lda,
                        );
                        if cj + wj < n {
                            gemm(
                                Trans::No,
                                Trans::ConjTrans,
                                n - cj - wj,
                                wj,
                                nk,
                                -T::one(),
                                &l[cj + wj..],
                                lda,
                                &l[cj..],
                                lda,
                                T::one(),
                                &mut c[cj + wj..],
                                lda,
                            );
                        }
                        0
                    });
                }
            }
            Uplo::Upper => {
                // Column of block j in step k's store.
                let at = move |j: usize| first(k) + (j - k - 1) * nb;
                for j in k + 1..nt {
                    let (cj, wj, sj) = (j * nb, width(j), at(j));
                    g.task("po_trsm", &[k], &[j, part(k, j)], move || {
                        // SAFETY: declared read of block k, writes of block j
                        // and of its part of step k's store.
                        let (u11, mut c, mut s) = unsafe {
                            (
                                a.view(ck, ck + nk, false),
                                a.view(cj, cj + wj, true),
                                stores.view(sj, sj + wj, true),
                            )
                        };
                        trsm(
                            Side::Left,
                            Uplo::Upper,
                            Trans::ConjTrans,
                            Diag::NonUnit,
                            nk,
                            wj,
                            T::one(),
                            &u11[ck..],
                            lda,
                            &mut c[ck..],
                            lda,
                        );
                        lacpy(None, nk, wj, &c[ck..], lda, &mut s, nb);
                        0
                    });
                }
                for j in k + 1..nt {
                    let (cj, wj, s0, sj) = (j * nb, width(j), at(k + 1), at(j));
                    let reads: Vec<usize> = (k + 1..=j).map(|i| part(k, i)).collect();
                    g.task("po_update", &reads, &[j], move || {
                        // SAFETY: declared reads of step k's store over
                        // blocks k+1..=j, write of block j.
                        let (u, mut c) =
                            unsafe { (stores.view(s0, sj + wj, false), a.view(cj, cj + wj, true)) };
                        // A(j, j) −= U(k, j)ᴴ·U(k, j); the rows above it
                        // −= U(k, i)ᴴ·U(k, j).
                        let uj = &u[(sj - s0) * nb..];
                        herk(
                            Uplo::Upper,
                            Trans::ConjTrans,
                            wj,
                            nk,
                            -T::Real::one(),
                            uj,
                            nb,
                            T::Real::one(),
                            &mut c[cj..],
                            lda,
                        );
                        if cj > ck + nk {
                            gemm(
                                Trans::ConjTrans,
                                Trans::No,
                                cj - ck - nk,
                                wj,
                                nk,
                                -T::one(),
                                &u,
                                nb,
                                uj,
                                nb,
                                T::one(),
                                &mut c[ck + nk..],
                                lda,
                            );
                        }
                        0
                    });
                }
            }
        }
    }
    g.run().info()
}

/// Task-graph Householder QR — drop-in for the blocked `geqrf` (standard
/// compact-WY output: reflectors below the diagonal, `R` above, scalars
/// in `tau`).
///
/// Resources: block `j` is id `j`, step `k`'s block-reflector factor
/// `nt + k`; block `j`'s scratch belongs to the tasks that write block `j`.
pub fn geqrf_dag<T: Scalar>(m: usize, n: usize, a: &mut [T], lda: usize, tau: &mut [T]) -> i32 {
    let _probe = probe::span(
        probe::Layer::Lapack,
        "geqrf_dag",
        probe::flops::geqrf(m, n),
        (2 * m * n * std::mem::size_of::<T>()) as u64,
    );
    let mn = m.min(n);
    if mn == 0 {
        return 0;
    }
    let nb = la_core::tune::current().tile_size();
    let (nt, kt) = (n.div_ceil(nb), mn.div_ceil(nb));
    let width = |j: usize| nb.min(n - j * nb);
    let Some(mut ws) = try_zeros::<T>(nb * n + nb * nb * kt) else {
        return INFO_NO_WORKSPACE;
    };
    let (work, tfac) = ws.split_at_mut(nb * n);
    let work = &Cols::new(work, nb, nb);
    let tfac = &Cols::new(tfac, nb, nb);
    let tau = &Cols::new(&mut tau[..mn], 1, 1);
    let a = &Cols::new(a, m, lda);

    let mut g = Builder::new();
    for k in 0..kt {
        let (ck, ib, wk) = (k * nb, nb.min(mn - k * nb), width(k));
        let rows = m - ck;
        g.task("qr_panel", &[], &[k, nt + k], move || {
            // SAFETY: declared writes of block k (with its scratch, `tau`'s
            // part for this step) and of step k's `T`.
            let (mut blk, mut tk, mut t, mut w) = unsafe {
                (
                    a.view(ck, ck + wk, true),
                    tau.view(ck, ck + ib, true),
                    tfac.view(ck, ck + ib, true),
                    work.view(ck, ck + wk, true),
                )
            };
            let split = (ib * lda).min(blk.len());
            let (v, rest) = blk.split_at_mut(split);
            let v = &mut v[ck..];
            // Blocked panel (never re-enters the dag: it is one block
            // wide).
            let how = Blocking::of("geqrf", rows, ib);
            let info = one_thread(|| match how.route {
                Route::Unblocked => crate::qr::geqr2(rows, ib, v, lda, &mut tk),
                _ => crate::qr::geqrf_blocked(rows, ib, v, lda, &mut tk, how.nb, &mut w),
            });
            if info == 0 && ck + ib < n {
                larft(rows, ib, v, lda, &tk, &mut t, nb);
                if ib < wk {
                    // The m < n edge: the last panel is narrower than its
                    // block, whose other columns get the reflector here.
                    larfb(
                        Side::Left,
                        Trans::ConjTrans,
                        rows,
                        wk - ib,
                        ib,
                        v,
                        lda,
                        &t,
                        nb,
                        &mut rest[ck..],
                        lda,
                        &mut w,
                    );
                }
            }
            info
        });
        for j in k + 1..nt {
            let (cj, wj) = (j * nb, width(j));
            g.task("qr_larfb", &[k, nt + k], &[j], move || {
                // SAFETY: declared reads of block k and step k's `T`, write
                // of block j (with its scratch).
                let (v, t, mut c, mut w) = unsafe {
                    (
                        a.view(ck, ck + ib, false),
                        tfac.view(ck, ck + ib, false),
                        a.view(cj, cj + wj, true),
                        work.view(cj, cj + wj, true),
                    )
                };
                larfb(
                    Side::Left,
                    Trans::ConjTrans,
                    rows,
                    wj,
                    ib,
                    &v[ck..],
                    lda,
                    &t,
                    nb,
                    &mut c[ck..],
                    lda,
                    &mut w,
                );
                0
            });
        }
    }
    g.run().info()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::{Dist, Larnv};
    use la_core::tune::{self, TuneConfig};
    use la_core::{C32, C64};

    fn dag_cfg(nb: usize) -> TuneConfig {
        TuneConfig {
            tile_nb: nb,
            max_threads: 2,
            oversubscribe: true,
            ..TuneConfig::default()
        }
    }

    /// What makes a panel's `INFO_CANCELLED` the graph's result
    /// (`RunResult::info` puts a negative code first).
    #[test]
    fn panel_info_offsets_positive_and_keeps_negative() {
        assert_eq!(global_info(0, 64), 0);
        assert_eq!(global_info(3, 64), 67);
        for code in [
            crate::aux::INFO_NO_WORKSPACE,
            la_core::cancel::INFO_CANCELLED,
        ] {
            assert_eq!(global_info(code, 64), code);
        }
    }

    #[test]
    fn column_views_check_bounds_and_overlap() {
        let mut a = vec![0.0f64; 5 * 4];
        let cols = Cols::new(&mut a, 3, 5);
        // SAFETY: one thread; the overlaps below are what is under test.
        unsafe {
            let mut left = cols.view(0, 2, true);
            let right = cols.view(2, 4, false);
            assert_eq!((left.len(), right.len()), (8, 8));
            left[7] = 1.0;
            let shared = cols.view(3, 4, false);
            assert_eq!(shared.len(), 3);
            drop((left, right, shared));
            let whole = cols.view(0, 4, true);
            assert_eq!(whole[7], 1.0);
        }
        let bounds = std::panic::catch_unwind(|| {
            let mut b = [0.0f64; 7];
            let short = Cols::new(&mut b, 3, 5);
            // SAFETY: panics before lending anything.
            let len = unsafe { short.view(0, 2, false).len() };
            len
        });
        assert!(bounds.is_err(), "a view past the array");
        #[cfg(debug_assertions)]
        {
            let overlap = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                // SAFETY: panics before lending the second view.
                unsafe {
                    let _w = cols.view(1, 2, true);
                    cols.view(0, 3, false).len()
                }
            }));
            assert!(overlap.is_err(), "a read overlapping a write");
        }
    }

    #[test]
    fn getrf_dag_matches_blocked_pivots_and_factors() {
        for &(m, n) in &[(96usize, 96usize), (96, 60), (60, 96), (97, 83)] {
            let mut rng = Larnv::new(7);
            let a0: Vec<f64> = rng.vec(Dist::Uniform11, m * n);
            let mut ab = a0.clone();
            let mut pb = vec![0i32; m.min(n)];
            assert_eq!(crate::lu::getf2(m, n, &mut ab, m, &mut pb), 0);
            let mut ad = a0.clone();
            let mut pd = vec![0i32; m.min(n)];
            let info = tune::with(dag_cfg(32), || getrf_dag(m, n, &mut ad, m, &mut pd));
            assert_eq!(info, 0, "{m}x{n}");
            assert_eq!(pd, pb, "{m}x{n} pivots");
            for k in 0..m * n {
                assert!(
                    (ad[k] - ab[k]).abs() < 1e-10 * (1.0 + ab[k].abs()),
                    "{m}x{n} factor mismatch at {k}: {} vs {}",
                    ad[k],
                    ab[k]
                );
            }
        }
    }

    /// `B·Bᴴ + n·I`, Hermitian positive definite.
    fn spd<T: Scalar>(n: usize, seed: u64) -> Vec<T> {
        let b: Vec<T> = Larnv::new(seed).vec(Dist::Uniform11, n * n);
        let mut a = vec![T::zero(); n * n];
        gemm(
            Trans::No,
            Trans::ConjTrans,
            n,
            n,
            n,
            T::one(),
            &b,
            n,
            &b,
            n,
            T::zero(),
            &mut a,
            n,
        );
        for i in 0..n {
            a[i + i * n] += T::from_f64(n as f64);
        }
        a
    }

    #[test]
    fn potrf_dag_matches_unblocked_both_triangles() {
        let n = 80;
        let a0: Vec<f64> = spd(n, 11);
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let mut ab = a0.clone();
            assert_eq!(crate::chol::potf2(uplo, n, &mut ab, n), 0);
            let mut ad = a0.clone();
            let info = tune::with(dag_cfg(24), || potrf_dag(uplo, n, &mut ad, n));
            assert_eq!(info, 0);
            // Compare only the factored triangle.
            for j in 0..n {
                for i in 0..n {
                    let in_tri = match uplo {
                        Uplo::Lower => i >= j,
                        Uplo::Upper => i <= j,
                    };
                    if in_tri {
                        let (x, y) = (ad[i + j * n], ab[i + j * n]);
                        assert!(
                            (x - y).abs() < 1e-9 * (1.0 + y.abs()),
                            "{uplo:?} ({i},{j}): {x} vs {y}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn potrf_dag_reports_first_nonspd_minor() {
        let n = 60;
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let mut a = vec![0.0f64; n * n];
            for i in 0..n {
                a[i + i * n] = 1.0;
            }
            a[40 + 40 * n] = -5.0; // first bad leading minor is order 41
            let info = tune::with(dag_cfg(16), || potrf_dag(uplo, n, &mut a, n));
            assert_eq!(info, 41, "{uplo:?}");
        }
    }

    #[test]
    fn geqrf_dag_matches_unblocked() {
        for &(m, n) in &[(90usize, 90usize), (100, 60), (60, 90)] {
            let mut rng = Larnv::new(23);
            let a0: Vec<f64> = rng.vec(Dist::Uniform11, m * n);
            let k = m.min(n);
            let mut ab = a0.clone();
            let mut tb = vec![0.0f64; k];
            crate::qr::geqr2(m, n, &mut ab, m, &mut tb);
            let mut ad = a0.clone();
            let mut td = vec![0.0f64; k];
            let info = tune::with(dag_cfg(32), || geqrf_dag(m, n, &mut ad, m, &mut td));
            assert_eq!(info, 0);
            for i in 0..k {
                assert!(
                    (td[i] - tb[i]).abs() < 1e-10 * (1.0 + tb[i].abs()),
                    "{m}x{n} tau[{i}]"
                );
            }
            for k in 0..m * n {
                assert!(
                    (ad[k] - ab[k]).abs() < 1e-9 * (1.0 + ab[k].abs()),
                    "{m}x{n} at {k}: {} vs {}",
                    ad[k],
                    ab[k]
                );
            }
        }
    }

    /// `m × n` in an `lda = m + 3` array whose padding rows hold a sentinel
    /// — and, for `potrf`, whose unreferenced triangle does.
    fn padded<T: Scalar>(
        m: usize,
        n: usize,
        a0: &[T],
        keep: impl Fn(usize, usize) -> bool,
    ) -> Vec<T> {
        let lda = m + 3;
        let sentinel = T::from_f64(-777.0);
        let mut a = vec![sentinel; lda * n];
        for j in 0..n {
            for i in 0..m {
                if keep(i, j) {
                    a[i + j * lda] = a0[i + j * m];
                }
            }
        }
        a
    }

    /// Every element the graph may not write is bitwise the sentinel.
    fn untouched<T: Scalar>(m: usize, a: &[T], written: impl Fn(usize, usize) -> bool, what: &str) {
        let lda = m + 3;
        let sentinel = T::from_f64(-777.0);
        for (idx, &x) in a.iter().enumerate() {
            let (i, j) = (idx % lda, idx / lda);
            if i >= m || !written(i, j) {
                assert!(x == sentinel, "{what}: ({i}, {j}) written");
            }
        }
    }

    fn stays_inside<T: Scalar>() {
        let cfg = dag_cfg(16);
        for &(m, n) in &[(97usize, 83usize), (60, 96), (96, 60)] {
            let what = |r: &str| format!("{}{r} {m}x{n}", T::PREFIX);
            let a0: Vec<T> = Larnv::new(3).vec(Dist::Uniform11, m * n);
            let all = |_: usize, _: usize| true;
            let mut a = padded(m, n, &a0, all);
            let mut piv = vec![0i32; m.min(n)];
            let info = tune::with(cfg, || getrf_dag(m, n, &mut a, m + 3, &mut piv));
            assert_eq!(info, 0, "{}", what("getrf"));
            assert!(piv.iter().all(|&p| p >= 1 && p as usize <= m));
            untouched(m, &a, all, &what("getrf"));

            let mut a = padded(m, n, &a0, all);
            let mut tau = vec![T::zero(); m.min(n)];
            let info = tune::with(cfg, || geqrf_dag(m, n, &mut a, m + 3, &mut tau));
            assert_eq!(info, 0, "{}", what("geqrf"));
            untouched(m, &a, all, &what("geqrf"));
        }
        for n in [97usize, 60] {
            let a0: Vec<T> = spd(n, 5);
            for uplo in [Uplo::Lower, Uplo::Upper] {
                let what = format!("{}potrf {uplo:?} n={n}", T::PREFIX);
                let stored = |i: usize, j: usize| (i <= j) == (uplo == Uplo::Upper) || i == j;
                let mut a = padded(n, n, &a0, stored);
                let info = tune::with(cfg, || potrf_dag(uplo, n, &mut a, n + 3));
                assert_eq!(info, 0, "{what}");
                untouched(n, &a, stored, &what);
            }
        }
    }

    /// The graph writes nothing outside its matrix: not the rows past `m`
    /// of a padded array, nor `potrf`'s unreferenced triangle — on ragged
    /// shapes, including a last panel narrower than its block (60 × 96).
    #[test]
    fn the_graph_writes_nothing_outside_its_matrix() {
        stays_inside::<f32>();
        stays_inside::<f64>();
        stays_inside::<C32>();
        stays_inside::<C64>();
    }
}
