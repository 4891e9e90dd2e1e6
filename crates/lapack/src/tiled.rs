//! Tiled task-graph factorizations: `getrf`, `potrf` and `geqrf`
//! decomposed into per-tile tasks over a [`TileMat`] and executed by the
//! dependency-tracked dag runtime (`la_core::dag`). The public entries
//! come here when the thread budget is above one and the problem spans the
//! routine's threshold in tiles (`aux::DAG_MIN_TILES`: four for `getrf`
//! and `potrf`, eight for `geqrf`; decided in `aux::Blocking::of`).
//!
//! The PLASMA-style sequential-task-flow formulation: each kernel call
//! (panel factorization, `trsm`, `herk`, `gemm`, block-reflector apply)
//! becomes one task declaring the tiles it reads and writes; the runtime
//! infers RAW/WAR/WAW edges and runs the whole graph on one
//! `ctx::fan_out` team — one fork and one join per factorization, where
//! the blocked loop would need one per BLAS-3 call. Lookahead is emergent:
//! the step-`k+1` panel only depends on the step-`k` updates of its own
//! tile column, so it starts while the rest of the step-`k` trailing
//! matrix is still in flight.
//!
//! Contracts match the blocked routines exactly — same output layout
//! (LAPACK factor formats, global 1-based `ipiv`, `tau`), same `info`
//! conventions including the `-102`/`-103`/`-104` extension codes — so
//! `getrs`/`potrs`/`ormqr` consume the results unchanged. `geqrf_dag`
//! keeps the standard compact-WY panel format (a panel task per block
//! column plus per-tile-column block-reflector applies) rather than the
//! tile-QR `tsqrt`/`ssrfb` variant, which would change the `V`/`tau`
//! layout consumers rely on.
//!
//! One deliberate divergence: on a positive `info` (singular `U`, non-SPD
//! minor) the graph keeps running — later tasks consume whatever the
//! failed panel left, exactly as blocked `getrf` does; `potrf_dag`
//! reports the same first failing index as blocked `potrf` but the
//! trailing tiles hold updated (meaningless) values rather than untouched
//! input. Negative codes abort the graph.
//!
//! Memory: a graph works on a copy — the tiles plus one panel store per
//! block column, ≈ 1.5·m·n elements where the blocked loop needs one
//! panel's worth — and takes it fallibly. When the allocator refuses it,
//! or a panel task finds no workspace, the entry returns
//! `aux::INFO_NO_WORKSPACE` with `a` as it found it, and the public
//! `getrf`/`potrf`/`geqrf` run their serial route instead.

use std::cell::UnsafeCell;

use la_blas::{gemm, herk, trsm};
use la_core::dag::Builder;
use la_core::tile::TileMat;
use la_core::{probe, Diag, Scalar, Side, Trans, Uplo};

use crate::aux::{larfb, larft, try_zeros, INFO_NO_WORKSPACE};

/// Per-panel-step workspace: the panel task writes it, that step's update
/// tasks read it. Reached through a dag resource id (`resource_count() +
/// step`), so the same dependency contract that guards tiles guards this.
struct PanelStore<T> {
    /// Factored panel (`getrf`) or reflector block `V` (`geqrf`),
    /// `rows × jb` column-major with `ld == rows`.
    data: UnsafeCell<Vec<T>>,
    /// Local 1-based pivots (`getrf`; prefilled with the identity so a
    /// cancelled run still leaves a valid permutation).
    piv: UnsafeCell<Vec<i32>>,
    /// Triangular `T` factor of the block reflector (`geqrf`), `jb × jb`.
    tfac: UnsafeCell<Vec<T>>,
    /// Householder scalars (`geqrf`).
    tau: UnsafeCell<Vec<T>>,
    rows: usize,
    jb: usize,
}

// SAFETY: accessed only inside dag tasks that declare the store's
// resource id; the scheduler serializes writer vs. readers.
unsafe impl<T: Send> Sync for PanelStore<T> {}

impl<T: Scalar> PanelStore<T> {
    /// `None` when the allocator refuses the panel copy or the `T` factor.
    fn try_new(rows: usize, jb: usize, with_t: bool) -> Option<Self> {
        Some(PanelStore {
            data: UnsafeCell::new(try_zeros(rows * jb)?),
            piv: UnsafeCell::new((1..=jb as i32).collect()),
            tfac: UnsafeCell::new(try_zeros(if with_t { jb * jb } else { 0 })?),
            tau: UnsafeCell::new(vec![T::zero(); jb]),
            rows,
            jb,
        })
    }
}

/// Gathers columns `c0..c0+w` of tile column `j`, tile rows `i0..mt`,
/// into the contiguous `rows × w` buffer `buf` (`ld == rows`).
///
/// # Safety
/// Caller must hold (via the dag contract) read access to those tiles.
unsafe fn gather<T: Scalar>(
    tm: &TileMat<T>,
    i0: usize,
    j: usize,
    c0: usize,
    w: usize,
    buf: &mut [T],
) {
    let rows = buf.len() / w;
    let mut off = 0;
    for i in i0..tm.mt() {
        let tr = tm.tile_rows(i);
        let tile = tm.tile(i, j);
        for c in 0..w {
            buf[off + c * rows..off + c * rows + tr]
                .copy_from_slice(&tile[(c0 + c) * tr..(c0 + c) * tr + tr]);
        }
        off += tr;
    }
}

/// Exact inverse of [`gather`].
///
/// # Safety
/// Caller must hold write access to those tiles.
unsafe fn scatter<T: Scalar>(tm: &TileMat<T>, i0: usize, j: usize, c0: usize, w: usize, buf: &[T]) {
    let rows = buf.len() / w;
    let mut off = 0;
    for i in i0..tm.mt() {
        let tr = tm.tile_rows(i);
        let tile = tm.tile_mut(i, j);
        for c in 0..w {
            tile[(c0 + c) * tr..(c0 + c) * tr + tr]
                .copy_from_slice(&buf[off + c * rows..off + c * rows + tr]);
        }
        off += tr;
    }
}

/// Swaps global rows `g1` and `g2` across columns `c0..c1` of tile
/// column `j`.
///
/// # Safety
/// Caller must hold write access to every tile in tile column `j`.
unsafe fn swap_rows<T: Scalar>(
    tm: &TileMat<T>,
    j: usize,
    c0: usize,
    c1: usize,
    g1: usize,
    g2: usize,
) {
    if g1 == g2 {
        return;
    }
    let nb = tm.nb();
    let (t1, r1) = (g1 / nb, g1 % nb);
    let (t2, r2) = (g2 / nb, g2 % nb);
    if t1 == t2 {
        let ld = tm.tile_rows(t1);
        let tile = tm.tile_mut(t1, j);
        for c in c0..c1 {
            tile.swap(r1 + c * ld, r2 + c * ld);
        }
    } else {
        let (ld1, ld2) = (tm.tile_rows(t1), tm.tile_rows(t2));
        let (a, b) = (tm.tile_mut(t1, j), tm.tile_mut(t2, j));
        for c in c0..c1 {
            std::mem::swap(&mut a[r1 + c * ld1], &mut b[r2 + c * ld2]);
        }
    }
}

/// The trailing column regions of panel step `k`: whole tile columns to
/// the right, plus the remainder of tile column `k` itself when the
/// panel is narrower than the tile (the `m < n` edge).
fn trailing_regions<T>(tm: &TileMat<T>, k: usize, jb: usize) -> Vec<(usize, usize, usize)> {
    let mut regions = Vec::new();
    if jb < tm.tile_cols(k) {
        regions.push((k, jb, tm.tile_cols(k)));
    }
    for j in k + 1..tm.nt() {
        regions.push((j, 0, tm.tile_cols(j)));
    }
    regions
}

/// A panel core's `info` as the task's: a positive index moves from the
/// panel's numbering to the matrix's; a negative code (no workspace,
/// cancelled) is the task's own, which is what aborts the graph.
fn global_info(info: i32, offset: usize) -> i32 {
    if info > 0 {
        info + offset as i32
    } else {
        info
    }
}

/// What a graph over the `m × n` matrix `a` needs besides `a`: its tile
/// copy and one panel store per block column (`with_t`: with room for the
/// block reflector's `T`), ≈ 1.5·m·n elements the blocked loop does
/// without. `None` when the allocator refuses any of it.
fn tile_copy<T: Scalar>(
    m: usize,
    n: usize,
    a: &[T],
    lda: usize,
    nb: usize,
    with_t: bool,
) -> Option<(TileMat<T>, Vec<PanelStore<T>>)> {
    let tm = TileMat::try_from_col_major(m, n, a, lda, nb)?;
    let mn = m.min(n);
    let stores = (0..mn.div_ceil(nb))
        .map(|k| PanelStore::try_new(m - k * nb, nb.min(mn - k * nb).min(tm.tile_cols(k)), with_t))
        .collect::<Option<Vec<_>>>()?;
    Some((tm, stores))
}

/// Tiled-dag LU with partial pivoting — drop-in for the blocked
/// `getrf_core` (same factors, same global 1-based `ipiv`).
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
    let Some((tm, stores)) = tile_copy(m, n, a, lda, nb, false) else {
        return INFO_NO_WORKSPACE;
    };
    let kt = stores.len();
    let pid = |k: usize| tm.resource_count() + k;

    let mut g = Builder::new();
    for k in 0..kt {
        let store = &stores[k];
        let (rows, jb) = (store.rows, store.jb);
        let col_off = k * nb;
        // Panel: gather block column k, factor with local pivoting,
        // scatter back. Owns every tile of its block column plus the
        // step workspace.
        let panel_writes: Vec<usize> = (k..tm.mt())
            .map(|i| tm.tile_id(i, k))
            .chain([pid(k)])
            .collect();
        let tm_ref = &tm;
        g.task("lu_panel", &[], &panel_writes, move || {
            // SAFETY: this task owns the block-column tiles and the store
            // (declared writes); the dag serializes all other access.
            unsafe {
                let buf = &mut *store.data.get();
                gather(tm_ref, k, k, 0, jb, buf);
                let piv = &mut *store.piv.get();
                // Blocked panel (never re-enters the dag: the panel's
                // min dimension is at most one tile).
                let how = crate::aux::Blocking::of("getrf", rows, jb);
                let info = crate::lu::getrf_core(rows, jb, buf, rows, piv, how);
                scatter(tm_ref, k, k, 0, jb, buf);
                global_info(info, col_off)
            }
        });
        // Row interchanges on the columns left of the panel (the factored
        // L block columns), one task per tile column.
        for j in 0..k {
            let writes: Vec<usize> = (k..tm.mt()).map(|i| tm.tile_id(i, j)).collect();
            let cols = tm.tile_cols(j);
            g.task("lu_swap_left", &[pid(k)], &writes, move || {
                // SAFETY: declared writes cover tile column j rows k..mt;
                // the store is a declared read.
                unsafe {
                    let piv = &*store.piv.get();
                    for (idx, &p) in piv.iter().enumerate() {
                        swap_rows(tm_ref, j, 0, cols, col_off + idx, col_off + p as usize - 1);
                    }
                }
                0
            });
        }
        // Trailing updates: per column region, swap + triangular solve
        // for the U block row, then one gemm task per trailing tile.
        for (j, c0, c1) in trailing_regions(&tm, k, jb) {
            let writes: Vec<usize> = (k..tm.mt()).map(|i| tm.tile_id(i, j)).collect();
            g.task("lu_swap_trsm", &[pid(k)], &writes, move || {
                // SAFETY: declared writes cover tile column j rows k..mt.
                unsafe {
                    let piv = &*store.piv.get();
                    for (idx, &p) in piv.iter().enumerate() {
                        swap_rows(tm_ref, j, c0, c1, col_off + idx, col_off + p as usize - 1);
                    }
                    let l11 = &*store.data.get();
                    let ldk = tm_ref.tile_rows(k);
                    let c = tm_ref.tile_mut(k, j);
                    trsm(
                        Side::Left,
                        Uplo::Lower,
                        Trans::No,
                        Diag::Unit,
                        jb,
                        c1 - c0,
                        T::one(),
                        l11,
                        rows,
                        &mut c[c0 * ldk..],
                        ldk,
                    );
                }
                0
            });
            for i in k + 1..tm.mt() {
                let reads = [pid(k), tm.tile_id(k, j)];
                let writes = [tm.tile_id(i, j)];
                g.task("lu_gemm", &reads, &writes, move || {
                    // SAFETY: reads tile (k,j) + store, writes tile (i,j),
                    // all declared.
                    unsafe {
                        let panel: &Vec<T> = &*store.data.get();
                        let l = &panel[i * nb - col_off..];
                        let u = tm_ref.tile(k, j);
                        let ldk = tm_ref.tile_rows(k);
                        let ldi = tm_ref.tile_rows(i);
                        let c = tm_ref.tile_mut(i, j);
                        gemm(
                            Trans::No,
                            Trans::No,
                            ldi,
                            c1 - c0,
                            jb,
                            -T::one(),
                            l,
                            rows,
                            &u[c0 * ldk..],
                            ldk,
                            T::one(),
                            &mut c[c0 * ldi..],
                            ldi,
                        );
                    }
                    0
                });
            }
        }
    }
    let info = g.run().info();
    // A panel without workspace: `a` stays as found, as for a refused copy.
    if info == INFO_NO_WORKSPACE {
        return info;
    }
    tm.copy_out(a, lda);
    for (k, store) in stores.iter().enumerate() {
        // SAFETY: the graph has quiesced; exclusive access again.
        let piv = unsafe { &*store.piv.get() };
        for (idx, &p) in piv.iter().enumerate() {
            ipiv[k * nb + idx] = p + (k * nb) as i32;
        }
    }
    info
}

/// Tiled-dag Cholesky — drop-in for the blocked `potrf_core`.
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
    let Some(tm) = TileMat::try_from_col_major(n, n, a, lda, nb) else {
        return INFO_NO_WORKSPACE;
    };
    let nt = tm.nt();
    let tm_ref = &tm;

    let mut g = Builder::new();
    for k in 0..nt {
        let nbk = tm.tile_cols(k);
        let off = k * nb;
        g.task("po_potf2", &[], &[tm.tile_id(k, k)], move || {
            // SAFETY: exclusive declared write on the diagonal tile.
            let info = unsafe {
                let ld = tm_ref.tile_rows(k);
                // Blocked diagonal factorization (never re-enters the
                // dag: the tile is at most one tile wide).
                let how = crate::aux::Blocking::of("potrf", nbk, nbk);
                crate::chol::potrf_core(uplo, nbk, tm_ref.tile_mut(k, k), ld, how)
            };
            global_info(info, off)
        });
        match uplo {
            Uplo::Lower => {
                for i in k + 1..nt {
                    g.task(
                        "po_trsm",
                        &[tm.tile_id(k, k)],
                        &[tm.tile_id(i, k)],
                        move || {
                            // SAFETY: declared read (k,k) / write (i,k).
                            unsafe {
                                let l11 = tm_ref.tile(k, k);
                                let ldk = tm_ref.tile_rows(k);
                                let ldi = tm_ref.tile_rows(i);
                                trsm(
                                    Side::Right,
                                    Uplo::Lower,
                                    Trans::ConjTrans,
                                    Diag::NonUnit,
                                    ldi,
                                    nbk,
                                    T::one(),
                                    l11,
                                    ldk,
                                    tm_ref.tile_mut(i, k),
                                    ldi,
                                );
                            }
                            0
                        },
                    );
                }
                for j in k + 1..nt {
                    g.task(
                        "po_herk",
                        &[tm.tile_id(j, k)],
                        &[tm.tile_id(j, j)],
                        move || {
                            // SAFETY: declared read (j,k) / write (j,j).
                            unsafe {
                                let ldj = tm_ref.tile_rows(j);
                                herk(
                                    Uplo::Lower,
                                    Trans::No,
                                    ldj,
                                    nbk,
                                    -T::Real::one(),
                                    tm_ref.tile(j, k),
                                    ldj,
                                    T::Real::one(),
                                    tm_ref.tile_mut(j, j),
                                    ldj,
                                );
                            }
                            0
                        },
                    );
                    for i in j + 1..nt {
                        g.task(
                            "po_gemm",
                            &[tm.tile_id(i, k), tm.tile_id(j, k)],
                            &[tm.tile_id(i, j)],
                            move || {
                                // SAFETY: all three tiles declared.
                                unsafe {
                                    let ldi = tm_ref.tile_rows(i);
                                    let ldj = tm_ref.tile_rows(j);
                                    gemm(
                                        Trans::No,
                                        Trans::ConjTrans,
                                        ldi,
                                        ldj,
                                        nbk,
                                        -T::one(),
                                        tm_ref.tile(i, k),
                                        ldi,
                                        tm_ref.tile(j, k),
                                        ldj,
                                        T::one(),
                                        tm_ref.tile_mut(i, j),
                                        ldi,
                                    );
                                }
                                0
                            },
                        );
                    }
                }
            }
            Uplo::Upper => {
                for j in k + 1..nt {
                    g.task(
                        "po_trsm",
                        &[tm.tile_id(k, k)],
                        &[tm.tile_id(k, j)],
                        move || {
                            // SAFETY: declared read (k,k) / write (k,j).
                            unsafe {
                                let u11 = tm_ref.tile(k, k);
                                let ldk = tm_ref.tile_rows(k);
                                let cols = tm_ref.tile_cols(j);
                                trsm(
                                    Side::Left,
                                    Uplo::Upper,
                                    Trans::ConjTrans,
                                    Diag::NonUnit,
                                    nbk,
                                    cols,
                                    T::one(),
                                    u11,
                                    ldk,
                                    tm_ref.tile_mut(k, j),
                                    ldk,
                                );
                            }
                            0
                        },
                    );
                }
                for j in k + 1..nt {
                    g.task(
                        "po_herk",
                        &[tm.tile_id(k, j)],
                        &[tm.tile_id(j, j)],
                        move || {
                            // SAFETY: declared read (k,j) / write (j,j).
                            unsafe {
                                let ldk = tm_ref.tile_rows(k);
                                let ldj = tm_ref.tile_rows(j);
                                let cols = tm_ref.tile_cols(j);
                                herk(
                                    Uplo::Upper,
                                    Trans::ConjTrans,
                                    cols,
                                    nbk,
                                    -T::Real::one(),
                                    tm_ref.tile(k, j),
                                    ldk,
                                    T::Real::one(),
                                    tm_ref.tile_mut(j, j),
                                    ldj,
                                );
                            }
                            0
                        },
                    );
                    for i in k + 1..j {
                        g.task(
                            "po_gemm",
                            &[tm.tile_id(k, i), tm.tile_id(k, j)],
                            &[tm.tile_id(i, j)],
                            move || {
                                // SAFETY: all three tiles declared.
                                unsafe {
                                    let ldk = tm_ref.tile_rows(k);
                                    let ldi = tm_ref.tile_rows(i);
                                    gemm(
                                        Trans::ConjTrans,
                                        Trans::No,
                                        tm_ref.tile_cols(i),
                                        tm_ref.tile_cols(j),
                                        nbk,
                                        -T::one(),
                                        tm_ref.tile(k, i),
                                        ldk,
                                        tm_ref.tile(k, j),
                                        ldk,
                                        T::one(),
                                        tm_ref.tile_mut(i, j),
                                        ldi,
                                    );
                                }
                                0
                            },
                        );
                    }
                }
            }
        }
    }
    let info = g.run().info();
    // A diagonal tile without workspace: `a` stays as found, as for a
    // refused copy.
    if info == INFO_NO_WORKSPACE {
        return info;
    }
    tm.copy_out(a, lda);
    info
}

/// Tiled-dag Householder QR — drop-in for the blocked `geqrf` (standard
/// compact-WY output: reflectors below the diagonal, `R` above, scalars
/// in `tau`).
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
    let Some((tm, stores)) = tile_copy(m, n, a, lda, nb, true) else {
        return INFO_NO_WORKSPACE;
    };
    let kt = stores.len();
    let pid = |k: usize| tm.resource_count() + k;
    let tm_ref = &tm;

    let mut g = Builder::new();
    for k in 0..kt {
        let store = &stores[k];
        let (rows, ib) = (store.rows, store.jb);
        let regions = trailing_regions(&tm, k, ib);
        let form_t = !regions.is_empty();
        let panel_writes: Vec<usize> = (k..tm.mt())
            .map(|i| tm.tile_id(i, k))
            .chain([pid(k)])
            .collect();
        g.task("qr_panel", &[], &panel_writes, move || {
            // SAFETY: this task owns the block-column tiles and the store.
            unsafe {
                let v = &mut *store.data.get();
                gather(tm_ref, k, k, 0, ib, v);
                let tau_k = &mut *store.tau.get();
                // Blocked panel (never re-enters the dag: the panel's
                // min dimension is at most one tile).
                crate::qr::geqrf(rows, ib, v, rows, tau_k);
                if form_t {
                    larft(rows, ib, v, rows, tau_k, &mut *store.tfac.get(), ib);
                }
                scatter(tm_ref, k, k, 0, ib, v);
            }
            0
        });
        for (j, c0, c1) in regions {
            let writes: Vec<usize> = (k..tm.mt()).map(|i| tm.tile_id(i, j)).collect();
            let w = c1 - c0;
            g.task("qr_larfb", &[pid(k)], &writes, move || {
                // SAFETY: declared writes cover tile column j rows k..mt;
                // the store is a declared read.
                unsafe {
                    let mut c = vec![T::zero(); rows * w];
                    gather(tm_ref, k, j, c0, w, &mut c);
                    larfb(
                        Side::Left,
                        Trans::ConjTrans,
                        rows,
                        w,
                        ib,
                        &*store.data.get(),
                        rows,
                        &*store.tfac.get(),
                        ib,
                        &mut c,
                        rows,
                    );
                    scatter(tm_ref, k, j, c0, w, &c);
                }
                0
            });
        }
    }
    let info = g.run().info();
    // A panel without workspace: `a` stays as found, as for a refused copy.
    if info == INFO_NO_WORKSPACE {
        return info;
    }
    tm.copy_out(a, lda);
    for (k, store) in stores.iter().enumerate() {
        // SAFETY: the graph has quiesced; exclusive access again.
        let tau_k = unsafe { &*store.tau.get() };
        tau[k * nb..k * nb + store.jb].copy_from_slice(tau_k);
    }
    info
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testmat::{Dist, Larnv};
    use la_core::tune::{self, TuneConfig};

    fn dag_cfg(nb: usize) -> TuneConfig {
        TuneConfig {
            tile_nb: nb,
            max_threads: 2,
            ..TuneConfig::default()
        }
    }

    /// What makes a panel's `INFO_NO_WORKSPACE` / `INFO_CANCELLED` the
    /// graph's result (`RunResult::info` puts a negative code first).
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

    #[test]
    fn potrf_dag_matches_unblocked_both_triangles() {
        let n = 80;
        let mut rng = Larnv::new(11);
        let b: Vec<f64> = rng.vec(Dist::Uniform11, n * n);
        // SPD: A = B·Bᵀ + n·I.
        let mut a0 = vec![0.0f64; n * n];
        gemm(
            Trans::No,
            Trans::Trans,
            n,
            n,
            n,
            1.0,
            &b,
            n,
            &b,
            n,
            0.0,
            &mut a0,
            n,
        );
        for i in 0..n {
            a0[i + i * n] += n as f64;
        }
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
        let mut a = vec![0.0f64; n * n];
        for i in 0..n {
            a[i + i * n] = 1.0;
        }
        a[40 + 40 * n] = -5.0; // first bad leading minor is order 41
        let info = tune::with(dag_cfg(16), || potrf_dag(Uplo::Lower, n, &mut a, n));
        assert_eq!(info, 41);
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
}
