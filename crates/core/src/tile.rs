//! Tile store for the task-graph factorizations — `TileMat`, a
//! tile-major copy of a column-major [`crate::Mat`]-shaped buffer.
//!
//! The PLASMA lineage of tiled algorithms (and the BLASFEO argument,
//! arXiv:1902.08115) wants each `nb × nb` block of the matrix contiguous
//! in memory: the packed BLAS-3 microkernels then read operands with unit
//! stride and a task touches exactly the cache lines of its own tiles.
//! `TileMat` provides that layout with explicit copy-in from and copy-out
//! to the LAPACK column-major convention, so the tiled factorizations can
//! slot in behind the existing `getrf`/`potrf`/`geqrf` signatures.
//!
//! **Design for out-of-core:** every tile is its own allocation, reached
//! only through [`TileMat::tile`] / [`TileMat::tile_mut`]. Nothing in the
//! dag runtime or the tiled algorithms assumes tiles are adjacent in
//! memory, which is exactly the property a future memory-mapped backing
//! store (tiles paged in from a file for n-beyond-RAM problems) needs.
//!
//! **Aliasing contract:** tiles are handed to concurrent dag tasks, so
//! the accessors take `&self` and are `unsafe`: the caller must guarantee
//! that no tile is written by one task while any other task reads or
//! writes it. The dag runtime's read/write dependency resolution
//! ([`crate::dag`]) is that guarantee — a task may only touch tiles it
//! declared, and the scheduler never runs two tasks with conflicting
//! declarations concurrently. The safe [`TileMat::tile_ref`] /
//! [`TileMat::tile_slice_mut`] variants cover serial (exclusively
//! borrowed) use.

use std::cell::UnsafeCell;

/// One `rows × cols` tile, column-major with `ld == rows`, in its own
/// allocation (see the module docs for why).
struct Tile<T> {
    data: UnsafeCell<Vec<T>>,
    rows: usize,
    cols: usize,
}

/// A tile-major matrix: an `m × n` column-major matrix cut into an
/// `mt × nt` grid of `nb × nb` tiles (edge tiles exactly sized, never
/// padded), each tile contiguous column-major.
///
/// Tile `(i, j)` covers rows `i·nb ..` and columns `j·nb ..` of the
/// original matrix and is addressed by the flat id `i + j·mt` — the same
/// id the dag builder uses as the tile's dependency-resource key (see
/// [`TileMat::tile_id`]).
pub struct TileMat<T> {
    tiles: Vec<Tile<T>>,
    m: usize,
    n: usize,
    nb: usize,
    mt: usize,
    nt: usize,
}

// SAFETY: `TileMat` is handed by reference to scoped dag workers, which
// access tiles through the raw accessors below. The dependency contract
// (module docs) makes every access to a given tile's `UnsafeCell`
// data-race-free; `T: Send` scalars carry no thread affinity.
unsafe impl<T: Send> Sync for TileMat<T> {}

impl<T: Copy> TileMat<T> {
    /// Copies the `m × n` column-major matrix `a` (leading dimension
    /// `lda`) into a fresh tile-major store with tile order `nb`, or
    /// `None` when the allocator refuses the memory — a second copy of the
    /// matrix, which a caller can decline to make instead of aborting.
    pub fn try_from_col_major(m: usize, n: usize, a: &[T], lda: usize, nb: usize) -> Option<Self> {
        let nb = nb.max(1);
        let mt = m.div_ceil(nb).max(1);
        let nt = n.div_ceil(nb).max(1);
        let mut tiles = Vec::new();
        tiles.try_reserve_exact(mt * nt).ok()?;
        for j in 0..nt {
            for i in 0..mt {
                let rows = nb.min(m - (i * nb).min(m));
                let cols = nb.min(n - (j * nb).min(n));
                let mut data = Vec::new();
                data.try_reserve_exact(rows * cols).ok()?;
                for c in 0..cols {
                    let src = i * nb + (j * nb + c) * lda;
                    data.extend_from_slice(&a[src..src + rows]);
                }
                tiles.push(Tile {
                    data: UnsafeCell::new(data),
                    rows,
                    cols,
                });
            }
        }
        // Column-major over tiles: tile (i, j) at index j*mt + i — but the
        // loop above pushed in exactly that order (j outer, i inner).
        Some(TileMat {
            tiles,
            m,
            n,
            nb,
            mt,
            nt,
        })
    }

    /// Copies every tile back into the `m × n` column-major buffer `a`
    /// (leading dimension `lda`). Exact inverse of
    /// [`TileMat::try_from_col_major`]: a round trip is bitwise lossless.
    pub fn copy_out(&self, a: &mut [T], lda: usize) {
        for j in 0..self.nt {
            for i in 0..self.mt {
                let t = &self.tiles[i + j * self.mt];
                // SAFETY: `&self` with no concurrent dag running — the
                // copy-out happens after the graph has fully quiesced.
                let data = unsafe { &*t.data.get() };
                for c in 0..t.cols {
                    let dst = i * self.nb + (j * self.nb + c) * lda;
                    a[dst..dst + t.rows].copy_from_slice(&data[c * t.rows..(c + 1) * t.rows]);
                }
            }
        }
    }
}

impl<T> TileMat<T> {
    /// Matrix rows.
    pub fn m(&self) -> usize {
        self.m
    }
    /// Matrix columns.
    pub fn n(&self) -> usize {
        self.n
    }
    /// Tile order (edge tiles are smaller).
    pub fn nb(&self) -> usize {
        self.nb
    }
    /// Tile-grid rows.
    pub fn mt(&self) -> usize {
        self.mt
    }
    /// Tile-grid columns.
    pub fn nt(&self) -> usize {
        self.nt
    }
    /// Row count of the tiles in tile-row `i` (the last row may be short).
    pub fn tile_rows(&self, i: usize) -> usize {
        self.tiles[i].rows
    }
    /// Column count of the tiles in tile-column `j`.
    pub fn tile_cols(&self, j: usize) -> usize {
        self.tiles[j * self.mt].cols
    }

    /// The dependency-resource id of tile `(i, j)`: `i + j·mt`. Ids
    /// `mt·nt ..` are free for auxiliary resources (pivot vectors, panel
    /// workspaces) — see [`TileMat::resource_count`].
    pub fn tile_id(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.mt && j < self.nt);
        i + j * self.mt
    }

    /// Number of tile resource ids (`mt·nt`); auxiliary dag resources
    /// should be numbered from here up.
    pub fn resource_count(&self) -> usize {
        self.mt * self.nt
    }

    /// Immutable view of tile `(i, j)` for a concurrent dag task.
    ///
    /// # Safety
    /// The caller must guarantee no concurrent writer of this tile for
    /// the lifetime of the returned slice (the dag dependency contract).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn tile(&self, i: usize, j: usize) -> &[T] {
        let t = &self.tiles[i + j * self.mt];
        &*t.data.get()
    }

    /// Mutable view of tile `(i, j)` for a concurrent dag task.
    ///
    /// # Safety
    /// The caller must guarantee exclusive access to this tile for the
    /// lifetime of the returned slice (the dag dependency contract).
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn tile_mut(&self, i: usize, j: usize) -> &mut [T] {
        let t = &self.tiles[i + j * self.mt];
        &mut *t.data.get()
    }

    /// Safe immutable tile view (requires the whole store borrowed).
    pub fn tile_ref(&mut self, i: usize, j: usize) -> &[T] {
        let t = &self.tiles[i + j * self.mt];
        // SAFETY: `&mut self` guarantees exclusivity.
        unsafe { &*t.data.get() }
    }

    /// Safe mutable tile view (requires the whole store borrowed).
    pub fn tile_slice_mut(&mut self, i: usize, j: usize) -> &mut [T] {
        let t = &self.tiles[i + j * self.mt];
        // SAFETY: `&mut self` guarantees exclusivity.
        unsafe { &mut *t.data.get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(m: usize, n: usize) -> Vec<f64> {
        (0..m * n).map(|k| k as f64 * 0.5 - 3.0).collect()
    }

    #[test]
    fn round_trip_is_bitwise_lossless() {
        for &(m, n, nb) in &[
            (7usize, 5usize, 3usize),
            (8, 8, 4),
            (1, 9, 4),
            (9, 1, 2),
            (6, 6, 8), // single tile larger than the matrix
            (13, 17, 5),
        ] {
            let a = fill(m, n);
            let t = TileMat::try_from_col_major(m, n, &a, m, nb).unwrap();
            let mut back = vec![0.0f64; m * n];
            t.copy_out(&mut back, m);
            assert_eq!(
                a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "m={m} n={n} nb={nb}"
            );
        }
    }

    #[test]
    fn grid_shape_and_edge_tiles_are_exact() {
        let a = fill(10, 7);
        let t = TileMat::try_from_col_major(10, 7, &a, 10, 4).unwrap();
        assert_eq!((t.mt(), t.nt()), (3, 2));
        assert_eq!(t.tile_rows(0), 4);
        assert_eq!(t.tile_rows(2), 2, "last tile row is exactly sized");
        assert_eq!(t.tile_cols(1), 3, "last tile column is exactly sized");
        assert_eq!(t.resource_count(), 6);
        assert_eq!(t.tile_id(2, 1), 2 + 3);
    }

    #[test]
    fn tile_contents_are_column_major_blocks() {
        let (m, n, nb) = (5usize, 5usize, 2usize);
        let a = fill(m, n);
        let mut t = TileMat::try_from_col_major(m, n, &a, m, nb).unwrap();
        // Tile (1, 1) covers rows 2..4, cols 2..4.
        let tile = t.tile_ref(1, 1);
        assert_eq!(tile.len(), 4);
        assert_eq!(tile[0], a[2 + 2 * m]);
        assert_eq!(tile[1], a[3 + 2 * m]);
        assert_eq!(tile[2], a[2 + 3 * m]);
        assert_eq!(tile[3], a[3 + 3 * m]);
        // Mutation through the safe accessor lands in copy-out.
        t.tile_slice_mut(1, 1)[0] = 99.0;
        let mut back = vec![0.0; m * n];
        t.copy_out(&mut back, m);
        assert_eq!(back[2 + 2 * m], 99.0);
    }

    #[test]
    fn respects_leading_dimension_on_both_sides() {
        let (m, n, lda, nb) = (4usize, 3usize, 6usize, 2usize);
        let mut a = vec![f64::NAN; lda * n];
        for j in 0..n {
            for i in 0..m {
                a[i + j * lda] = (i * 10 + j) as f64;
            }
        }
        let t = TileMat::try_from_col_major(m, n, &a, lda, nb).unwrap();
        let mut out = vec![0.0f64; lda * n];
        t.copy_out(&mut out, lda);
        for j in 0..n {
            for i in 0..m {
                assert_eq!(out[i + j * lda], (i * 10 + j) as f64);
            }
            for i in m..lda {
                assert_eq!(out[i + j * lda], 0.0, "beyond-m rows untouched by copy");
            }
        }
    }
}
