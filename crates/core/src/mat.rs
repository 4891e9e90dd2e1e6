//! Dense column-major matrix type.
//!
//! `Mat<T>` plays the role of the Fortran 90 assumed-shape 2-D array in the
//! LAPACK90 interface: the high-level drivers take `&mut Mat<T>` and derive
//! every dimension argument (`N`, `NRHS`, `LDA`, `LDB`) from its shape, just
//! as `SGESV_F90` derives them with `SIZE(A,1)` etc. The storage is
//! column-major with leading dimension equal to the row count, so the buffer
//! can be passed unchanged to the Fortran-convention routines in `la-lapack`.

use core::fmt;
use core::ops::{Index, IndexMut};

use crate::scalar::Scalar;

/// A dense column-major matrix (Fortran storage order).
#[derive(PartialEq)]
pub struct Mat<T> {
    data: Vec<T>,
    nrows: usize,
    ncols: usize,
}

impl<T: Clone> Clone for Mat<T> {
    fn clone(&self) -> Self {
        Mat {
            data: self.data.clone(),
            nrows: self.nrows,
            ncols: self.ncols,
        }
    }

    /// Overwrites `self` with `source`, reusing `self`'s buffer when it is
    /// large enough — a workspace refilled per call allocates once.
    fn clone_from(&mut self, source: &Self) {
        self.data.clone_from(&source.data);
        self.nrows = source.nrows;
        self.ncols = source.ncols;
    }
}

impl<T: Scalar> Mat<T> {
    /// Creates an `m × n` matrix of zeros.
    pub fn zeros(m: usize, n: usize) -> Self {
        Mat {
            data: vec![T::zero(); m * n],
            nrows: m,
            ncols: n,
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut a = Self::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = T::one();
        }
        a
    }

    /// Builds an `m × n` matrix from a function of `(row, col)`.
    pub fn from_fn(m: usize, n: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(m * n);
        for j in 0..n {
            for i in 0..m {
                data.push(f(i, j));
            }
        }
        Mat {
            data,
            nrows: m,
            ncols: n,
        }
    }

    /// Wraps an existing column-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != m * n`.
    pub fn from_col_major(m: usize, n: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), m * n, "buffer length must be m*n");
        Mat {
            data,
            nrows: m,
            ncols: n,
        }
    }

    /// Builds a matrix from rows given in row-major order (convenient for
    /// literals in tests and examples).
    ///
    /// # Panics
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        let m = rows.len();
        let n = if m == 0 { 0 } else { rows[0].len() };
        for r in rows {
            assert_eq!(r.len(), n, "all rows must have the same length");
        }
        Self::from_fn(m, n, |i, j| rows[i][j])
    }

    /// Builds a column vector as an `m × 1` matrix.
    pub fn col_vec(v: &[T]) -> Self {
        Self::from_col_major(v.len(), 1, v.to_vec())
    }

    /// Number of rows (`SIZE(A,1)`).
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns (`SIZE(A,2)`).
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Leading dimension when the buffer is handed to a Fortran-convention
    /// routine. Always `max(1, nrows)` so zero-sized matrices stay legal.
    #[inline(always)]
    pub fn lda(&self) -> usize {
        self.nrows.max(1)
    }

    /// True if the matrix is square.
    #[inline(always)]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// The underlying column-major buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The underlying column-major buffer, mutably.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Column `j` as a contiguous slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable contiguous slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Row `i` copied into a `Vec`.
    pub fn row(&self, i: usize) -> Vec<T> {
        (0..self.ncols).map(|j| self[(i, j)]).collect()
    }

    /// Checked element access.
    pub fn get(&self, i: usize, j: usize) -> Option<&T> {
        if i < self.nrows && j < self.ncols {
            Some(&self.data[i + j * self.nrows])
        } else {
            None
        }
    }

    /// Copies the `mb × nb` block with top-left corner `(r0, c0)`.
    pub fn block(&self, r0: usize, c0: usize, mb: usize, nb: usize) -> Mat<T> {
        assert!(r0 + mb <= self.nrows && c0 + nb <= self.ncols);
        Mat::from_fn(mb, nb, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Applies `f` to every element, producing a new matrix.
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Mat<U> {
        Mat {
            data: self.data.iter().map(|&x| f(x)).collect(),
            nrows: self.nrows,
            ncols: self.ncols,
        }
    }

    /// Plain transpose `Aᵀ`.
    pub fn transpose(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)])
    }

    /// Conjugate transpose `Aᴴ` (equals `Aᵀ` for real scalars).
    pub fn conj_transpose(&self) -> Mat<T> {
        Mat::from_fn(self.ncols, self.nrows, |i, j| self[(j, i)].conj())
    }

    /// Frobenius norm, accumulated in the associated real type.
    pub fn norm_fro(&self) -> T::Real {
        let mut s = T::Real::zero();
        for &x in &self.data {
            s += x.abs_sqr();
        }
        s.sqrt_r()
    }

    /// Maximum `abs1` over all elements (a cheap `max |a_ij|`-style norm).
    pub fn norm_max(&self) -> T::Real {
        use crate::scalar::RealScalar;
        let mut m = T::Real::zero();
        for &x in &self.data {
            m = m.maxr(x.abs1());
        }
        m
    }

    /// True iff every element is finite — the [`crate::except`] screening
    /// sweep over the whole stored array (storage is dense, so the buffer
    /// is exactly the matrix).
    pub fn all_finite(&self) -> bool {
        crate::except::all_finite(&self.data)
    }
}

impl<T: Scalar> Mat<T> {
    /// An immutable view of the whole matrix (`lda == nrows`).
    #[inline]
    pub fn view(&self) -> MatRef<'_, T> {
        MatRef::new(&self.data, self.nrows, self.ncols, self.lda())
    }

    /// A mutable view of the whole matrix (`lda == nrows`).
    #[inline]
    pub fn view_mut(&mut self) -> MatMut<'_, T> {
        let (m, n) = (self.nrows, self.ncols);
        let lda = self.lda();
        MatMut::new(&mut self.data, m, n, lda)
    }
}

/// An immutable view of a column-major matrix region: a borrowed slice
/// plus `(nrows, ncols, lda)`. This is the typed replacement for the raw
/// `(&[T], lda, offset)` triples the BLAS internals used to pass around —
/// the dimensions travel with the pointer, and subviews/splits are
/// checked once at construction instead of re-derived at every indexing
/// site.
///
/// The backing slice must hold at least `lda·(ncols−1) + nrows` elements
/// (the Fortran convention: the final column need not be padded out to
/// `lda`), with `lda ≥ max(1, nrows)`.
#[derive(Clone, Copy)]
pub struct MatRef<'a, T> {
    data: &'a [T],
    nrows: usize,
    ncols: usize,
    lda: usize,
}

impl<'a, T: Scalar> MatRef<'a, T> {
    /// Wraps a column-major buffer region.
    ///
    /// # Panics
    /// Panics if `lda < max(1, nrows)` or the buffer is too short for the
    /// stated shape.
    #[inline]
    pub fn new(data: &'a [T], nrows: usize, ncols: usize, lda: usize) -> Self {
        assert!(lda >= nrows.max(1), "lda {lda} < max(1, nrows {nrows})");
        if ncols > 0 {
            assert!(
                data.len() >= lda * (ncols - 1) + nrows,
                "buffer of {} too short for {nrows}x{ncols} lda {lda}",
                data.len()
            );
        }
        MatRef {
            data,
            nrows,
            ncols,
            lda,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Leading dimension of the backing buffer.
    #[inline(always)]
    pub fn lda(&self) -> usize {
        self.lda
    }

    /// The backing slice (length `≥ lda·(ncols−1) + nrows`).
    #[inline(always)]
    pub fn as_slice(&self) -> &'a [T] {
        self.data
    }

    /// Element `(i, j)`, by value.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i + j * self.lda]
    }

    /// Column `j` as a contiguous slice of length `nrows`.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [T] {
        let start = j * self.lda;
        &self.data[start..start + self.nrows]
    }

    /// The `m × n` sub-view with top-left corner `(r0, c0)`, sharing the
    /// parent's leading dimension.
    #[inline]
    pub fn subview(&self, r0: usize, c0: usize, m: usize, n: usize) -> MatRef<'a, T> {
        assert!(
            r0 + m <= self.nrows && c0 + n <= self.ncols,
            "subview ({r0},{c0})+{m}x{n} out of {}x{}",
            self.nrows,
            self.ncols
        );
        if m == 0 || n == 0 {
            return MatRef {
                data: &[],
                nrows: m,
                ncols: n,
                lda: self.lda,
            };
        }
        let start = r0 + c0 * self.lda;
        let end = start + self.lda * (n - 1) + m;
        MatRef {
            data: &self.data[start..end],
            nrows: m,
            ncols: n,
            lda: self.lda,
        }
    }

    /// Splits into columns `[0, j)` and `[j, ncols)`.
    #[inline]
    pub fn split_at_col(self, j: usize) -> (MatRef<'a, T>, MatRef<'a, T>) {
        assert!(j <= self.ncols);
        let left_end = if j == 0 {
            0
        } else {
            self.lda * (j - 1) + self.nrows
        };
        let right_start = (j * self.lda).min(self.data.len());
        (
            MatRef {
                data: &self.data[..left_end],
                nrows: self.nrows,
                ncols: j,
                lda: self.lda,
            },
            MatRef {
                data: &self.data[right_start..],
                nrows: self.nrows,
                ncols: self.ncols - j,
                lda: self.lda,
            },
        )
    }
}

/// The mutable counterpart of [`MatRef`]: a uniquely borrowed column-major
/// region. Splitting ([`MatMut::split_at_col`]) hands disjoint column
/// bands to worker threads without raw-pointer arithmetic, which is what
/// the striped BLAS-3 dispatch is built on.
pub struct MatMut<'a, T> {
    data: &'a mut [T],
    nrows: usize,
    ncols: usize,
    lda: usize,
}

impl<'a, T: Scalar> MatMut<'a, T> {
    /// Wraps a column-major buffer region mutably.
    ///
    /// # Panics
    /// Panics if `lda < max(1, nrows)` or the buffer is too short for the
    /// stated shape.
    #[inline]
    pub fn new(data: &'a mut [T], nrows: usize, ncols: usize, lda: usize) -> Self {
        assert!(lda >= nrows.max(1), "lda {lda} < max(1, nrows {nrows})");
        if ncols > 0 {
            assert!(
                data.len() >= lda * (ncols - 1) + nrows,
                "buffer of {} too short for {nrows}x{ncols} lda {lda}",
                data.len()
            );
        }
        MatMut {
            data,
            nrows,
            ncols,
            lda,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Leading dimension of the backing buffer.
    #[inline(always)]
    pub fn lda(&self) -> usize {
        self.lda
    }

    /// The backing slice.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        self.data
    }

    /// The backing slice, mutably.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.data
    }

    /// Element `(i, j)`, by value.
    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> T {
        debug_assert!(i < self.nrows && j < self.ncols);
        self.data[i + j * self.lda]
    }

    /// Element `(i, j)`, mutably.
    #[inline(always)]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.lda]
    }

    /// Column `j` as a contiguous slice of length `nrows`.
    #[inline]
    pub fn col(&self, j: usize) -> &[T] {
        let start = j * self.lda;
        &self.data[start..start + self.nrows]
    }

    /// Column `j` as a mutable contiguous slice of length `nrows`.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [T] {
        let start = j * self.lda;
        &mut self.data[start..start + self.nrows]
    }

    /// A shared view of the same region.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_, T> {
        MatRef {
            data: self.data,
            nrows: self.nrows,
            ncols: self.ncols,
            lda: self.lda,
        }
    }

    /// Reborrows: a mutable view with a shorter lifetime, leaving `self`
    /// usable afterwards.
    #[inline]
    pub fn rb(&mut self) -> MatMut<'_, T> {
        MatMut {
            data: self.data,
            nrows: self.nrows,
            ncols: self.ncols,
            lda: self.lda,
        }
    }

    /// Consumes the view, returning the `m × n` sub-view with top-left
    /// corner `(r0, c0)` and the parent's leading dimension. Use
    /// `v.rb().subview(..)` to keep `v` usable.
    #[inline]
    pub fn subview(self, r0: usize, c0: usize, m: usize, n: usize) -> MatMut<'a, T> {
        assert!(
            r0 + m <= self.nrows && c0 + n <= self.ncols,
            "subview ({r0},{c0})+{m}x{n} out of {}x{}",
            self.nrows,
            self.ncols
        );
        if m == 0 || n == 0 {
            return MatMut {
                data: &mut [],
                nrows: m,
                ncols: n,
                lda: self.lda,
            };
        }
        let start = r0 + c0 * self.lda;
        let end = start + self.lda * (n - 1) + m;
        MatMut {
            data: &mut self.data[start..end],
            nrows: m,
            ncols: n,
            lda: self.lda,
        }
    }

    /// Splits into disjoint mutable column bands `[0, j)` and
    /// `[j, ncols)` — the primitive under the striped parallel dispatch.
    #[inline]
    pub fn split_at_col(self, j: usize) -> (MatMut<'a, T>, MatMut<'a, T>) {
        assert!(j <= self.ncols);
        let left_end = if j == 0 {
            0
        } else {
            self.lda * (j - 1) + self.nrows
        };
        let right_start = (j * self.lda).min(self.data.len());
        let (left_raw, right) = self.data.split_at_mut(right_start);
        (
            MatMut {
                data: &mut left_raw[..left_end],
                nrows: self.nrows,
                ncols: j,
                lda: self.lda,
            },
            MatMut {
                data: right,
                nrows: self.nrows,
                ncols: self.ncols - j,
                lda: self.lda,
            },
        )
    }
}

use crate::scalar::RealScalar;

impl<T: Scalar> Index<(usize, usize)> for Mat<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[i + j * self.nrows]
    }
}

impl<T: Scalar> IndexMut<(usize, usize)> for Mat<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[i + j * self.nrows]
    }
}

impl<T: Scalar> fmt::Debug for Mat<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        for i in 0..self.nrows {
            write!(f, "  ")?;
            for j in 0..self.ncols {
                write!(f, "{:?} ", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

impl<T: Scalar> fmt::Display for Mat<T> {
    /// Prints rows in the style of the paper's `'(7(1X,F9.3))'` format.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.nrows {
            for j in 0..self.ncols {
                write!(f, " {:9.3}", self[(i, j)])?;
            }
            if i + 1 < self.nrows {
                writeln!(f)?;
            }
        }
        Ok(())
    }
}

/// Builds a [`Mat`] from row-major literals:
/// `mat![[1.0, 2.0], [3.0, 4.0]]`.
#[macro_export]
macro_rules! mat {
    ($([$($x:expr),* $(,)?]),* $(,)?) => {
        $crate::Mat::from_rows(&[$(vec![$($x),*]),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_is_column_major() {
        let a: Mat<f64> = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        assert_eq!(a[(0, 1)], 2.0);
        assert_eq!(a.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn identity_and_transpose() {
        let i: Mat<f64> = Mat::identity(3);
        assert_eq!(i.transpose(), i);
        let a: Mat<f64> = Mat::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        let at = a.transpose();
        assert_eq!(at.shape(), (3, 2));
        assert_eq!(at[(2, 1)], a[(1, 2)]);
    }

    #[test]
    fn conj_transpose_conjugates() {
        use crate::complex::C64;
        let a = Mat::from_rows(&[vec![C64::new(1.0, 2.0)], vec![C64::new(3.0, -4.0)]]);
        let ah = a.conj_transpose();
        assert_eq!(ah[(0, 0)], C64::new(1.0, -2.0));
        assert_eq!(ah[(0, 1)], C64::new(3.0, 4.0));
    }

    #[test]
    fn norms() {
        let a: Mat<f64> = mat![[3.0, 0.0], [0.0, 4.0]];
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(a.norm_max(), 4.0);
    }

    #[test]
    fn block_copy() {
        let a: Mat<f64> = Mat::from_fn(4, 4, |i, j| (i + 10 * j) as f64);
        let b = a.block(1, 2, 2, 2);
        assert_eq!(b[(0, 0)], a[(1, 2)]);
        assert_eq!(b[(1, 1)], a[(2, 3)]);
    }

    #[test]
    fn all_finite_screens_whole_buffer() {
        let mut a: Mat<f64> = Mat::identity(5);
        assert!(a.all_finite());
        a[(3, 2)] = f64::NAN;
        assert!(!a.all_finite());
        a[(3, 2)] = f64::INFINITY;
        assert!(!a.all_finite());
    }

    #[test]
    fn zero_sized_matrices_are_legal() {
        let a: Mat<f64> = Mat::zeros(0, 5);
        assert_eq!(a.lda(), 1);
        assert_eq!(a.as_slice().len(), 0);
    }

    #[test]
    #[should_panic]
    fn from_rows_rejects_ragged() {
        let _: Mat<f64> = Mat::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn views_index_like_the_matrix() {
        let mut a: Mat<f64> = Mat::from_fn(4, 3, |i, j| (i + 10 * j) as f64);
        let v = a.view();
        assert_eq!((v.nrows(), v.ncols(), v.lda()), (4, 3, 4));
        assert_eq!(v.at(2, 1), a[(2, 1)]);
        assert_eq!(v.col(2), a.col(2));
        let expect = a[(3, 0)];
        let mut m = a.view_mut();
        *m.at_mut(1, 2) = 99.0;
        assert_eq!(m.at(1, 2), 99.0);
        assert_eq!(m.as_ref().at(3, 0), expect);
        assert_eq!(a[(1, 2)], 99.0);
    }

    #[test]
    fn subviews_share_the_parent_lda() {
        let a: Mat<f64> = Mat::from_fn(5, 5, |i, j| (i + 10 * j) as f64);
        let s = a.view().subview(1, 2, 3, 2);
        assert_eq!((s.nrows(), s.ncols(), s.lda()), (3, 2, 5));
        assert_eq!(s.at(0, 0), a[(1, 2)]);
        assert_eq!(s.at(2, 1), a[(3, 3)]);
        let e = s.subview(1, 1, 0, 1);
        assert_eq!((e.nrows(), e.ncols()), (0, 1));
    }

    #[test]
    fn split_at_col_yields_disjoint_bands() {
        let mut a: Mat<f64> = Mat::from_fn(3, 4, |i, j| (i + 10 * j) as f64);
        let want_left = a.block(0, 0, 3, 1);
        let (mut l, mut r) = a.view_mut().split_at_col(1);
        assert_eq!((l.ncols(), r.ncols()), (1, 3));
        assert_eq!(l.at(2, 0), want_left[(2, 0)]);
        l.col_mut(0)[0] = -1.0;
        r.col_mut(2)[2] = -2.0;
        assert_eq!(a[(0, 0)], -1.0);
        assert_eq!(a[(2, 3)], -2.0);
        // Degenerate splits stay legal.
        let (l, r) = a.view().split_at_col(0);
        assert_eq!((l.ncols(), r.ncols()), (0, 4));
        let (l, r) = a.view().split_at_col(4);
        assert_eq!((l.ncols(), r.ncols()), (4, 0));
    }

    #[test]
    fn views_accept_unpadded_final_column() {
        // Fortran convention: the buffer may stop at lda*(n-1)+m.
        let data = vec![0.0f64; 5 * 2 + 3];
        let v: MatRef<'_, f64> = MatRef::new(&data, 3, 3, 5);
        assert_eq!(v.col(2).len(), 3);
        let (_, tail) = v.split_at_col(2);
        assert_eq!(tail.ncols(), 1);
        assert_eq!(tail.col(0).len(), 3);
    }

    #[test]
    #[should_panic]
    fn matref_rejects_short_buffers() {
        let data = vec![0.0f64; 5];
        let _ = MatRef::new(&data, 3, 2, 3);
    }
}
