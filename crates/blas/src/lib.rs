//! # la-blas — from-scratch generic BLAS
//!
//! The Basic Linear Algebra Subprograms the LAPACK substrate is built on
//! (paper §1.1: "LAPACK requires that highly optimized block matrix
//! operations be already implemented on each machine"). Everything here is
//! implemented from scratch, generic over [`la_core::Scalar`], so one
//! function covers the S/D/C/Z quadruple the paper's interface blocks
//! enumerate by hand.
//!
//! Conventions: column-major storage, explicit leading dimensions,
//! 0-based indices, strictly positive strides.

#![warn(missing_docs)]
// Fortran-convention numerics: indexed loops over strided buffers, long
// LAPACK argument lists and in-place `x = x op y` updates are the house
// style here (they mirror the reference BLAS/LAPACK routines line for
// line), so the corresponding pedantic lints are disabled crate-wide.
#![allow(
    clippy::assign_op_pattern,
    clippy::too_many_arguments,
    clippy::type_complexity,
    clippy::needless_range_loop,
    clippy::manual_memcpy,
    clippy::manual_swap
)]

pub(crate) mod abft;
pub mod kernel;
pub mod l1;
pub mod l2;
pub mod l3;
pub mod pack;

pub use l1::{
    asum, axpy, copy, dotc, dotu, iamax, lacgv, lassq, nrm2, rot, rotg, rscal, scal, swap,
};
pub use l2::{
    gbmv, gemv, gerc, geru, hemv, her, her2, sbmv, spmv, spr2, strip_update, symv, syr, syr2, tbsv,
    tpmv, tpsv, trmv, trsv, STRIP,
};
pub use l3::{gemm, herk, symm, syr2k, syrk, trmm, trsm};
