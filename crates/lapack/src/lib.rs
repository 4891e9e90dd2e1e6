//! # la-lapack — from-scratch generic LAPACK substrate
//!
//! The computational and driver routines that LAPACK 77 provides to the
//! paper's interface layer, re-implemented in Rust, generic over
//! [`la_core::Scalar`] (one function per S/D/C/Z quadruple). Calling
//! conventions mirror Fortran LAPACK: explicit dimensions and leading
//! dimensions, 1-based pivot vectors, `i32` info codes.

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
pub mod aux;
pub mod band;
pub mod chol;
pub mod dc;
pub mod eig_cplx;
pub mod eig_real;
pub mod eigsym;
pub mod gen;
pub mod hess;
pub mod ls;
pub mod lu;
pub mod mixed;
pub mod qr;
pub mod qz;
pub mod svd;
pub mod svx;
pub mod sym;
pub mod testmat;
pub mod tiled;

pub use aux::*;
pub use band::*;
pub use chol::*;
pub use dc::*;
pub use eig_cplx::*;
pub use eig_real::*;
pub use eigsym::*;
pub use gen::*;
pub use hess::*;
pub use ls::*;
pub use lu::*;
pub use mixed::*;
pub use qr::*;
pub use qz::*;
pub use svd::*;
pub use svx::*;
pub use sym::*;
pub use testmat::*;
pub use tiled::{geqrf_dag, getrf_dag, potrf_dag};
