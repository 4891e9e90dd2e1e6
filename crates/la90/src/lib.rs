//! # la90 — the LAPACK90 user interface
//!
//! This crate is the paper's contribution: the `F90_LAPACK` module as a
//! Rust API. Every driver of the paper's Appendix G is provided with the
//! same ergonomics the Fortran 90 interface delivers:
//!
//! * **one generic name** per driver covering all four type/precision
//!   instantiations (via [`la_core::Scalar`]),
//! * **shape dispatch** between matrix and vector right-hand sides (via
//!   [`Rhs`], the analog of the `B(:,:)` / `B(:)` interface bodies),
//! * **derived dimensions** — `N`, `NRHS`, `LDA`, … come from the array
//!   shapes, never from explicit arguments,
//! * **hidden workspace** — pivot vectors, reflector scalars and scratch
//!   arrays are allocated internally unless the caller asks for them,
//! * **the `ERINFO` protocol** — argument checks produce the exact
//!   negative `INFO` indices of the Appendix-C wrappers, returned as
//!   [`la_core::LaError`] through `Result`.
//!
//! ## Optional-argument naming convention
//!
//! Rust has no optional arguments, so each driver exposes the Fortran
//! wrapper's optionals as name suffixes: the bare `base` name takes only
//! the required arguments and uses the LAPACK defaults, and each
//! `base_<opt>` variant appends the named optionals in wrapper order —
//! [`gesv`] / [`gesv_ipiv`], [`posv`] / [`posv_uplo`],
//! [`sysv`] / [`sysv_uplo`] / [`sysv_uplo_ipiv`],
//! [`sygv`] / [`sygv_itype_uplo`], [`gels`] / [`gels_trans`],
//! [`syev`] / [`syev_uplo`]. Internally every family funnels into one
//! private `*_opt` combinator holding the checks, so the variants cannot
//! drift apart.
//!
//! ## Performance tuning
//!
//! The substrate's parallel BLAS-3 and blocked factorizations read the
//! runtime [`tune`] configuration (re-exported from `la_core`): thread
//! budget, parallel flop thresholds and per-routine block sizes, settable
//! via `LA_*` environment variables, [`tune::update`], or a scoped
//! [`tune::with`] — no caller-visible API change, exactly the paper's
//! premise that `LA_GESV(A, B)` delivers the tuned substrate's speed with
//! zero interface cost.
//!
//! ```
//! use la_core::Mat;
//! // The paper's Example 2 (Fig. 2): CALL LA_GESV( A, B )
//! let mut a: Mat<f64> = Mat::from_fn(5, 5, |i, j| ((i * 5 + j * 3) % 7) as f64 + 1.0);
//! let mut b: Vec<f64> = (0..5).map(|i| (0..5).map(|k| a[(i, k)]).sum()).collect();
//! la90::gesv(&mut a, &mut b).unwrap();
//! for x in &b { assert!((x - 1.0).abs() < 1e-10); }
//! ```

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

pub mod comp;
pub mod eig;
pub mod expert;
pub mod gv;
pub mod linsys;
pub mod lstsq;
pub mod mixed;
pub mod rhs;

pub use la_core::tune;

// The crate-root surface is the explicit, curated union of the module
// surfaces — no glob re-exports, so `cargo doc` and IDE completion show
// exactly the driver list of the paper's Appendix G and rustc can flag a
// name collision between modules at the definition site.
pub use comp::{
    geequ, gerfs, getrf, getrf_rcond, getri, getrs, hegst, hetrd, lagge, lange, orgtr, potrf,
    potrf_rcond, sygst, sytrd, ungtr, Dist, GeequOut, Larnv, SpectrumMode,
};
pub use eig::{
    gees, geesx, geev, geevx, gesvd, hbev, hbevd, hbevx, heev, heevd, heevx, hpev, hpevd, hpevx,
    sbev, sbevd, sbevx, spev, spevd, spevx, stev, stevd, stevx, syev, syev_uplo, syevd, syevd_uplo,
    syevx, EigDriver, EigRange, GeesOut, GeesxOut, GeevOut, GeevxOut, Jobz, SvdOut,
};
pub use expert::{
    gbsvx, gesvx, gtsvx, hesvx, hpsvx, pbsvx, posvx, ppsvx, ptsvx, spsvx, sysvx, Equed, ExpertOut,
    Fact,
};
pub use gv::{gegs, gegv, hbgv, hegv, hpgv, sbgv, spgv, sygv, sygv_itype_uplo, GegsOut, GvItype};
pub use linsys::{
    gbsv, gbsv_ipiv, gesv, gesv_ipiv, gtsv, hesv, hesv_uplo, hesv_uplo_ipiv, hpsv, hpsv_ipiv, pbsv,
    posv, posv_uplo, ppsv, ptsv, spsv, spsv_ipiv, sysv, sysv_uplo, sysv_uplo_ipiv,
};
pub use lstsq::{gels, gels_trans, gelss, gelsx, ggglm, gglse, RankLsOut};
pub use mixed::{gesvxx, posvxx, RfsxOut};
pub use rhs::Rhs;

/// Everything a typical caller needs in one import:
/// `use la90::prelude::*;` brings the simple drivers, the shape types and
/// the flag enums into scope (the Fortran `USE F90_LAPACK` experience).
pub mod prelude {
    pub use crate::eig::{gees, geev, gesvd, syev, syevd, Jobz};
    pub use crate::gv::sygv;
    pub use crate::linsys::{gbsv, gesv, gtsv, hesv, posv, ppsv, ptsv, sysv};
    pub use crate::lstsq::{gels, gelss};
    pub use crate::rhs::Rhs;
    pub use la_core::{mat, BandMat, LaError, Mat, PackedMat, SymBandMat, C32, C64};
    pub use la_core::{Diag, Norm, Side, Trans, Uplo};
}
