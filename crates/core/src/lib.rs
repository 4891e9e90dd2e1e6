//! # la-core — foundation of the LAPACK90 reproduction
//!
//! This crate provides what the paper obtains from the Fortran 90 language
//! and from LAPACK's auxiliary layer:
//!
//! * [`Scalar`] / [`RealScalar`] — the `LA_PRECISION` module plus generic
//!   resolution: one generic routine covers `S`/`D`/`C`/`Z`.
//! * [`Complex`] — `COMPLEX(SP)` / `COMPLEX(DP)` with robust division
//!   (`xLADIV`) and principal square root.
//! * [`Mat`] — the assumed-shape 2-D array: column-major dense storage from
//!   which the drivers derive `N`, `NRHS`, `LDA`, … by shape inspection.
//! * [`MatRef`] / [`MatMut`] — borrowed column-major views
//!   (`ptr/rows/cols/lda` with subview/split helpers): the typed currency
//!   of the BLAS-3 packing, microkernel, and band-driver internals.
//! * [`BandMat`], [`SymBandMat`], [`PackedMat`] — LAPACK band and packed
//!   storage schemes for the `GB`/`SB`/`PB`/`SP`/`PP` drivers.
//! * [`LaError`] / [`erinfo`] — the `ERINFO` error protocol: `INFO` codes
//!   with the exact LAPACK sign conventions.
//! * [`Uplo`], [`Trans`], [`Diag`], [`Side`], [`Norm`] — the character
//!   flag arguments as enums.
//! * [`ctx`] — the ambient context: one [`Ctx`] (tuning + the three
//!   policies below) with one process global read from the `LA_*`
//!   environment by one table-driven parser, one thread-local scope stack
//!   that also carries the cancel token, the heartbeat and the probe's
//!   call-tree state, and the one thread hop (`ctx::fan_out`) every
//!   parallel path runs on.
//! * [`tune`] — the runtime tuning subsystem (`ILAENV` as a settable
//!   object): thread budget, parallel thresholds, per-routine block
//!   sizes, all adjustable programmatically or via `LA_*` environment
//!   variables.
//! * [`except`] — the exception-handling subsystem (Demmel et al.,
//!   arXiv:2207.09281): runtime NaN/Inf screening policy (`LA_FP_CHECK`),
//!   `all_finite` sweeps, and the `INFO = -101` non-finite extension code.
//! * [`abft`] — algorithm-based fault tolerance (Huang–Abraham checksums):
//!   runtime soft-fault policy (`LA_ABFT`), the `INFO = -102` soft-fault
//!   extension code, detection/recovery counters, and (behind the
//!   `fault-inject` feature) silent-corruption injection for tests.
//! * [`dag`] — the dependency-tracked task-graph runtime (PLASMA-style
//!   sequential-task-flow scheduling, longest remaining chain first) under
//!   the task-graph factorizations, which work in place on the caller's
//!   column-major matrix: per-task panic isolation, fault scoping, policy
//!   inheritance and the no-oversubscription clamp ([`ctx::isolated`],
//!   [`ctx::fan_out`]).
//! * [`cancel`] — cooperative cancellation: [`CancelToken`] deadlines and
//!   the `INFO = -103` (cancelled) / `-104` (worker panicked) extension
//!   codes consumed by the dag runtime and the `la-serve` queue.
//! * [`probe`] — the observability subsystem (`LA_PROFILE`): per-routine
//!   counters with closed-form flop accounting, hierarchical span tracing
//!   across the driver → factorization → BLAS-3 stack, and structured
//!   reports.
//! * [`dd`] — [`Dd`], double-double extended precision (~31 decimal
//!   digits) implementing [`Scalar`]/[`RealScalar`], the residual
//!   precision of the extra-precise refinement drivers (`gesvxx`,
//!   `posvxx`).
//! * [`json`] — the dependency-free JSON writer/parser used by [`probe`]
//!   reports and the bench harness.

#![warn(missing_docs)]

pub mod abft;
pub mod cancel;
pub mod complex;
pub mod ctx;
pub mod dag;
pub mod dd;
pub mod enums;
pub mod error;
pub mod except;
pub mod json;
pub mod mat;
pub mod probe;
pub mod scalar;
pub mod storage;
pub mod tune;

pub use abft::AbftPolicy;
pub use cancel::CancelToken;
pub use complex::{Complex, C32, C64};
pub use ctx::Ctx;
pub use dag::{Builder as DagBuilder, GraphStats};
pub use dd::Dd;
pub use enums::{Diag, Norm, Side, Trans, Uplo};
pub use error::{erinfo, LaError, PositiveInfo};
pub use except::FpCheckPolicy;
pub use mat::{Mat, MatMut, MatRef};
pub use probe::ProbePolicy;
pub use scalar::{RealScalar, Scalar};
pub use storage::{BandMat, PackedMat, SymBandMat};
pub use tune::TuneConfig;
