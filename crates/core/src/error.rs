//! The error protocol — Rust analog of the paper's `ERINFO` subroutine
//! (Appendix D) and the `INFO` argument convention.
//!
//! In LAPACK90 every wrapper funnels its local `LINFO` through `ERINFO`:
//! if the caller passed `INFO` the code is stored there, otherwise the
//! program terminates with
//!
//! ```text
//! Terminated in LAPACK90 subroutine LA_GESV
//! Error indicator, INFO =  -1
//! ```
//!
//! In Rust the idiomatic split is: every driver returns
//! `Result<_, LaError>`; inspecting the error is "passing INFO", and
//! `.unwrap()`-style propagation reproduces the terminate-with-message
//! behaviour because [`LaError`]'s `Display` prints exactly that message.

use core::fmt;

/// An error from a LAPACK90 driver, carrying the routine name and the
/// LAPACK `INFO` convention code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaError {
    /// `INFO = -i`: the `i`-th argument (1-based, in the Fortran argument
    /// order documented on each driver) had an illegal value — typically a
    /// shape mismatch detected by the wrapper, as in Appendix C.
    IllegalArg {
        /// Driver name, e.g. `"LA_GESV"`.
        routine: &'static str,
        /// 1-based argument index.
        index: usize,
    },
    /// `INFO = i > 0` from an LU-style factorization: `U(i,i)` is exactly
    /// zero, the matrix is singular and no solution was computed.
    Singular {
        /// Driver name.
        routine: &'static str,
        /// 1-based index of the zero pivot.
        index: usize,
    },
    /// `INFO = i > 0` from a Cholesky-style factorization: the leading
    /// minor of order `i` is not positive definite.
    NotPosDef {
        /// Driver name.
        routine: &'static str,
        /// Order of the offending leading minor (1-based).
        minor: usize,
    },
    /// `INFO = i > 0` from an iterative eigenvalue/SVD algorithm: `i`
    /// off-diagonal elements (or intermediate quantities) failed to
    /// converge to zero within the iteration limit.
    NoConvergence {
        /// Driver name.
        routine: &'static str,
        /// Count of unconverged quantities, as LAPACK reports it.
        count: usize,
    },
    /// `INFO = -100`: workspace allocation failed (the wrapper's
    /// `ALLOCATE ... STAT=ISTAT` path in Appendix C).
    AllocFailed {
        /// Driver name.
        routine: &'static str,
    },
    /// `INFO = -101`: a NaN or ±Inf was detected by the exception-handling
    /// policy (see [`crate::except`]) — either in the array input named by
    /// `argument` before any computation, or in a computed output that
    /// would otherwise have been returned with `INFO = 0`. This extension
    /// code mirrors the `-100` allocation convention and follows Demmel
    /// et al. (arXiv:2207.09281).
    NonFinite {
        /// Driver name.
        routine: &'static str,
        /// 1-based index of the offending argument in the documented
        /// argument order; `0` when the origin is unknown (e.g. the code
        /// was reconstructed from a raw `INFO` by [`erinfo`]).
        argument: usize,
    },
    /// `INFO = -102`: a checksum verification in the ABFT layer (see
    /// [`crate::abft`]) detected a silently corrupted result — a *finite*
    /// wrong answer, the soft-error failure mode NaN screening cannot see.
    /// Raised under `AbftPolicy::Verify` (the corrupted result is left in
    /// place), or under `Recover` when even the recomputation failed
    /// verification. Extends the `-100`/`-101` code family.
    SoftFault {
        /// Driver name.
        routine: &'static str,
        /// 0-based stripe/block the verifier localized the fault to;
        /// `usize::MAX` when unknown (e.g. reconstructed from a raw
        /// `INFO` by [`erinfo`]).
        block: usize,
    },
    /// `INFO = -103`: the computation abandoned its work at a cooperative
    /// cancellation checkpoint (see [`crate::cancel`]) — the installed
    /// token was cancelled or its deadline passed. The output buffers are
    /// in a valid-but-unspecified partially-computed state. Extends the
    /// `-100`..`-102` code family.
    Cancelled {
        /// Driver name.
        routine: &'static str,
    },
    /// `INFO = -104`: the body of a job (a dag task) panicked; the panic
    /// was caught at the job boundary (poisoning only that job, never the
    /// pool) and the job's output is unspecified. Extends the `-100`..`-103` code
    /// family.
    Panicked {
        /// Driver name.
        routine: &'static str,
    },
}

impl LaError {
    /// The driver the error originated from.
    pub fn routine(&self) -> &'static str {
        match self {
            LaError::IllegalArg { routine, .. }
            | LaError::Singular { routine, .. }
            | LaError::NotPosDef { routine, .. }
            | LaError::NoConvergence { routine, .. }
            | LaError::AllocFailed { routine }
            | LaError::NonFinite { routine, .. }
            | LaError::SoftFault { routine, .. }
            | LaError::Cancelled { routine }
            | LaError::Panicked { routine } => routine,
        }
    }

    /// The `INFO` code following the LAPACK convention: negative for an
    /// illegal argument, positive for a computational failure, `-100` for
    /// allocation failure (LAPACK90's own extension, Appendix C), `-101`
    /// for a screened non-finite value, `-102` for an ABFT-detected soft
    /// fault (this package's extensions).
    pub fn info(&self) -> i32 {
        match self {
            LaError::IllegalArg { index, .. } => -(*index as i32),
            LaError::Singular { index, .. } => *index as i32,
            LaError::NotPosDef { minor, .. } => *minor as i32,
            LaError::NoConvergence { count, .. } => *count as i32,
            LaError::AllocFailed { .. } => -100,
            LaError::NonFinite { .. } => -101,
            LaError::SoftFault { .. } => -102,
            LaError::Cancelled { .. } => -103,
            LaError::Panicked { .. } => -104,
        }
    }
}

impl fmt::Display for LaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The exact two-line shape ERINFO prints before STOP.
        writeln!(f, "Terminated in LAPACK90 subroutine {}", self.routine())?;
        write!(f, "Error indicator, INFO = {}", self.info())?;
        match self {
            LaError::Singular { index, .. } => {
                write!(
                    f,
                    " (U({index},{index}) = 0: matrix is singular, no solution computed)"
                )
            }
            LaError::NotPosDef { minor, .. } => {
                write!(
                    f,
                    " (leading minor of order {minor} is not positive definite)"
                )
            }
            LaError::NoConvergence { count, .. } => {
                write!(f, " ({count} quantities failed to converge)")
            }
            LaError::IllegalArg { index, .. } => {
                write!(f, " (argument {index} had an illegal value)")
            }
            LaError::AllocFailed { .. } => write!(f, " (workspace allocation failed)"),
            LaError::NonFinite { argument: 0, .. } => {
                write!(f, " (a NaN or Inf was detected)")
            }
            LaError::NonFinite { argument, .. } => {
                write!(f, " (argument {argument} contains a NaN or Inf)")
            }
            LaError::SoftFault { block, .. } if *block == usize::MAX => {
                write!(f, " (checksum verification detected a soft fault)")
            }
            LaError::SoftFault { block, .. } => {
                write!(
                    f,
                    " (checksum verification detected a soft fault in block {block})"
                )
            }
            LaError::Cancelled { .. } => {
                write!(
                    f,
                    " (cancelled at a checkpoint: deadline passed or job cancelled)"
                )
            }
            LaError::Panicked { .. } => {
                write!(f, " (worker panicked; the panic was isolated to this job)")
            }
        }
    }
}

impl std::error::Error for LaError {}

/// Maps a raw `INFO` code from an `la-lapack` routine into `Ok(())` or the
/// corresponding [`LaError`], given how that routine reports positive codes.
///
/// This is the `CALL ERINFO(LINFO, SRNAME, INFO)` moment of each wrapper.
/// It is also where pending ABFT soft faults surface: a `linfo == 0`
/// outcome still returns [`LaError::SoftFault`] (`INFO = -102`) if the
/// checksum layer parked one on this thread during the computation
/// ([`crate::abft::take_pending`]); drivers clear stale faults at entry.
pub fn erinfo(
    linfo: i32,
    srname: &'static str,
    positive_means: PositiveInfo,
) -> Result<(), LaError> {
    use core::cmp::Ordering;
    match linfo.cmp(&0) {
        Ordering::Equal => {
            // A computation that came back clean may still have parked a
            // soft fault (ABFT checksum mismatch that Verify policy does
            // not repair); surface it here so every driver routes
            // `INFO = -102` through the one protocol point.
            if let Some(f) = crate::abft::take_pending() {
                return Err(LaError::SoftFault {
                    routine: srname,
                    block: f.block,
                });
            }
            Ok(())
        }
        Ordering::Less => {
            if linfo == -100 {
                Err(LaError::AllocFailed { routine: srname })
            } else if linfo == -101 {
                // The raw code cannot carry the argument index; `0` marks
                // it unknown.
                Err(LaError::NonFinite {
                    routine: srname,
                    argument: 0,
                })
            } else if linfo == -102 {
                // The raw code cannot carry the block index.
                Err(LaError::SoftFault {
                    routine: srname,
                    block: usize::MAX,
                })
            } else if linfo == crate::cancel::INFO_CANCELLED {
                Err(LaError::Cancelled { routine: srname })
            } else if linfo == crate::cancel::INFO_PANICKED {
                Err(LaError::Panicked { routine: srname })
            } else {
                Err(LaError::IllegalArg {
                    routine: srname,
                    index: (-linfo) as usize,
                })
            }
        }
        Ordering::Greater => {
            let k = linfo as usize;
            Err(match positive_means {
                PositiveInfo::Singular => LaError::Singular {
                    routine: srname,
                    index: k,
                },
                PositiveInfo::NotPosDef => LaError::NotPosDef {
                    routine: srname,
                    minor: k,
                },
                PositiveInfo::NoConvergence => LaError::NoConvergence {
                    routine: srname,
                    count: k,
                },
            })
        }
    }
}

/// How a routine's positive `INFO` codes are to be interpreted.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum PositiveInfo {
    /// Zero pivot in an LU-style factorization.
    Singular,
    /// Failed leading minor in a Cholesky-style factorization.
    NotPosDef,
    /// Unconverged iterative algorithm.
    NoConvergence,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn info_codes_follow_lapack_convention() {
        let e = LaError::IllegalArg {
            routine: "LA_GESV",
            index: 2,
        };
        assert_eq!(e.info(), -2);
        let e = LaError::Singular {
            routine: "LA_GESV",
            index: 3,
        };
        assert_eq!(e.info(), 3);
        let e = LaError::AllocFailed {
            routine: "LA_GETRI",
        };
        assert_eq!(e.info(), -100);
    }

    #[test]
    fn display_matches_erinfo_shape() {
        let e = LaError::IllegalArg {
            routine: "LA_GESV",
            index: 1,
        };
        let s = format!("{e}");
        assert!(s.starts_with("Terminated in LAPACK90 subroutine LA_GESV"));
        assert!(s.contains("INFO = -1"));
    }

    #[test]
    fn erinfo_maps_codes() {
        assert!(erinfo(0, "LA_GESV", PositiveInfo::Singular).is_ok());
        assert_eq!(
            erinfo(-3, "LA_GESV", PositiveInfo::Singular),
            Err(LaError::IllegalArg {
                routine: "LA_GESV",
                index: 3
            })
        );
        assert_eq!(
            erinfo(4, "LA_POSV", PositiveInfo::NotPosDef),
            Err(LaError::NotPosDef {
                routine: "LA_POSV",
                minor: 4
            })
        );
        assert_eq!(
            erinfo(-100, "LA_GETRI", PositiveInfo::Singular),
            Err(LaError::AllocFailed {
                routine: "LA_GETRI"
            })
        );
        assert_eq!(
            erinfo(-101, "LA_GESV", PositiveInfo::Singular),
            Err(LaError::NonFinite {
                routine: "LA_GESV",
                argument: 0
            })
        );
    }

    #[test]
    fn non_finite_extension_code() {
        let e = LaError::NonFinite {
            routine: "LA_GESV",
            argument: 2,
        };
        assert_eq!(e.info(), -101);
        assert_eq!(e.routine(), "LA_GESV");
        let s = format!("{e}");
        assert!(s.starts_with("Terminated in LAPACK90 subroutine LA_GESV"));
        assert!(s.contains("INFO = -101"));
        assert!(s.contains("argument 2 contains a NaN or Inf"));
        // Unknown-origin shape (argument 0, as erinfo reconstructs it).
        let e = LaError::NonFinite {
            routine: "LA_GESV",
            argument: 0,
        };
        assert!(format!("{e}").contains("a NaN or Inf was detected"));
    }

    #[test]
    fn cancelled_and_panicked_extension_codes() {
        let e = LaError::Cancelled { routine: "LA_GESV" };
        assert_eq!(e.info(), -103);
        assert_eq!(e.routine(), "LA_GESV");
        assert!(format!("{e}").contains("INFO = -103"));
        assert!(format!("{e}").contains("cancelled at a checkpoint"));
        assert_eq!(
            erinfo(-103, "LA_GESV", PositiveInfo::Singular),
            Err(LaError::Cancelled { routine: "LA_GESV" })
        );
        let e = LaError::Panicked { routine: "LA_POSV" };
        assert_eq!(e.info(), -104);
        assert!(format!("{e}").contains("isolated to this job"));
        assert_eq!(
            erinfo(-104, "LA_POSV", PositiveInfo::NotPosDef),
            Err(LaError::Panicked { routine: "LA_POSV" })
        );
    }

    #[test]
    fn soft_fault_extension_code() {
        let e = LaError::SoftFault {
            routine: "LA_GESV",
            block: 3,
        };
        assert_eq!(e.info(), -102);
        assert_eq!(e.routine(), "LA_GESV");
        let s = format!("{e}");
        assert!(s.starts_with("Terminated in LAPACK90 subroutine LA_GESV"));
        assert!(s.contains("INFO = -102"));
        assert!(s.contains("soft fault in block 3"));
        // Unknown-block shape, as erinfo reconstructs it.
        assert_eq!(
            erinfo(-102, "LA_POSV", PositiveInfo::NotPosDef),
            Err(LaError::SoftFault {
                routine: "LA_POSV",
                block: usize::MAX
            })
        );
        let e = LaError::SoftFault {
            routine: "LA_POSV",
            block: usize::MAX,
        };
        let s = format!("{e}");
        assert!(s.contains("detected a soft fault"));
        assert!(!s.contains("block"));
    }
}
