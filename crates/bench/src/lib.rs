//! Shared helpers for the benchmark suite: deterministic test matrices of
//! every structure class, a deliberately naive reference GEMM used as the
//! "no blocking" baseline in the §1.1 experiments, a self-contained
//! SplitMix64 PRNG (no external `rand` — the suite must build offline),
//! a minimal wall-clock timing harness replacing criterion, and the
//! command-line reader every bench binary shares.

use std::str::FromStr;

use la_core::{Mat, RealScalar, Scalar};
use la_lapack::{lagge, spectrum, Dist, Larnv, SpectrumMode};

/// A bench binary's command line: bare flags (`--quick`), flags with a
/// value (`--max-verify-ratio 1.2`) and positional values, each taken by
/// name. An argument nothing took, or a flag whose value is missing or
/// does not parse, fails [`Args::check`] — a mistyped gate flag must stop
/// the run, not switch the gate off.
#[derive(Debug)]
pub struct Args {
    rest: Vec<String>,
    errors: Vec<String>,
}

impl Args {
    /// This process's arguments, program name excluded.
    pub fn from_env() -> Self {
        Self::new(std::env::args().skip(1))
    }

    /// `args` as a command line, program name excluded.
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args {
            rest: args.into_iter().collect(),
            errors: Vec::new(),
        }
    }

    /// Takes the bare flag `name`; whether it was given.
    pub fn flag(&mut self, name: &str) -> bool {
        let at = self.rest.iter().position(|a| a == name);
        at.map(|i| self.rest.remove(i)).is_some()
    }

    /// Takes `name` and the value after it; `None` when `name` is absent.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Option<T> {
        let i = self.rest.iter().position(|a| a == name)?;
        self.rest.remove(i);
        let given = self.rest.get(i).filter(|v| !v.starts_with("--")).is_some();
        let v = given.then(|| self.rest.remove(i));
        let parsed = v.as_deref().and_then(|v| v.parse().ok());
        if parsed.is_none() {
            self.errors.push(match v {
                Some(v) => format!("{name}: bad value {v:?}"),
                None => format!("{name} needs a value"),
            });
        }
        parsed
    }

    /// Takes a gate flag and its bound: a floor for `--min-…`, else a
    /// ceiling.
    pub fn limit(&mut self, name: &str) -> Option<Limit> {
        let v = self.value(name)?;
        Some(if name.starts_with("--min-") {
            Limit::Min(v)
        } else {
            Limit::Max(v)
        })
    }

    /// Takes every argument left that is not a flag.
    pub fn positional<T: FromStr>(&mut self) -> Vec<T> {
        let (values, flags): (Vec<String>, _) = std::mem::take(&mut self.rest)
            .into_iter()
            .partition(|a| !a.starts_with("--"));
        self.rest = flags;
        let mut out = Vec::new();
        for v in values {
            match v.parse() {
                Ok(x) => out.push(x),
                Err(_) => self.errors.push(format!("bad value {v:?}")),
            }
        }
        out
    }

    /// `Err` naming every argument left over and every bad value.
    pub fn check(self) -> Result<(), String> {
        let mut errors = self.errors;
        errors.extend(self.rest.iter().map(|a| format!("unknown argument {a:?}")));
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }

    /// Exits 2 with [`Args::check`]'s message when it fails.
    pub fn finish(self) {
        if let Err(e) = self.check() {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }
}

/// SplitMix64: tiny, deterministic, dependency-free PRNG for benchmark
/// data. Same stream on every host, so timings are comparable run to run.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seeds the stream; equal seeds give equal streams.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next raw 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
}

/// The bound of a same-run gate.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Limit {
    /// The reading must be at least this.
    Min(f64),
    /// The reading must be at most this.
    Max(f64),
}

/// Prints one `gate` line for `value` and returns whether it holds (a NaN
/// never does); `true` when no bound was asked for.
pub fn gate(what: &str, value: f64, limit: Option<Limit>) -> bool {
    let (holds, bound) = match limit {
        None => return true,
        Some(Limit::Min(l)) => (value >= l, format!("floor {l}")),
        Some(Limit::Max(l)) => (value <= l, format!("ceiling {l}")),
    };
    let verdict = if holds { "ok" } else { "FAILED" };
    println!("gate  {what}: {value:.3}, {bound}: {verdict}");
    holds
}

/// Times `f` over `reps` repetitions and returns the *minimum* wall-clock
/// seconds per call (the usual low-noise estimator for single-threaded
/// kernels).
pub fn timeit<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// A reproducible random general matrix with condition number ~100.
pub fn bench_matrix<T: Scalar>(n: usize, seed: u64) -> Mat<T> {
    let d = spectrum::<T::Real>(SpectrumMode::Geometric, n, T::Real::from_f64(100.0));
    let mut rng = Larnv::new(seed);
    Mat::from_col_major(n, n, lagge::<T>(&mut rng, n, n, &d))
}

/// A reproducible random Hermitian positive definite matrix.
pub fn bench_spd<T: Scalar>(n: usize, seed: u64) -> Mat<T> {
    let mut rng = Larnv::new(seed);
    let g: Mat<T> = Mat::from_fn(n, n, |_, _| rng.scalar(Dist::Normal));
    let mut a: Mat<T> = Mat::zeros(n, n);
    la_blas::gemm(
        la_core::Trans::ConjTrans,
        la_core::Trans::No,
        n,
        n,
        n,
        T::one(),
        g.as_slice(),
        n,
        g.as_slice(),
        n,
        T::zero(),
        a.as_mut_slice(),
        n,
    );
    for i in 0..n {
        a[(i, i)] += T::from_real(T::Real::from_usize(n));
    }
    a
}

/// A reproducible random Hermitian (indefinite) matrix.
pub fn bench_herm<T: Scalar>(n: usize, seed: u64) -> Mat<T> {
    let mut rng = Larnv::new(seed);
    let mut a: Mat<T> = Mat::zeros(n, n);
    for j in 0..n {
        for i in 0..=j {
            let v: T = if i == j {
                T::from_real(rng.real(Dist::Uniform11))
            } else {
                rng.scalar(Dist::Uniform11)
            };
            a[(i, j)] = v;
            a[(j, i)] = v.conj();
        }
    }
    a
}

/// The textbook three-loop GEMM with no blocking and the worst loop order
/// for column-major data — the "LINPACK-era memory access pattern" the
/// paper's §1.1 motivates against.
pub fn gemm_naive<T: Scalar>(m: usize, n: usize, k: usize, a: &[T], b: &[T], c: &mut [T]) {
    for i in 0..m {
        for j in 0..n {
            let mut s = T::zero();
            for l in 0..k {
                s += a[i + l * m] * b[l + j * k];
            }
            c[i + j * m] = s;
        }
    }
}

/// Right-hand side with known solution `x = (1, …, 1)ᵀ` (scaled per
/// column as in the paper's examples).
pub fn rowsum_rhs<T: Scalar>(a: &Mat<T>, nrhs: usize) -> Mat<T> {
    let (m, n) = a.shape();
    Mat::from_fn(m, nrhs, |i, j| {
        let mut s = T::zero();
        for kk in 0..n {
            s += a[(i, kk)];
        }
        s * T::from_f64((j + 1) as f64)
    })
}

#[cfg(test)]
mod tests {
    use super::{gate, Args, Limit};

    fn args(line: &str) -> Args {
        Args::new(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_values_and_positionals_are_taken_by_name() {
        let mut a = args("256 --quick --min-speedup 1.18 512");
        assert!(a.flag("--quick"));
        assert!(!a.flag("--overload"));
        assert_eq!(a.value::<f64>("--min-speedup"), Some(1.18));
        assert_eq!(a.value::<f64>("--max-verify-ratio"), None);
        assert_eq!(a.positional::<usize>(), vec![256, 512]);
        assert_eq!(a.check(), Ok(()));
    }

    #[test]
    fn a_gate_flag_names_its_side_and_a_nan_fails_it() {
        let mut a = args("--min-x 2 --max-y 3");
        let (min, max) = (a.limit("--min-x"), a.limit("--max-y"));
        assert_eq!((min, max), (Some(Limit::Min(2.0)), Some(Limit::Max(3.0))));
        assert!(gate("x", 2.0, min) && !gate("x", 1.9, min));
        assert!(gate("y", 3.0, max) && !gate("y", 3.1, max));
        assert!(!gate("x", f64::NAN, min) && !gate("y", f64::NAN, max));
        assert!(gate("unasked", f64::NAN, None));
    }

    #[test]
    fn a_leftover_argument_fails() {
        // A misspelt gate flag: neither it nor its value is taken.
        let mut a = args("--max-abft-overhed 1.25");
        assert_eq!(a.value::<f64>("--max-abft-overhead"), None);
        let err = a.check().unwrap_err();
        assert!(err.contains("--max-abft-overhed"), "{err}");
        assert!(args("--quick --max-verify-ratoi").check().is_err());
    }

    #[test]
    fn a_missing_or_bad_value_fails() {
        let mut a = args("--quick --max-verify-ratio");
        assert_eq!(a.value::<f64>("--max-verify-ratio"), None);
        assert!(a.flag("--quick"));
        assert!(a.check().unwrap_err().contains("--max-verify-ratio"));
        // The next flag is not taken as the value.
        let mut a = args("--max-verify-ratio --quick");
        assert_eq!(a.value::<f64>("--max-verify-ratio"), None);
        assert!(a.flag("--quick"));
        assert!(a.check().is_err());
        let mut a = args("--min-speedup fast 96x");
        assert_eq!(a.value::<f64>("--min-speedup"), None);
        assert!(a.positional::<usize>().is_empty());
        let err = a.check().unwrap_err();
        assert!(err.contains("fast") && err.contains("96x"), "{err}");
    }
}
