//! Per-kernel BLAS-3 throughput table (f64, serial): for each
//! `LA_GEMM_KERNEL` selection, times
//!
//! * square `dgemm` (No/No, `m = n = k`) at a range of sizes,
//! * the rank-k update `C -= A·B` at `m = n = 736`, `k ∈ {32, 48, 96,
//!   256}` — the step-0 trailing update of a blocked `getrf` at n = 768,
//!   and how its rate depends on the depth the per-tile cost is
//!   amortised over,
//! * `dsyrk` (Lower/No, `C -= A·Aᵀ`) at the same shapes — `potrf`'s
//!   trailing update,
//! * left-side `dtrsm` at the shapes the solves and factorizations run —
//!   256 × 1024 (`getrs`/`potrs` with many right-hand sides), 32 × 736 and
//!   32 × 64 (`getrf`'s `U12` at n = 768 and n = 96), 96 × 672 U/T
//!   (`potrf`) and 96 × {1 … 16}, the boundary of the per-column `trsv`
//!   route — each with its ratio to the same run's `dgemm`
//!   256 × 1024 × 256,
//!
//! * the `dgetf2` panel at the shapes a blocked `getrf` factors — 96 × 32,
//!   64 × 32, 32 × 32 (n = 96), 736 × 32 (n = 768) — and 64 × 64 (the
//!   largest unblocked order), then `sgetf2` and (on a host with both
//!   `simd` tiers) the AVX2 tier's `dgetf2` (`[avx2]`) at 96 × 32 and
//!   32 × 32, each with its ratio to the right-looking rank-1 loop it
//!   replaced (kept here as the reference, the two taking turns for 0.4 s;
//!   these rows do not depend on the gemm kernel),
//! * the Cholesky leaf `potf2` on a 32 × 32 block (a `potrf2` leaf), then
//!   the recursive panel `potrf2` at the diagonal blocks a blocked `potrf`
//!   factors — 96 × 96 and 128 × 128 — Upper and Lower, each with its ratio
//!   to the left-looking `potf2` loop the leaf replaced (kept here as the
//!   reference, the two taking turns for 0.4 s),
//!
//! and prints wall-clock and GF/s. Generates the kernel tables in
//! `EXPERIMENTS.md`. Best of at least 3 repetitions and 0.2 s per point.
//! The `simd` row only appears on a host with a SIMD tier (an x86-64 CPU
//! with AVX2+FMA); elsewhere the Simd selection falls back to the unrolled
//! kernel and would mislabel the row.
//!
//! Then, under the default kernel and one thread, with the calls of each
//! group taking turns for at least [`MIN_SECS`] (best time each):
//!
//! * `dtrsm` 256 × 1024, L/N/unit and U/T/non-unit, against `dgemm`
//!   256 × 1024 × 256;
//! * `dgemm` n = 256 against [`gemm_axpy`], a column-`axpy` loop with no
//!   packing or blocking kept here as the reference;
//! * `gemm` n = 256, f64 and f32, on the AVX-512 tiles against the AVX2
//!   tiles (`la_blas::kernel::with_narrow_simd`), on a host that has both;
//! * `dgemm`, `dgetrf` and `dpotrf` at n = 1024, each with ABFT off and
//!   verifying: each factorization's GF/s over gemm's (ROADMAP item 1's
//!   bar) and each verify/off time ratio;
//! * `dgetrf` and `dpotrf` at n = 512 for NB 16 … 128, each time over the
//!   default NB's (ungated).
//!
//! On a host with both `simd` tiers the trsm group and the n = 1024
//! groups run once more on the AVX2 tier, rows marked `[avx2]`.
//!
//! Three "call floor" rows close the table — what the thread-budget
//! resolution, a 4×4×4 `dgemm` and a one-column `dtrsm` (next to the
//! `dtrsv` it runs) cost in ns, under the default thread budget: the price
//! of a call before it computes.
//!
//! Usage: `kernel_bench [GATE R ...] [n ...]` — the square sizes default
//! to `256 512 1024`; pass explicit sizes (e.g. `kernel_bench 256 512 1024
//! 2048`) for the full table. Each gate reads a ratio of this run, so it
//! gates on any host, and the run exits 1 when one fails:
//!
//! * `--min-trsm-over-gemm R`: the smaller of `dtrsm` 256 × 1024 L/N/unit
//!   and U/T/non-unit over `dgemm` 256 × 1024 × 256, taking turns (needs
//!   a SIMD tier) — the unit form alone never applies a pivot, so a slower
//!   non-unit substitution would pass it;
//! * `--min-panel-over-rank1 R`: the smaller of `dgetf2` 96 × 32 and
//!   32 × 32 over the rank-1 loop, on the widest tier (the other panel rows
//!   are printed, ungated);
//! * `--min-chol-leaf-over-potf2 R`: the smaller of the two 32 × 32
//!   `dpotf2` speed-ups over the left-looking loop;
//! * `--min-chol-panel-over-potf2 R`: the smallest of the four `dpotrf2`
//!   speed-ups over the left-looking loop;
//! * `--min-packed-over-reference R`: `dgemm` n = 256 over [`gemm_axpy`];
//! * `--min-avx512-over-avx2 R`: the f64 AVX-512 tile's `gemm` n = 256
//!   speed-up over the AVX2 tile (needs a SIMD tier; prints `skipped: no
//!   avx512f` and passes on a host without AVX-512F) — what a silent
//!   fallback to the AVX2 tile fails, while every ratio to gemm would pass
//!   (the f32 row is printed, ungated);
//! * `--min-factor-over-gemm R`: the smaller of `dgetrf`'s and `dpotrf`'s
//!   rate over `dgemm`'s at n = 1024;
//! * `--max-abft-overhead R`: the largest verify/off ratio at n = 1024.
//!
//! The trsm gate and the ABFT gate read the AVX2 tier's run: the tile every
//! `simd` host runs, so one bound holds on any runner (the AVX-512 tier
//! moves each of these ratios by more than the slowdown it must catch;
//! EXPERIMENTS.md, "An AVX-512 tier" and "No division on the substitution
//! chain"). The factor gate reads the widest tier's run, where
//! one bound separates a 25 % slower Cholesky step (EXPERIMENTS.md,
//! "One sweep per Cholesky step").
//!
//! Every row runs at the default cache blocking of [`la_core::tune`]
//! (`TuneConfig::{gemm_mc, gemm_kc, gemm_nc}`, which have no environment
//! variable); the binary sweeps none of them. To time another blocking,
//! set those fields in code with `tune::with`.

use la_bench::{bench_matrix, bench_spd, gate, Args};
use la_blas::kernel::{kernel_for, with_narrow_simd, MicroKernel};
use la_core::abft::{self, AbftPolicy};
use la_core::probe::flops;
use la_core::tune::{self, GemmKernel, TuneConfig};
use la_core::{Diag, RealScalar, Scalar, Side, Trans, Uplo};
use la_lapack as f77;
use std::time::Instant;

/// Order of the update rows: n = 768 minus one nb = 32 panel.
const UPDATE_N: usize = 736;
const UPDATE_K: [usize; 4] = [32, 48, 96, 256];

/// Order of the factorization and ABFT rows.
const FACTOR_N: usize = 1024;

/// Order of the reference row: the column-`axpy` loop's `A` (512 KiB)
/// stays in L2, where its speed repeats (±1.5 % across processes, against
/// ±10 % at n = 512, where it streams `A` from L3 for every column).
const REFERENCE_N: usize = 256;

/// Order of the NB table.
const NB_N: usize = 512;

/// Least wall time the calls of one group take turns for: long enough for
/// a slow stretch of a shared host to pass.
const MIN_SECS: f64 = 4.0;

/// One timed call of a group: returns the seconds of what it times.
type Call<'a> = Box<dyn FnMut() -> f64 + 'a>;

fn serial() -> TuneConfig {
    TuneConfig {
        max_threads: 1,
        ..TuneConfig::defaults()
    }
}

fn timed(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Best seconds of each call, on one thread, the calls taking turns for at
/// least [`MIN_SECS`] and three rounds.
fn interleaved(mut calls: Vec<Call>) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; calls.len()];
    let (start, mut rounds) = (Instant::now(), 0);
    tune::with(serial(), || {
        while rounds < 3 || start.elapsed().as_secs_f64() < MIN_SECS {
            for (b, call) in best.iter_mut().zip(&mut calls) {
                *b = b.min(call());
            }
            rounds += 1;
        }
    });
    best
}

/// `gemm` `C = A·B` (`m × k` times `k × n`) under `policy`.
fn gemm_call<'a, T: Scalar>(
    (m, n, k): (usize, usize, usize),
    a: &'a [T],
    b: &'a [T],
    policy: AbftPolicy,
) -> Call<'a> {
    let mut c = vec![T::zero(); m * n];
    Box::new(move || {
        abft::with_policy(policy, || {
            timed(|| {
                la_blas::gemm(
                    Trans::No,
                    Trans::No,
                    m,
                    n,
                    k,
                    T::one(),
                    a,
                    m,
                    b,
                    k,
                    T::zero(),
                    &mut c,
                    m,
                );
                std::hint::black_box(&c);
            })
        })
    })
}

/// `f` under `policy` on a fresh copy of `a0`, which `f` must factor with
/// `info = 0`; only `f` is timed.
fn factor_call<'a>(
    a0: &'a [f64],
    policy: AbftPolicy,
    f: impl Fn(&mut [f64]) -> i32 + 'a,
) -> Call<'a> {
    let mut a = a0.to_vec();
    Box::new(move || {
        a.copy_from_slice(a0);
        abft::with_policy(policy, || timed(|| assert_eq!(f(&mut a), 0)))
    })
}

/// `C = A·B` (order `n`) one column at a time as `axpy`s over the columns
/// of `A`, with no packing or blocking: the reference the packed path is
/// rated against.
fn gemm_axpy(n: usize, a: &[f64], b: &[f64], c: &mut [f64]) {
    for (cj, bj) in c.chunks_exact_mut(n).zip(b.chunks_exact(n)) {
        cj.fill(0.0);
        for (al, &blj) in a.chunks_exact(n).zip(bj) {
            for (x, &y) in cj.iter_mut().zip(al) {
                *x += blj * y;
            }
        }
    }
}

/// `dgemm` n = [`REFERENCE_N`] against [`gemm_axpy`]; returns the packed
/// path's speed-up.
fn reference_row() -> f64 {
    let n = REFERENCE_N;
    let (a, b) = (bench_matrix::<f64>(n, 3), bench_matrix::<f64>(n, 5));
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut c = vec![0.0; n * n];
    let reference: Call = Box::new(|| {
        timed(|| {
            gemm_axpy(n, a, b, &mut c);
            std::hint::black_box(&c);
        })
    });
    let t = interleaved(vec![gemm_call((n, n, n), a, b, AbftPolicy::Off), reference]);
    let rate = |secs: f64| flops::gemm(n, n, n) as f64 / secs / 1e9;
    println!(
        "gemm  n={n} packed {:8.3} ms {:6.2} GF/s  column-axpy {:8.3} ms {:6.2} GF/s  {:4.2} x",
        t[0] * 1e3,
        rate(t[0]),
        t[1] * 1e3,
        rate(t[1]),
        t[1] / t[0]
    );
    t[1] / t[0]
}

/// Whether the host runs a `simd` tier (an x86-64 CPU with AVX2+FMA):
/// elsewhere `simd` resolves to the unrolled kernel.
fn host_has_simd() -> bool {
    kernel_for::<f64>(GemmKernel::Simd).name() == "simd"
}

/// Whether the host runs two `simd` tiers: `simd` resolves to a wider
/// tile than it does under [`with_narrow_simd`].
fn two_tiers() -> bool {
    let dims = |k: &dyn MicroKernel<f64>| (k.mr(), k.nr());
    let narrow = with_narrow_simd(|| kernel_for::<f64>(GemmKernel::Simd));
    dims(kernel_for::<f64>(GemmKernel::Simd)) != dims(narrow)
}

/// `call` pinned to the narrowest `simd` tier.
fn narrow(mut call: Call) -> Call {
    Box::new(move || with_narrow_simd(&mut call))
}

/// `gemm` n = [`REFERENCE_N`], f64 and f32, on the AVX-512 tiles against
/// the AVX2 tiles. Returns the f64 speed-up, `None` on a host with one
/// tier.
fn tier_row() -> Option<f64> {
    let n = REFERENCE_N;
    if !two_tiers() {
        println!("gemm  n={n} avx-512 over avx2 tiles: skipped: no avx512f");
        return None;
    }
    let (a, b) = (bench_matrix::<f64>(n, 3), bench_matrix::<f64>(n, 5));
    let (a, b) = (a.as_slice(), b.as_slice());
    let single = |x: &[f64]| x.iter().map(|&v| v as f32).collect::<Vec<f32>>();
    let (a32, b32) = (single(a), single(b));
    let t = interleaved(vec![
        gemm_call((n, n, n), a, b, AbftPolicy::Off),
        narrow(gemm_call((n, n, n), a, b, AbftPolicy::Off)),
        gemm_call((n, n, n), &a32, &b32, AbftPolicy::Off),
        narrow(gemm_call((n, n, n), &a32, &b32, AbftPolicy::Off)),
    ]);
    let rate = |secs: f64| flops::gemm(n, n, n) as f64 / secs / 1e9;
    for (i, ty) in ["f64", "f32"].into_iter().enumerate() {
        let (wide, avx2) = (t[2 * i], t[2 * i + 1]);
        println!(
            "gemm  n={n} {ty} avx-512 {:6.2} GF/s  avx2 {:6.2} GF/s  {:4.2} x",
            rate(wide),
            rate(avx2),
            avx2 / wide
        );
    }
    Some(t[1] / t[0])
}

/// The `[avx2]` mark of a row timed on the narrow tier.
fn mark(on_narrow: bool) -> &'static str {
    if on_narrow {
        " [avx2]"
    } else {
        ""
    }
}

/// `dgemm`, `dgetrf` and `dpotrf` at n = [`FACTOR_N`], each with ABFT off
/// and verifying, on the narrow tier if `on_narrow`. Returns the smaller
/// factorization-over-gemm rate ratio and the largest verify/off time
/// ratio.
fn factor_rows(on_narrow: bool) -> (f64, f64) {
    const N: usize = FACTOR_N;
    let (gen, spd) = (bench_matrix::<f64>(N, 17), bench_spd::<f64>(N, 19));
    let (gen, spd) = (gen.as_slice(), spd.as_slice());
    let mut calls = Vec::new();
    for policy in [AbftPolicy::Off, AbftPolicy::Verify] {
        calls.push(gemm_call((N, N, N), gen, spd, policy));
        calls.push(factor_call(gen, policy, |a| {
            f77::getrf(N, N, a, N, &mut [0; N])
        }));
        calls.push(factor_call(spd, policy, |a| {
            f77::potrf(Uplo::Lower, N, a, N)
        }));
    }
    if on_narrow {
        calls = calls.into_iter().map(narrow).collect();
    }
    let checks = abft::checks();
    let t = interleaved(calls);
    assert!(abft::checks() > checks, "no ABFT check ran under Verify");
    let rates = [flops::gemm(N, N, N), flops::getrf(N, N), flops::potrf(N)].map(|f| f as f64);
    let (mut over_gemm, mut overhead) = (f64::INFINITY, 0.0f64);
    for (i, op) in ["gemm", "getrf", "potrf"].into_iter().enumerate() {
        let rate = rates[i] / t[i] / 1e9;
        let of_gemm = rate / (rates[0] / t[0] / 1e9);
        println!(
            "{op:<5} n={N} {:8.2} ms {rate:6.2} GF/s  {of_gemm:4.2} of gemm  abft verify {:8.2} ms  {:4.2} x off{}",
            t[i] * 1e3,
            t[i + 3] * 1e3,
            t[i + 3] / t[i],
            mark(on_narrow),
        );
        if i > 0 {
            over_gemm = over_gemm.min(of_gemm);
        }
        overhead = overhead.max(t[i + 3] / t[i]);
    }
    (over_gemm, overhead)
}

/// `dgetrf` and `dpotrf` at n = [`NB_N`] over a range of NB, each time
/// over the default NB's. Ungated: input for choosing NB by rule.
fn nb_rows() {
    const N: usize = NB_N;
    const NBS: [usize; 6] = [16, 32, 48, 64, 96, 128];
    let (gen, spd) = (bench_matrix::<f64>(N, 11), bench_spd::<f64>(N, 13));
    let (gen, spd) = (gen.as_slice(), spd.as_slice());
    let mut calls = Vec::new();
    for nb in NBS {
        let cfg = TuneConfig {
            nb_getrf: nb,
            nb_potrf: nb,
            ..serial()
        };
        let getrf = move |a: &mut [f64]| tune::with(cfg, || f77::getrf(N, N, a, N, &mut [0; N]));
        let potrf = move |a: &mut [f64]| tune::with(cfg, || f77::potrf(Uplo::Lower, N, a, N));
        calls.push(factor_call(gen, AbftPolicy::Off, getrf));
        calls.push(factor_call(spd, AbftPolicy::Off, potrf));
    }
    let t = interleaved(calls);
    let d = TuneConfig::defaults();
    for (k, (op, default)) in [("getrf", d.nb_getrf), ("potrf", d.nb_potrf)]
        .into_iter()
        .enumerate()
    {
        let at = |i: usize| t[2 * i + k];
        let base = at(NBS
            .iter()
            .position(|&nb| nb == default)
            .expect("default NB in the table"));
        let cells: String = (0..NBS.len())
            .map(|i| format!("  {}: {:.3}", NBS[i], at(i) / base))
            .collect();
        println!(
            "{op:<5} n={N} NB {default} {:7.3} ms; time over it at NB{cells}",
            base * 1e3
        );
    }
}

/// Best wall-clock seconds of `f` over at least 3 calls and 0.2 s.
fn best_of(mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    let start = Instant::now();
    let mut reps = 0;
    while reps < 3 || start.elapsed().as_secs_f64() < 0.2 {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
        reps += 1;
    }
    best
}

/// Best nanoseconds per call of `f`, timed in batches of `batch` calls so
/// the clock read does not dominate a call of a few ns.
fn floor_ns(batch: usize, mut f: impl FnMut()) -> f64 {
    best_of(|| (0..batch).for_each(|_| f())) * 1e9 / batch as f64
}

/// The call-floor rows: default configuration (thread budget auto).
fn call_floor() {
    let cfg = tune::current();
    let ns = floor_ns(1000, || {
        std::hint::black_box(std::hint::black_box(&cfg).threads());
    });
    println!("floor threads()                          {ns:9.1} ns");
    let a: Vec<f64> = (0..16).map(|i| i as f64 / 7.0 - 1.0).collect();
    let mut c = [0.0f64; 16];
    let ns = floor_ns(1000, || {
        la_blas::gemm(
            Trans::No,
            Trans::No,
            4,
            4,
            4,
            1.0,
            &a,
            4,
            &a,
            4,
            0.0,
            &mut c,
            4,
        );
        std::hint::black_box(&c);
    });
    println!("floor gemm  4x4x4                        {ns:9.1} ns");
    let n = 96usize;
    let l: Vec<f64> = (0..n * n)
        .map(|i| {
            if i % (n + 1) == 0 {
                4.0
            } else {
                (i % 13) as f64 / 26.0 - 0.25
            }
        })
        .collect();
    let x0: Vec<f64> = (0..n).map(|i| 1.0 + i as f64 * 1e-3).collect();
    let mut x = x0.clone();
    let (uplo, trans, diag) = (Uplo::Lower, Trans::No, Diag::Unit);
    let trsm_ns = floor_ns(100, || {
        x.copy_from_slice(&x0);
        la_blas::trsm(Side::Left, uplo, trans, diag, n, 1, 1.0, &l, n, &mut x, n);
    });
    let trsv_ns = floor_ns(100, || {
        x.copy_from_slice(&x0);
        la_blas::trsv(uplo, trans, diag, n, &l, n, &mut x, 1);
    });
    println!(
        "floor trsm  96x1 (L/N/U)                 {trsm_ns:9.1} ns   trsv 96 {trsv_ns:9.1} ns"
    );
}

/// Times `call` under each kernel selection and prints one row per kernel
/// — with the ratio to `base[kernel]` (GF/s) when given. Returns the GF/s
/// per kernel.
fn rows(
    kernels: &[GemmKernel],
    op: &str,
    shape: &str,
    flops: f64,
    base: Option<&[f64]>,
    mut call: impl FnMut(),
) -> Vec<f64> {
    let mut rates = Vec::new();
    for (idx, &kern) in kernels.iter().enumerate() {
        let cfg = TuneConfig {
            gemm_kernel: kern,
            ..serial()
        };
        let secs = tune::with(cfg, || best_of(&mut call));
        let rate = flops / secs / 1e9;
        let ratio = base.map_or(String::new(), |b| {
            format!("  {:4.2} of gemm", rate / b[idx])
        });
        // The narrow solves take microseconds.
        let (time, unit) = if secs < 1e-4 {
            (secs * 1e6, "us")
        } else {
            (secs * 1e3, "ms")
        };
        println!(
            "{op:<5} {shape:<16} kernel={:<8} {time:9.3} {unit}  {rate:6.2} GF/s{ratio}",
            format!("{kern:?}").to_lowercase(),
        );
        rates.push(rate);
    }
    rates
}

/// The shape the `trsm` rows are rated against and the gate reads:
/// `getrs` at n = 256 with 1024 right-hand sides.
const SOLVE_M: usize = 256;
const SOLVE_N: usize = 1024;

/// `len` entries repeating with period `modulus`, of order 1.
fn fill(len: usize, mul: usize, modulus: usize) -> Vec<f64> {
    (0..len)
        .map(|i| ((i * mul % modulus) as f64 - (modulus / 2) as f64) / 7.0)
        .collect()
}

/// The triangle and right-hand side of the `trsm` rows. A unit diagonal
/// and off-diagonals of order 1e-10: the right-hand side is solved over
/// and over without a reset and must stay put.
fn solve_operands() -> (Vec<f64>, Vec<f64>) {
    let m = SOLVE_M;
    let mut tri: Vec<f64> = fill(m * m, 7, 13).iter().map(|x| x * 1e-10).collect();
    for i in 0..m {
        tri[i + i * m] = 1.0;
    }
    (tri, fill(m * SOLVE_N, 5, 11))
}

/// The `trsm` rows, each with its ratio to `dgemm` 256 × 1024 × 256 under
/// the same kernel.
fn trsm_rows(kernels: &[GemmKernel]) {
    let (m, n) = (SOLVE_M, SOLVE_N);
    let (tri, b0) = solve_operands();
    let mut b = b0.clone();
    let gemm = rows(
        kernels,
        "gemm",
        &format!("{m}x{n}x{m}"),
        2.0 * (m * n * m) as f64,
        None,
        || {
            la_blas::gemm(
                Trans::No,
                Trans::No,
                m,
                n,
                m,
                -1.0,
                &tri,
                m,
                &b0,
                m,
                1.0,
                &mut b,
                m,
            );
            std::hint::black_box(&b);
        },
    );
    let (l, u) = (Uplo::Lower, Uplo::Upper);
    let (no, tr) = (Trans::No, Trans::Trans);
    let shapes = [
        (m, n, l, no, Diag::Unit),
        (m, n, u, no, Diag::NonUnit),
        (m, n, u, tr, Diag::NonUnit),
        (32, 736, l, no, Diag::Unit),
        (96, 672, u, tr, Diag::NonUnit),
        (32, 64, l, no, Diag::Unit),
        (96, 1, l, no, Diag::Unit),
        (96, 2, l, no, Diag::Unit),
        (96, 4, l, no, Diag::Unit),
        (96, 8, l, no, Diag::Unit),
        (96, 16, l, no, Diag::Unit),
    ];
    for (tm, tn, uplo, trans, diag) in shapes {
        // L/N/U: the initials of `Lower`, `No`, `Unit`.
        let initial = |name: String| name.chars().next().unwrap_or('?');
        let shape = format!(
            "{tm}x{tn} {}/{}/{}",
            initial(format!("{uplo:?}")),
            initial(format!("{trans:?}")),
            initial(format!("{diag:?}")),
        );
        let flops = (tm * tm * tn) as f64;
        rows(kernels, "trsm", &shape, flops, Some(&gemm), || {
            la_blas::trsm(
                Side::Left,
                uplo,
                trans,
                diag,
                tm,
                tn,
                1.0,
                &tri,
                m,
                &mut b,
                m,
            );
            std::hint::black_box(&b);
        });
    }
}

/// `dtrsm` 256 × 1024 L/N/unit (`getrs`'s first solve) and U/T/non-unit
/// (`potrs`'s, the one whose substitution applies pivots) against `dgemm`
/// 256 × 1024 × 256 under the default kernel, on the narrow tier if
/// `on_narrow`, the three taking turns; returns the smaller of the two
/// trsm rates over gemm's. (The table rows time each shape in its own
/// 0.2 s window; their ratio read 0.63–1.03 over 18 processes.)
fn trsm_gate_row(on_narrow: bool) -> f64 {
    let (m, n) = (SOLVE_M, SOLVE_N);
    let (tri, b0) = solve_operands();
    let forms = [
        (Uplo::Lower, Trans::No, Diag::Unit, "L/N/U"),
        (Uplo::Upper, Trans::Trans, Diag::NonUnit, "U/T/N"),
    ];
    let mut calls = vec![gemm_call((m, n, m), &tri, &b0, AbftPolicy::Off)];
    for (uplo, trans, diag, _) in forms {
        let (tri, mut x) = (&tri, b0.clone());
        calls.push(Box::new(move || {
            timed(|| {
                la_blas::trsm(Side::Left, uplo, trans, diag, m, n, 1.0, tri, m, &mut x, m);
                std::hint::black_box(&x);
            })
        }));
    }
    if on_narrow {
        calls = calls.into_iter().map(narrow).collect();
    }
    let t = interleaved(calls);
    let mut worst = f64::INFINITY;
    for ((.., form), secs) in forms.iter().zip(&t[1..]) {
        // A trsm does half a gemm's flops.
        let ratio = t[0] / (2.0 * secs);
        println!(
            "trsm  {m}x{n} {form} over gemm {m}x{n}x{m}, taking turns: {ratio:.2}{}",
            mark(on_narrow)
        );
        worst = worst.min(ratio);
    }
    worst
}

/// The right-looking rank-1 `getf2` (one pass over the trailing panel per
/// pivot) that `la_lapack::getf2` replaced: the baseline of the panel rows.
/// It keeps `la_blas::iamax` and `la_blas::scal`, whatever the leaf's own
/// search and scaling do.
fn getf2_rank1<T: RealScalar>(
    m: usize,
    n: usize,
    a: &mut [T],
    lda: usize,
    ipiv: &mut [i32],
) -> i32 {
    let mut info = 0i32;
    for j in 0..m.min(n) {
        let p = j + la_blas::iamax(m - j, &a[j + j * lda..], 1);
        ipiv[j] = (p + 1) as i32;
        if a[p + j * lda] != T::zero() {
            if p != j {
                for k in 0..n {
                    a.swap(j + k * lda, p + k * lda);
                }
            }
            if j + 1 < m {
                let inv = a[j + j * lda].recip();
                la_blas::scal(m - j - 1, inv, &mut a[j + 1 + j * lda..], 1);
            }
        } else if info == 0 {
            info = (j + 1) as i32;
        }
        if j + 1 < m && j + 1 < n {
            let (head, rest) = a.split_at_mut((j + 1) * lda);
            let col = &head[j + 1 + j * lda..m + j * lda];
            for k in 0..n - j - 1 {
                let ck = &mut rest[j + k * lda..m + k * lda];
                let ajk = ck[0];
                if ajk != T::zero() {
                    for (x, &l) in ck[1..].iter_mut().zip(col) {
                        *x -= l * ajk;
                    }
                }
            }
        }
    }
    info
}

/// One `getf2` row: `T`'s panel on a fresh copy of one full-rank `m × n`
/// matrix against [`getf2_rank1`], the two taking turns for 0.4 s, the
/// panel under `pin` (the default tier, or pinned to AVX2). Prints the row
/// and returns the speed-up over the rank-1 loop.
fn panel_row<T: RealScalar>(
    (m, n): (usize, usize),
    tag: &str,
    pin: fn(&mut dyn FnMut()),
    rng: &mut la_bench::SplitMix64,
) -> f64 {
    // Full-rank entries in [−1, 1): the periodic `fill` of the other rows
    // has rank 13 and would time the zero-pivot path.
    let a0: Vec<T> = (0..m * n).map(|_| T::from_f64(rng.next_f64())).collect();
    let mut a = a0.clone();
    let mut ipiv = vec![0i32; n];
    // Each call factors a fresh copy; only the factorization is timed.
    let mut time = |panel: bool| {
        a.copy_from_slice(&a0);
        let secs = if panel {
            let mut secs = 0.0;
            pin(&mut || secs = timed(|| _ = la_lapack::getf2(m, n, &mut a, m, &mut ipiv)));
            secs
        } else {
            timed(|| _ = getf2_rank1(m, n, &mut a, m, &mut ipiv))
        };
        std::hint::black_box(&a);
        secs
    };
    // The two loops take turns, so a slow stretch lands on both.
    let (mut rank1, mut panel) = (f64::INFINITY, f64::INFINITY);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.4 {
        rank1 = rank1.min(time(false));
        panel = panel.min(time(true));
    }
    let rate = la_core::probe::flops::getrf(m, n) as f64 / panel / 1e9;
    let name = format!("{}getf2 {m}x{n}{tag}", T::PREFIX.to_ascii_lowercase());
    println!(
        "{name:<22}                 {:9.3} us  {rate:6.2} GF/s  {:4.2} x rank-1 ({:.3} us)",
        panel * 1e6,
        rank1 / panel,
        rank1 * 1e6,
    );
    rank1 / panel
}

/// The `getf2` panel rows: f64 at the shapes of an n = 96 and an n = 768
/// factorization and the largest unblocked order, then f32 and (on a host
/// with both `simd` tiers) the AVX2 tier at 96 × 32 and 32 × 32, so each
/// vector body of the leaf shows. Returns the smaller f64 speed-up over the
/// rank-1 loop at 96 × 32 and 32 × 32 on the default tier.
fn panel_rows() -> f64 {
    let mut rng = la_bench::SplitMix64::new(0x9e37_79b9_7f4a_7c15);
    let default: fn(&mut dyn FnMut()) = |f| f();
    let avx2: fn(&mut dyn FnMut()) = |f| with_narrow_simd(f);
    let mut gated = f64::INFINITY;
    for shape in [(96usize, 32usize), (64, 32), (32, 32), (736, 32), (64, 64)] {
        let ratio = panel_row::<f64>(shape, "", default, &mut rng);
        if shape.1 == 32 && (shape.0 == 96 || shape.0 == 32) {
            gated = gated.min(ratio);
        }
    }
    for shape in [(96, 32), (32, 32)] {
        panel_row::<f32>(shape, "", default, &mut rng);
    }
    if two_tiers() {
        for shape in [(96, 32), (32, 32)] {
            panel_row::<f64>(shape, " [avx2]", avx2, &mut rng);
        }
    }
    gated
}

/// The left-looking `potf2` — a dot product per diagonal entry and a
/// `gemv` per row (`Upper`) or column (`Lower`) — that the right-looking
/// leaf in `la_lapack::potf2` replaced, kept as the fixed baseline of the
/// Cholesky rows (as [`getf2_rank1`] is of the `getf2` rows). It takes its
/// `n`-element scratch per call, as the loop it reproduces did.
fn potf2_left(uplo: Uplo, n: usize, a: &mut [f64], lda: usize) -> i32 {
    let mut ws = vec![0.0f64; n];
    for j in 0..n {
        let dot = match uplo {
            Uplo::Upper => la_blas::dotc(j, &a[j * lda..], 1, &a[j * lda..], 1),
            Uplo::Lower => (0..j).map(|k| a[j + k * lda] * a[j + k * lda]).sum(),
        };
        let ajj = a[j + j * lda] - dot;
        if ajj <= 0.0 || !ajj.is_finite() {
            return (j + 1) as i32;
        }
        let ajj = ajj.sqrt();
        a[j + j * lda] = ajj;
        if j + 1 == n {
            continue;
        }
        let rest = n - j - 1;
        match uplo {
            Uplo::Upper => {
                // Row j right of the diagonal: (a(j, ·) − U(0..j, ·)ᵀ·u_j) / ajj.
                let (head, tail) = a.split_at_mut((j + 1) * lda);
                let (uj, w) = (&head[j * lda..j * lda + j], &mut ws[..rest]);
                la_blas::gemv(Trans::Trans, j, rest, 1.0, tail, lda, uj, 1, 0.0, w, 1);
                for (k, wk) in w.iter().enumerate() {
                    tail[j + k * lda] = (tail[j + k * lda] - wk) / ajj;
                }
            }
            Uplo::Lower => {
                // Column j below the diagonal: (a(·, j) − L(·, 0..j)·l_j) / ajj.
                let (lrow, w) = ws.split_at_mut(j);
                for (k, l) in lrow.iter_mut().enumerate() {
                    *l = a[j + k * lda];
                }
                let (l, w) = (&a[j + 1..], &mut w[..rest]);
                la_blas::gemv(Trans::No, rest, j, 1.0, l, lda, lrow, 1, 0.0, w, 1);
                for (k, wk) in w.iter().enumerate() {
                    let idx = j + 1 + k + j * lda;
                    a[idx] = (a[idx] - wk) / ajj;
                }
            }
        }
    }
    0
}

/// The Cholesky rows, each against [`potf2_left`] on a fresh copy of one
/// SPD matrix, the two taking turns for 0.4 s: the leaf `potf2` on a 32 × 32
/// block (the `potrf2` leaf), then the recursive panel `potrf2` on the 96-
/// and 128-wide diagonal blocks a blocked `potrf` factors, both triangles.
/// Returns the smallest leaf and the smallest panel speed-up over the
/// reference.
fn chol_rows() -> (f64, f64) {
    type Panel = fn(Uplo, usize, &mut [f64], usize) -> i32;
    let (mut leaf, mut panel) = (f64::INFINITY, f64::INFINITY);
    for (n, name, f) in [
        (32usize, "potf2", f77::potf2::<f64> as Panel),
        (96, "potrf2", f77::potrf2::<f64>),
        (128, "potrf2", f77::potrf2::<f64>),
    ] {
        let a0 = bench_spd::<f64>(n, 23);
        let a0 = a0.as_slice();
        let mut a = a0.to_vec();
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let mut time = |f: Panel| {
                a.copy_from_slice(a0);
                let secs = timed(|| assert_eq!(f(uplo, n, &mut a, n), 0));
                std::hint::black_box(&a);
                secs
            };
            let (mut reference, mut got) = (f64::INFINITY, f64::INFINITY);
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < 0.4 {
                reference = reference.min(time(potf2_left));
                got = got.min(time(f));
            }
            let rate = flops::potrf(n) as f64 / got / 1e9;
            let shape = format!("{n}x{n} {uplo:?}");
            println!(
                "{name:<6} {shape:<15}                 {:9.3} us  {rate:6.2} GF/s  {:4.2} x left-looking potf2 ({:.3} us)",
                got * 1e6,
                reference / got,
                reference * 1e6,
            );
            let gated = if n == 32 { &mut leaf } else { &mut panel };
            *gated = gated.min(reference / got);
        }
    }
    (leaf, panel)
}

fn main() {
    let mut args = Args::from_env();
    let min_trsm = args.limit("--min-trsm-over-gemm");
    let min_panel = args.limit("--min-panel-over-rank1");
    let min_chol_leaf = args.limit("--min-chol-leaf-over-potf2");
    let min_chol_panel = args.limit("--min-chol-panel-over-potf2");
    let min_packed = args.limit("--min-packed-over-reference");
    let min_tier = args.limit("--min-avx512-over-avx2");
    let min_factor = args.limit("--min-factor-over-gemm");
    let max_abft = args.limit("--max-abft-overhead");
    let mut sizes: Vec<usize> = args.positional();
    args.finish();
    for (flag, asked) in [
        ("--min-trsm-over-gemm", min_trsm.is_some()),
        ("--min-avx512-over-avx2", min_tier.is_some()),
    ] {
        if asked && !host_has_simd() {
            eprintln!("error: {flag} rates the simd kernel: this host has no SIMD tier");
            std::process::exit(2);
        }
    }
    if sizes.is_empty() {
        sizes = vec![256, 512, 1024];
    }
    let mut kernels = vec![GemmKernel::Scalar, GemmKernel::Unrolled];
    if host_has_simd() {
        kernels.push(GemmKernel::Simd);
    }
    kernels.push(GemmKernel::Auto);
    println!("== kernel_bench: f64, serial, best-of per LA_GEMM_KERNEL ==");
    for &n in &sizes {
        let a = fill(n * n, 7, 13);
        let b = fill(n * n, 5, 11);
        let mut c = vec![0.0f64; n * n];
        let flops = 2.0 * (n as f64).powi(3);
        rows(&kernels, "gemm", &format!("n={n}"), flops, None, || {
            la_blas::gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                &a,
                n,
                &b,
                n,
                0.0,
                &mut c,
                n,
            );
            std::hint::black_box(&c);
        });
    }
    let n = UPDATE_N;
    let kmax = UPDATE_K[UPDATE_K.len() - 1];
    let a = fill(n * kmax, 7, 13);
    let b = fill(kmax * n, 5, 11);
    let mut c = vec![0.0f64; n * n];
    for &k in &UPDATE_K {
        let shape = format!("n={n} k={k}");
        let flops = 2.0 * (n * n * k) as f64;
        rows(&kernels, "gemm", &shape, flops, None, || {
            la_blas::gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                k,
                -1.0,
                &a,
                n,
                &b,
                kmax,
                1.0,
                &mut c,
                n,
            );
            std::hint::black_box(&c);
        });
        let flops = (n * (n + 1) * k) as f64;
        rows(&kernels, "syrk", &shape, flops, None, || {
            la_blas::syrk(Uplo::Lower, Trans::No, n, k, -1.0, &a, n, 1.0, &mut c, n);
            std::hint::black_box(&c);
        });
    }
    trsm_rows(&kernels);
    let panel = panel_rows();
    let (chol_leaf, chol_panel) = chol_rows();
    println!("== one thread, default kernel, calls taking turns for {MIN_SECS} s per group ==");
    let mut trsm = trsm_gate_row(false);
    // On a two-tier host the trsm and ABFT gates read the AVX2 tier's
    // run.
    if two_tiers() {
        trsm = trsm_gate_row(true);
    }
    let packed = reference_row();
    let tier = tier_row();
    let (factor, mut abft_overhead) = factor_rows(false);
    if two_tiers() {
        (_, abft_overhead) = factor_rows(true);
    }
    nb_rows();
    call_floor();
    let gates = [
        gate("min trsm 256x1024 L/N/U, U/T/N over gemm", trsm, min_trsm),
        gate(
            "min getf2 96x32, 32x32 over the rank-1 loop",
            panel,
            min_panel,
        ),
        gate(
            "min potf2 32 over the left-looking loop",
            chol_leaf,
            min_chol_leaf,
        ),
        gate(
            "min potrf2 over the left-looking loop, 96 and 128",
            chol_panel,
            min_chol_panel,
        ),
        gate("gemm n=256 over the column-axpy loop", packed, min_packed),
        match tier {
            Some(tier) => gate("f64 gemm n=256 avx-512 over avx2 tile", tier, min_tier),
            None => true,
        },
        gate(
            "min(getrf, potrf) rate over gemm, n=1024",
            factor,
            min_factor,
        ),
        gate("max ABFT verify over off, n=1024", abft_overhead, max_abft),
    ];
    if gates.contains(&false) {
        std::process::exit(1);
    }
}
