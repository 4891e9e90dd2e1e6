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
//!   largest unblocked order), each with its ratio to the right-looking
//!   rank-1 loop it replaced (kept here as the reference; these rows do
//!   not depend on the gemm kernel),
//!
//! and prints wall-clock and GF/s. Generates the kernel tables in
//! `EXPERIMENTS.md`. Three "call floor" rows close the table — what the
//! thread-budget resolution, a 4×4×4 `dgemm` and a one-column `dtrsm`
//! (next to the `dtrsv` it runs) cost in ns, under the default thread
//! budget: the price of a call before it computes.
//!
//! Usage: `kernel_bench [--min-trsm-over-gemm R] [--min-panel-over-rank1 R]
//! [n ...]` — the square
//! sizes default to `256 512 1024`; pass explicit sizes (e.g.
//! `kernel_bench 256 512 1024 2048`) for the full table. With
//! `--min-trsm-over-gemm R` the run exits 1 when the `simd` kernel's
//! `dtrsm` 256 × 1024 (L/N/unit) runs below `R` times its `dgemm`
//! 256 × 1024 × 256, and with `--min-panel-over-rank1 R` when `dgetf2`
//! 96 × 32 is less than `R` times as fast as the rank-1 loop — same-run
//! ratios, so they gate on any host. Best of
//! at least 3 repetitions and 0.2 s per point. The `simd` row only
//! appears when the binary is built with `--features simd` (otherwise
//! the Simd selection would silently fall back to the unrolled kernel
//! and mislabel the row).
//!
//! Blocking parameters come from [`la_core::tune`], so `LA_GEMM_MC`,
//! `LA_GEMM_KC`, and `LA_GEMM_NC` override the cache blocking for
//! parameter sweeps.

use la_core::tune::{self, GemmKernel};
use la_core::{Diag, Side, Trans, Uplo};
use std::time::Instant;

/// Order of the update rows: n = 768 minus one nb = 32 panel.
const UPDATE_N: usize = 736;
const UPDATE_K: [usize; 4] = [32, 48, 96, 256];

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
        let cfg = tune::TuneConfig {
            gemm_kernel: kern,
            max_threads: 1,
            ..tune::TuneConfig::defaults()
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

/// The `trsm` rows. Returns the 256 × 1024 L/N/unit ratio to `dgemm`
/// 256 × 1024 × 256 per kernel.
fn trsm_rows(kernels: &[GemmKernel], fill: impl Fn(usize, usize, usize) -> Vec<f64>) -> Vec<f64> {
    let (m, n) = (SOLVE_M, SOLVE_N);
    // A unit diagonal and off-diagonals of order 1e-10: the right-hand
    // side is solved over and over without a reset and must stay put.
    let mut tri: Vec<f64> = fill(m * m, 7, 13).iter().map(|x| x * 1e-10).collect();
    for i in 0..m {
        tri[i + i * m] = 1.0;
    }
    let b0 = fill(m * n, 5, 11);
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
    let mut gated = Vec::new();
    for (idx, (tm, tn, uplo, trans, diag)) in shapes.into_iter().enumerate() {
        // L/N/U: the initials of `Lower`, `No`, `Unit`.
        let initial = |name: String| name.chars().next().unwrap_or('?');
        let shape = format!(
            "{tm}x{tn} {}/{}/{}",
            initial(format!("{uplo:?}")),
            initial(format!("{trans:?}")),
            initial(format!("{diag:?}")),
        );
        let flops = (tm * tm * tn) as f64;
        let rates = rows(kernels, "trsm", &shape, flops, Some(&gemm), || {
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
        if idx == 0 {
            gated = rates.iter().zip(&gemm).map(|(t, g)| t / g).collect();
        }
    }
    gated
}

/// The right-looking rank-1 `getf2` (one pass over the trailing panel per
/// pivot) that `la_lapack::getf2` replaced: the baseline of the panel rows.
fn getf2_rank1(m: usize, n: usize, a: &mut [f64], lda: usize, ipiv: &mut [i32]) -> i32 {
    let mut info = 0i32;
    for j in 0..m.min(n) {
        let p = j + la_blas::iamax(m - j, &a[j + j * lda..], 1);
        ipiv[j] = (p + 1) as i32;
        if a[p + j * lda] != 0.0 {
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
                if ajk != 0.0 {
                    for (x, &l) in ck[1..].iter_mut().zip(col) {
                        *x -= l * ajk;
                    }
                }
            }
        }
    }
    info
}

/// The `getf2` panel rows. Returns the 96 × 32 speed-up over the rank-1
/// loop.
fn panel_rows() -> f64 {
    type Panel = fn(usize, usize, &mut [f64], usize, &mut [i32]) -> i32;
    // Full-rank entries in [−1, 1): the periodic `fill` of the other rows
    // has rank 13 and would time the zero-pivot path.
    let mut rng = la_bench::SplitMix64::new(0x9e37_79b9_7f4a_7c15);
    let mut gated = 0.0;
    for (m, n) in [(96usize, 32usize), (64, 32), (32, 32), (736, 32), (64, 64)] {
        let a0: Vec<f64> = (0..m * n).map(|_| rng.next_f64()).collect();
        let mut a = a0.clone();
        let mut ipiv = vec![0i32; n];
        // Each call factors a fresh copy; only the factorization is timed.
        let mut time = |f: Panel| {
            let mut best = f64::INFINITY;
            let start = Instant::now();
            while start.elapsed().as_secs_f64() < 0.2 {
                a.copy_from_slice(&a0);
                let t0 = Instant::now();
                f(m, n, &mut a, m, &mut ipiv);
                best = best.min(t0.elapsed().as_secs_f64());
                std::hint::black_box(&a);
            }
            best
        };
        let rank1 = time(getf2_rank1);
        let panel = time(la_lapack::getf2::<f64>);
        let rate = la_core::probe::flops::getrf(m, n) as f64 / panel / 1e9;
        let shape = format!("{m}x{n}");
        println!(
            "getf2 {shape:<16}                 {:9.3} us  {rate:6.2} GF/s  {:4.2} x rank-1 ({:.3} us)",
            panel * 1e6,
            rank1 / panel,
            rank1 * 1e6,
        );
        if (m, n) == (96, 32) {
            gated = rank1 / panel;
        }
    }
    gated
}

fn main() {
    let mut min_ratio: Option<f64> = None;
    let mut min_panel: Option<f64> = None;
    let mut sizes: Vec<usize> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--min-trsm-over-gemm" {
            let v = args.next().and_then(|v| v.parse().ok());
            min_ratio = Some(v.expect("--min-trsm-over-gemm needs a ratio"));
        } else if arg == "--min-panel-over-rank1" {
            let v = args.next().and_then(|v| v.parse().ok());
            min_panel = Some(v.expect("--min-panel-over-rank1 needs a ratio"));
        } else {
            sizes.push(arg.parse().unwrap_or_else(|_| panic!("bad size {arg:?}")));
        }
    }
    if sizes.is_empty() {
        sizes = vec![256, 512, 1024];
    }
    let mut kernels = vec![GemmKernel::Scalar, GemmKernel::Unrolled];
    if cfg!(feature = "simd") {
        kernels.push(GemmKernel::Simd);
    }
    kernels.push(GemmKernel::Auto);
    let fill = |len: usize, mul: usize, modulus: usize| -> Vec<f64> {
        (0..len)
            .map(|i| ((i * mul % modulus) as f64 - (modulus / 2) as f64) / 7.0)
            .collect()
    };
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
    let ratios = trsm_rows(&kernels, fill);
    let panel_ratio = panel_rows();
    call_floor();
    if let Some(min) = min_ratio {
        let at = kernels.iter().position(|&k| k == GemmKernel::Simd);
        let at = at.expect("--min-trsm-over-gemm reads the simd row: build with --features simd");
        let ratio = ratios[at];
        println!("gate  trsm {SOLVE_M}x{SOLVE_N} over gemm (simd): {ratio:.2}, floor {min:.2}");
        if ratio < min {
            eprintln!("kernel_bench: trsm runs at {ratio:.2} of gemm, below {min:.2}");
            std::process::exit(1);
        }
    }
    if let Some(min) = min_panel {
        println!("gate  getf2 96x32 over the rank-1 loop: {panel_ratio:.2}, floor {min:.2}");
        if panel_ratio < min {
            eprintln!(
                "kernel_bench: getf2 runs at {panel_ratio:.2} x the rank-1 loop, below {min:.2}"
            );
            std::process::exit(1);
        }
    }
}
