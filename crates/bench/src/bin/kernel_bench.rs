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
//!
//! and prints wall-clock and GF/s. Generates the kernel tables in
//! `EXPERIMENTS.md`. Three "call floor" rows close the table — what the
//! thread-budget resolution, a 4×4×4 `dgemm` and a one-column `dtrsm`
//! (next to the `dtrsv` it runs) cost in ns, under the default thread
//! budget: the price of a call before it computes.
//!
//! Usage: `kernel_bench [n ...]` — the square sizes default to
//! `256 512 1024`; pass explicit sizes (e.g. `kernel_bench 256 512 1024
//! 2048`) for the full table. Best of at least 3 repetitions and 0.2 s
//! per point. The `simd` row only appears when the binary is built with
//! `--features simd` (otherwise the Simd selection would silently fall
//! back to the unrolled kernel and mislabel the row).
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

/// Times `call` under each kernel selection and prints one row per kernel.
fn rows(kernels: &[GemmKernel], op: &str, shape: &str, flops: f64, mut call: impl FnMut()) {
    for &kern in kernels {
        let cfg = tune::TuneConfig {
            gemm_kernel: kern,
            max_threads: 1,
            ..tune::TuneConfig::defaults()
        };
        let secs = tune::with(cfg, || best_of(&mut call));
        println!(
            "{op:<5} {shape:<16} kernel={:<8} {:9.3} ms  {:6.2} GF/s",
            format!("{kern:?}").to_lowercase(),
            secs * 1e3,
            flops / secs / 1e9
        );
    }
}

fn main() {
    let mut sizes: Vec<usize> = std::env::args()
        .skip(1)
        .map(|a| a.parse().unwrap_or_else(|_| panic!("bad size {a:?}")))
        .collect();
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
        rows(&kernels, "gemm", &format!("n={n}"), flops, || {
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
        rows(&kernels, "gemm", &shape, 2.0 * (n * n * k) as f64, || {
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
        rows(&kernels, "syrk", &shape, (n * (n + 1) * k) as f64, || {
            la_blas::syrk(Uplo::Lower, Trans::No, n, k, -1.0, &a, n, 1.0, &mut c, n);
            std::hint::black_box(&c);
        });
    }
    call_floor();
}
