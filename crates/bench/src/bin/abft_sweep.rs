//! ABFT overhead sweep: times the checksum-protected entry points
//! (`gemm`, `getrf`, `potrf`) under each [`AbftPolicy`] and emits
//! `BENCH_abft.json` in the current directory.
//!
//! The headline numbers are the `abft_overhead` ratios —
//! `<op>_verify_<n>` and `<op>_recover_<n>`, each policy's time over the
//! `Off` time at the same size. The Huang–Abraham checksums cost O(n²)
//! against the O(n³) compute, so the ratio must approach 1 as n grows;
//! `bench_gate --max-abft-overhead` enforces the ceiling on the verify
//! ratios at n ≥ 1024.
//!
//! `--quick` shrinks the sweep for CI (n = 512 only) and writes
//! `BENCH_abft.quick.json`, leaving the checked-in baseline untouched.

use la_bench::{bench_matrix, bench_spd, timeit};
use la_core::abft::{self, AbftPolicy};
use la_core::json::JsonBuf;
use la_core::{Mat, Trans, Uplo};
use la_lapack as f77;

struct Row {
    op: &'static str,
    policy: &'static str,
    n: usize,
    ms: f64,
}

const POLICIES: [(AbftPolicy, &str); 3] = [
    (AbftPolicy::Off, "off"),
    (AbftPolicy::Verify, "verify"),
    (AbftPolicy::Recover, "recover"),
];

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cores = la_core::tune::host_parallelism();
    let mode = if quick { " (quick)" } else { "" };
    println!("== abft_sweep{mode}: {cores} core(s) ==");

    let reps = 9;
    let sizes: &[usize] = if quick { &[512] } else { &[512, 1024, 2048] };

    let mut rows: Vec<Row> = Vec::new();
    for &n in sizes {
        let gen: Mat<f64> = bench_matrix(n, 3);
        let spd: Mat<f64> = bench_spd(n, 9);
        let bmat: Mat<f64> = bench_matrix(n, 7);

        // Per-op, per-policy best-of-reps, with the policies interleaved
        // *inside* each rep: shared machines drift on minute scales, so
        // timing each policy's reps consecutively would fold that drift
        // straight into the overhead ratios. Back-to-back runs keep each
        // off/verify/recover comparison inside one drift window.
        const OPS: [&str; 3] = ["gemm", "getrf", "potrf"];
        let mut best = [[f64::INFINITY; 3]; 3];
        for _ in 0..reps {
            for (pi, (pol, _)) in POLICIES.iter().enumerate() {
                // gemm: C = A·B (the canonical checksum identity).
                let mut c: Mat<f64> = Mat::zeros(n, n);
                let ms = abft::with_policy(*pol, || {
                    timeit(1, || {
                        let checks0 = abft::checks();
                        la_blas::gemm(
                            Trans::No,
                            Trans::No,
                            n,
                            n,
                            n,
                            1.0,
                            gen.as_slice(),
                            n,
                            bmat.as_slice(),
                            n,
                            0.0,
                            c.as_mut_slice(),
                            n,
                        );
                        // Guard against timing the wrong configuration.
                        assert_eq!(pol.enabled(), abft::checks() > checks0);
                    })
                }) * 1e3;
                best[0][pi] = best[0][pi].min(ms);

                // getrf: blocked LU with the row-sum factor identity.
                let ms = abft::with_policy(*pol, || {
                    timeit(1, || {
                        let mut a = gen.clone();
                        let mut ipiv = vec![0i32; n];
                        assert_eq!(f77::getrf(n, n, a.as_mut_slice(), n, &mut ipiv), 0);
                        a
                    })
                }) * 1e3;
                best[1][pi] = best[1][pi].min(ms);

                // potrf: blocked Cholesky.
                let ms = abft::with_policy(*pol, || {
                    timeit(1, || {
                        let mut a = spd.clone();
                        assert_eq!(f77::potrf(Uplo::Lower, n, a.as_mut_slice(), n), 0);
                        a
                    })
                }) * 1e3;
                best[2][pi] = best[2][pi].min(ms);
            }
        }
        for (oi, &op) in OPS.iter().enumerate() {
            for (pi, &(_, pname)) in POLICIES.iter().enumerate() {
                let ms = best[oi][pi];
                println!("{op:6} {pname:7} n={n:5}  {ms:9.2} ms");
                rows.push(Row {
                    op,
                    policy: pname,
                    n,
                    ms,
                });
            }
        }
    }

    // --- Emit JSON ----------------------------------------------------
    let mut j = JsonBuf::new();
    j.begin_obj();
    j.key("host");
    j.begin_obj();
    j.field_uint("cores", cores as u64);
    j.end_obj();
    j.key("abft_sweep");
    j.begin_arr();
    for r in &rows {
        j.begin_obj();
        j.field_str("op", &format!("{}_{}", r.op, r.policy));
        j.field_uint("n", r.n as u64);
        j.field_num("ms", r.ms);
        j.end_obj();
    }
    j.end_arr();
    // Headline: per-policy overhead over Off at the same size.
    j.key("abft_overhead");
    j.begin_obj();
    for op in ["gemm", "getrf", "potrf"] {
        for &n in sizes {
            let time = |pname: &str| {
                rows.iter()
                    .find(|r| r.op == op && r.policy == pname && r.n == n)
                    .map(|r| r.ms)
            };
            if let (Some(off), Some(v), Some(rec)) = (time("off"), time("verify"), time("recover"))
            {
                if off > 0.0 {
                    j.field_num(&format!("{op}_verify_{n}"), v / off);
                    j.field_num(&format!("{op}_recover_{n}"), rec / off);
                }
            }
        }
    }
    j.end_obj();
    j.end_obj();
    let path = if quick {
        "BENCH_abft.quick.json"
    } else {
        "BENCH_abft.json"
    };
    std::fs::write(path, j.into_string()).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}
