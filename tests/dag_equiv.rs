//! Dag-vs-blocked equivalence for the tiled task-graph factorizations,
//! across all four scalar types, plus the robustness contract of the dag
//! runtime: `INFO` extension-code attribution (`-102` soft fault, `-103`
//! cancelled, `-104` panicked) and the probe record of the executed graph
//! shape against closed-form task counts.
//!
//! The thread budget picks the route: more than one thread and at least
//! the routine's threshold in blocks (four for `getrf` and `potrf`, six
//! for `geqrf`) run the task graph, anything else the serial blocked loop.
//! The dag cases get there through a scoped `tune::with` override (an
//! oversubscribed budget of four and a `tile_nb` small enough for eight
//! blocks), so the task decomposition and the concurrent scheduler run even
//! on small matrices and single-core hosts; `the_thread_budget_picks_the_route`
//! pins the rule itself.

use std::sync::Mutex;

use la_core::{tune, RealScalar, Scalar, Uplo, C32, C64};
use la_lapack as f77;

/// Serializes the tests that reset and read the process-wide probe record.
static PROBE: Mutex<()> = Mutex::new(());

/// Block width of the equivalence cases: every one spans at least eight.
const TILE: usize = 12;

/// Serial blocked reference: thread budget 1.
fn blocked() -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: 1,
        ..tune::TuneConfig::defaults()
    }
}

/// The dag route: 4 workers (oversubscribed if the host has fewer cores),
/// narrow blocks so test-sized matrices span the blocks the route needs.
fn dag(tile_nb: usize) -> tune::TuneConfig {
    tune::TuneConfig {
        tile_nb,
        max_threads: 4,
        oversubscribe: true,
        ..tune::TuneConfig::defaults()
    }
}

struct Rng(u64);

impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 * 2.0 - 1.0
    }
    fn val<T: Scalar>(&mut self) -> T {
        let re = self.next_f64();
        let im = if T::IS_COMPLEX { self.next_f64() } else { 0.0 };
        T::from_re_im(T::Real::from_f64(re), T::Real::from_f64(im))
    }
    fn vec<T: Scalar>(&mut self, n: usize) -> Vec<T> {
        (0..n).map(|_| self.val()).collect()
    }
}

fn assert_close<T: Scalar>(reference: &[T], dagged: &[T], tol: f64, what: &str) {
    assert_eq!(reference.len(), dagged.len());
    for (idx, (&r, &d)) in reference.iter().zip(dagged).enumerate() {
        let diff = (r - d).abs().to_f64();
        let scale = 1.0 + r.abs().to_f64();
        assert!(
            diff <= tol * scale,
            "{what}: element {idx} differs by {diff:.3e}"
        );
    }
}

/// Hermitian positive definite test matrix: `B·Bᴴ + n·I`.
fn spd<T: Scalar>(rng: &mut Rng, n: usize) -> Vec<T> {
    let b: Vec<T> = rng.vec(n * n);
    let mut a = vec![T::zero(); n * n];
    la_blas::gemm(
        la_core::Trans::No,
        la_core::Trans::ConjTrans,
        n,
        n,
        n,
        T::one(),
        &b,
        n,
        &b,
        n,
        T::zero(),
        &mut a,
        n,
    );
    for i in 0..n {
        a[i + i * n] += T::from_f64(n as f64);
    }
    a
}

fn getrf_equiv<T: Scalar>(tol: f64) {
    for &(m, n) in &[(120usize, 120usize), (144, 96), (96, 144), (130, 110)] {
        let mut rng = Rng(5);
        let a0: Vec<T> = rng.vec(m * n);
        let mn = m.min(n);
        let mut ar = a0.clone();
        let mut pr = vec![0i32; mn];
        let ir = tune::with(blocked(), || f77::getrf(m, n, &mut ar, m, &mut pr));
        let mut ad = a0.clone();
        let mut pd = vec![0i32; mn];
        let id = tune::with(dag(TILE), || f77::getrf(m, n, &mut ad, m, &mut pd));
        assert_eq!(ir, id, "getrf {m}x{n} {}", T::PREFIX);
        assert_eq!(pr, pd, "getrf pivots {m}x{n} {}", T::PREFIX);
        assert_close(&ar, &ad, tol, &format!("getrf {m}x{n} {}", T::PREFIX));
    }
}

fn potrf_equiv<T: Scalar>(tol: f64) {
    let n = 120usize;
    let mut rng = Rng(9);
    let a0: Vec<T> = spd(&mut rng, n);
    for uplo in [Uplo::Lower, Uplo::Upper] {
        let mut ar = a0.clone();
        let ir = tune::with(blocked(), || f77::potrf(uplo, n, &mut ar, n));
        let mut ad = a0.clone();
        let id = tune::with(dag(TILE), || f77::potrf(uplo, n, &mut ad, n));
        assert_eq!(ir, 0, "potrf blocked {uplo:?} {}", T::PREFIX);
        assert_eq!(id, 0, "potrf dag {uplo:?} {}", T::PREFIX);
        // Compare the factored triangle only (the other half is not
        // referenced by either algorithm).
        for j in 0..n {
            for i in 0..n {
                let in_tri = match uplo {
                    Uplo::Lower => i >= j,
                    Uplo::Upper => i <= j,
                };
                if in_tri {
                    let (r, d) = (ar[i + j * n], ad[i + j * n]);
                    let diff = (r - d).abs().to_f64();
                    assert!(
                        diff <= tol * (1.0 + r.abs().to_f64()),
                        "potrf {uplo:?} {} ({i},{j}): {diff:.3e}",
                        T::PREFIX
                    );
                }
            }
        }
    }
}

fn geqrf_equiv<T: Scalar>(tol: f64) {
    for &(m, n) in &[(120usize, 120usize), (150, 96), (96, 130)] {
        let mut rng = Rng(13);
        let a0: Vec<T> = rng.vec(m * n);
        let k = m.min(n);
        let mut ar = a0.clone();
        let mut tr = vec![T::zero(); k];
        let ir = tune::with(blocked(), || f77::geqrf(m, n, &mut ar, m, &mut tr));
        let mut ad = a0.clone();
        let mut td = vec![T::zero(); k];
        let id = tune::with(dag(TILE), || f77::geqrf(m, n, &mut ad, m, &mut td));
        assert_eq!(ir, id, "geqrf {m}x{n} {}", T::PREFIX);
        assert_close(&ar, &ad, tol, &format!("geqrf {m}x{n} {}", T::PREFIX));
        assert_close(&tr, &td, tol, &format!("geqrf tau {m}x{n} {}", T::PREFIX));
    }
}

#[test]
fn dag_matches_blocked_f32() {
    getrf_equiv::<f32>(5e-3);
    potrf_equiv::<f32>(5e-3);
    geqrf_equiv::<f32>(5e-3);
}

#[test]
fn dag_matches_blocked_f64() {
    getrf_equiv::<f64>(1e-9);
    potrf_equiv::<f64>(1e-9);
    geqrf_equiv::<f64>(1e-9);
}

#[test]
fn dag_matches_blocked_c32() {
    getrf_equiv::<C32>(5e-3);
    potrf_equiv::<C32>(5e-3);
    geqrf_equiv::<C32>(5e-3);
}

#[test]
fn dag_matches_blocked_c64() {
    getrf_equiv::<C64>(1e-9);
    potrf_equiv::<C64>(1e-9);
    geqrf_equiv::<C64>(1e-9);
}

#[test]
fn cancelled_token_reports_info_minus_103() {
    let token = la_core::CancelToken::new();
    token.cancel();
    let n = 96usize;
    let mut rng = Rng(21);
    let a0: Vec<f64> = rng.vec(n * n);

    let mut a = a0.clone();
    let mut piv = vec![0i32; n];
    let info = tune::with(dag(TILE), || {
        la_core::cancel::with_token(token.clone(), || f77::getrf(n, n, &mut a, n, &mut piv))
    });
    assert_eq!(info, la_core::cancel::INFO_CANCELLED);
    // A cancelled run must still leave a valid (identity-extended)
    // permutation so callers that ignore info cannot index out of range.
    for (j, &p) in piv.iter().enumerate() {
        assert!(p >= 1 && p as usize <= n, "ipiv[{j}] = {p} out of range");
    }

    let mut a: Vec<f64> = spd(&mut rng, n);
    let info = tune::with(dag(TILE), || {
        la_core::cancel::with_token(token.clone(), || f77::potrf(Uplo::Lower, n, &mut a, n))
    });
    assert_eq!(info, la_core::cancel::INFO_CANCELLED);

    let mut a = a0;
    let mut tau = vec![0.0f64; n];
    let info = tune::with(dag(TILE), || {
        la_core::cancel::with_token(token, || f77::geqrf(n, n, &mut a, n, &mut tau))
    });
    assert_eq!(info, la_core::cancel::INFO_CANCELLED);
}

/// Closed-form task counts for evenly blocked problems (`nb | n`), `t`
/// blocks of whole columns.
mod task_counts {
    /// Lower Cholesky: per step `k` one diagonal task (`potrf2` + `trsm`)
    /// and one `herk` + `gemm` update per later block, `t−k−1`.
    pub fn potrf(t: usize) -> u64 {
        (0..t).map(|k| 1 + (t - k - 1) as u64).sum()
    }

    /// Square LU: per step `k` one panel, `k` left-swap tasks and `t−k−1`
    /// swap + `trsm` + `gemm` updates — `t` tasks a step.
    pub fn getrf(t: usize) -> u64 {
        (0..t).map(|k| 1 + k as u64 + (t - k - 1) as u64).sum()
    }

    /// Square QR: per step one panel and `t−k−1` block-reflector applies.
    pub fn geqrf(t: usize) -> u64 {
        (0..t).map(|k| 1 + (t - k - 1) as u64).sum()
    }
}

#[test]
fn probe_task_counts_match_closed_form() {
    use la_core::probe::{self, ProbePolicy};
    let n = 128usize; // eight blocks at tile_nb = 16
    let t = 8usize;
    let mut rng = Rng(33);
    let a0: Vec<f64> = rng.vec(n * n);
    let spd0: Vec<f64> = spd(&mut rng, n);

    let _probe = PROBE.lock().unwrap_or_else(|e| e.into_inner());
    let shape_of = |routine: &str, f: &mut dyn FnMut()| -> probe::DagShape {
        probe::reset();
        probe::with_policy(ProbePolicy::Spans, || tune::with(dag(16), f));
        let report = probe::snapshot();
        let span = report
            .spans
            .iter()
            .find_map(|s| s.find(routine))
            .unwrap_or_else(|| panic!("{routine} span missing"));
        span.dag
            .unwrap_or_else(|| panic!("{routine} has no dag shape"))
    };

    let shape = shape_of("getrf_dag", &mut || {
        let mut a = a0.clone();
        let mut piv = vec![0i32; n];
        assert_eq!(f77::getrf(n, n, &mut a, n, &mut piv), 0);
    });
    assert_eq!(shape.tasks, task_counts::getrf(t), "getrf task count");
    // panel, update of the next block, …, the last panel, its left swap.
    assert_eq!(shape.critical_path, 2 * t as u64, "getrf critical path");
    assert!(shape.occupancy > 0.0 && shape.occupancy <= 1.0);

    let shape = shape_of("potrf_dag", &mut || {
        let mut a = spd0.clone();
        assert_eq!(f77::potrf(Uplo::Lower, n, &mut a, n), 0);
    });
    assert_eq!(shape.tasks, task_counts::potrf(t), "potrf task count");
    assert_eq!(
        shape.critical_path,
        (2 * t - 1) as u64,
        "potrf critical path"
    );

    let shape = shape_of("geqrf_dag", &mut || {
        let mut a = a0.clone();
        let mut tau = vec![0.0f64; n];
        assert_eq!(f77::geqrf(n, n, &mut a, n, &mut tau), 0);
    });
    assert_eq!(shape.tasks, task_counts::geqrf(t), "geqrf task count");
    assert_eq!(
        shape.critical_path,
        (2 * t - 1) as u64,
        "geqrf critical path"
    );
}

/// The route rule, routine × thread budget × order: the task graph exactly
/// when the budget is above one and the order spans the routine's tiles
/// (four for `getrf` and `potrf`, six for `geqrf`); otherwise
/// the blocked loop with every BLAS-3 call serial (`par_flops: 0` would
/// stripe them all if it were not), whose output at two threads is the
/// one-thread output bit for bit. Above the threshold the graph keeps the
/// blocked route's pivots.
#[test]
fn the_thread_budget_picks_the_route() {
    use la_core::abft::{self, AbftPolicy};
    use la_core::probe::{self, Layer, ProbePolicy, Span};

    /// Every BLAS span below `s` ran on one thread.
    fn serial_blas(s: &Span) -> bool {
        s.children
            .iter()
            .all(|c| (c.layer != Layer::Blas || c.threads == 1) && serial_blas(c))
    }

    let _probe = PROBE.lock().unwrap_or_else(|e| e.into_inner());
    // Every order below is above the blocked crossover (64).
    let tile = 24;
    let budget = |threads: usize| tune::TuneConfig {
        tile_nb: tile,
        max_threads: threads,
        oversubscribe: true,
        par_flops: 0,
        ..tune::TuneConfig::defaults()
    };
    // Each run returns `info` and the output besides `A`: pivots or `tau`.
    type Run = fn(usize, &mut [f64]) -> (i32, Vec<f64>);
    let routines: [(&str, usize, Run); 3] = [
        ("getrf", 4, |n, a| {
            let mut piv = vec![0i32; n];
            let info = f77::getrf(n, n, a, n, &mut piv);
            (info, piv.iter().map(|&p| p as f64).collect())
        }),
        ("potrf", 4, |n, a| {
            (f77::potrf(Uplo::Lower, n, a, n), Vec::new())
        }),
        ("geqrf", 6, |n, a| {
            let mut tau = vec![0.0; n];
            (f77::geqrf(n, n, a, n, &mut tau), tau)
        }),
    ];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (name, tiles, run) in routines {
        for n in [tiles * tile - 1, tiles * tile] {
            let mut rng = Rng(40 + n as u64);
            let general: Vec<f64> = rng.vec(n * n);
            let posdef: Vec<f64> = spd(&mut rng, n);
            let mut outputs = Vec::new();
            for threads in [1, 2] {
                let what = format!("{name} n={n} threads={threads}");
                let mut a = if name == "potrf" { &posdef } else { &general }.clone();
                probe::reset();
                let (info, extra) = abft::with_policy(AbftPolicy::Off, || {
                    probe::with_policy(ProbePolicy::Spans, || {
                        tune::with(budget(threads), || run(n, &mut a))
                    })
                });
                assert_eq!(info, 0, "{what}");
                let report = probe::snapshot();
                // The largest: `geqrf_dag`'s panel tasks call `geqrf` too.
                let root = report
                    .spans
                    .iter()
                    .filter(|s| s.routine == name)
                    .max_by_key(|s| s.flops)
                    .unwrap_or_else(|| panic!("{what}: no {name} span"));
                let ran_dag = root.find(&format!("{name}_dag")).is_some();
                assert_eq!(ran_dag, threads > 1 && n >= tiles * tile, "{what}: route");
                if !ran_dag {
                    assert!(serial_blas(root), "{what}: a BLAS call ran striped");
                }
                outputs.push((ran_dag, bits(&a), extra));
            }
            let (one, two) = (&outputs[0], &outputs[1]);
            if !two.0 {
                assert!(
                    one.1 == two.1 && bits(&one.2) == bits(&two.2),
                    "{name} n={n}: blocked at two threads is not the one-thread output"
                );
            } else if name == "getrf" {
                assert_eq!(one.2, two.2, "{name} n={n}: dag pivots");
            }
        }
    }
}

/// Fault attribution through the dag runtime: a panicking task surfaces
/// `-104` on its own slot (dependents skipped), and an ABFT-detected
/// soft fault surfaces `-102` through the driver stack with the dag
/// routing active — and is repaired, under `Recover`, to the clean graph's
/// bits.
#[cfg(feature = "fault-inject")]
mod fault_attribution {
    use super::*;
    use la_core::abft::inject::{arm, disarm, CorruptKind, Corruption};
    use la_core::abft::{self, AbftPolicy};
    use la_core::{DagBuilder, LaError, Mat};

    /// Serializes the tests that arm the process-wide corruption slot: an
    /// `arm` replaces whatever another test armed.
    static ARMED: Mutex<()> = Mutex::new(());

    /// The dag route with the ABFT flop threshold at zero, so the
    /// factor-level checksum engages at test size, and eight-wide ABFT
    /// blocks: block 11 of a 96-order factor exists in no other test's
    /// call, so a factorization running beside these cannot fire it.
    fn dag_abft() -> tune::TuneConfig {
        tune::TuneConfig {
            par_flops: 0,
            nb_getrf: 8,
            nb_potrf: 8,
            ..dag(TILE)
        }
    }

    /// Silences the intentional test panic only; everything else still
    /// prints.
    fn quiet_test_panics() {
        use std::sync::Once;
        static ONCE: Once = Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let ours = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains("injected dag task fault"));
                if !ours {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn panicking_task_is_attributed_minus_104() {
        quiet_test_panics();
        let result = tune::with(dag(4), || {
            let mut g = DagBuilder::new();
            // Two resources, as two blocks of a matrix would be.
            let (t00, t11) = (0, 1);
            g.task("ok", &[], &[t00], || 0);
            g.task("boom", &[t00], &[t11], || panic!("injected dag task fault"));
            g.task("dependent", &[t11], &[t00], || 7);
            g.run()
        });
        assert_eq!(result.infos[0], 0);
        assert_eq!(result.infos[1], -104, "panic attributed to its own task");
        assert_eq!(result.infos[2], 0, "dependent skipped after abort");
        assert_eq!(result.info(), -104);
    }

    #[test]
    fn soft_fault_surfaces_minus_102_through_dag_routing() {
        let mut rng = Rng(31);
        let n = 96usize;
        let mut a0: Mat<f64> = Mat::zeros(n, n);
        for j in 0..n {
            for i in 0..n {
                a0[(i, j)] = if i == j { 8.0 } else { rng.next_f64() };
            }
        }
        let b0: Vec<f64> = rng.vec(n);

        let _armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
        abft::clear_pending();
        let err = tune::with(dag_abft(), || {
            abft::with_policy(AbftPolicy::Verify, || {
                arm(Corruption {
                    routine: "getrf",
                    stripe: 11,
                    kind: CorruptKind::Scale,
                });
                let mut a = a0.clone();
                let mut b = b0.clone();
                la90::gesv(&mut a, &mut b)
            })
        })
        .expect_err("corrupted dag factorization must fail under Verify");
        disarm();
        match err {
            LaError::SoftFault { routine, .. } => assert_eq!(routine, "LA_GESV"),
            other => panic!("expected SoftFault, got {other:?}"),
        }
        assert_eq!(err.info(), -102);
        assert!(
            abft::take_pending().is_none(),
            "erinfo must drain the pending fault"
        );

        // Recover policy: same corruption, clean solve.
        let solved = tune::with(dag_abft(), || {
            abft::with_policy(AbftPolicy::Recover, || {
                arm(Corruption {
                    routine: "getrf",
                    stripe: 11,
                    kind: CorruptKind::Scale,
                });
                let mut a = a0.clone();
                let mut b = b0.clone();
                la90::gesv(&mut a, &mut b).map(|_| b)
            })
        })
        .expect("recovery must produce a clean solution");
        disarm();
        // Residual check: A·x = b.
        let mut r = b0.clone();
        for i in 0..n {
            let mut s = 0.0;
            for j in 0..n {
                s += a0[(i, j)] * solved[j];
            }
            r[i] -= s;
        }
        let resid = r.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(resid < 1e-8, "recovered residual {resid:e}");
    }

    /// Recovery re-runs the route the call took. Above the threshold that
    /// is the graph, on one thread: it computes the same bits as on four,
    /// so the repaired factors are the clean call's bit for bit — the
    /// contract `tests/degrade.rs` pins on the blocked route.
    #[test]
    fn recovery_on_the_graph_route_is_bitwise_the_clean_graph() {
        use la_core::abft::inject::is_armed;

        let n = 96usize;
        let mut rng = Rng(37);
        let general: Vec<f64> = rng.vec(n * n);
        let posdef: Vec<f64> = spd(&mut rng, n);
        let _armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
        for routine in ["getrf", "potrf"] {
            let run = |policy: AbftPolicy, armed: bool| {
                let mut a = if routine == "getrf" {
                    &general
                } else {
                    &posdef
                }
                .clone();
                let mut piv = vec![0i32; n];
                let info = tune::with(dag_abft(), || {
                    abft::with_policy(policy, || {
                        if armed {
                            arm(Corruption {
                                routine,
                                stripe: 11,
                                kind: CorruptKind::Scale,
                            });
                        }
                        match routine {
                            "getrf" => f77::getrf(n, n, &mut a, n, &mut piv),
                            _ => f77::potrf(Uplo::Lower, n, &mut a, n),
                        }
                    })
                });
                assert_eq!(info, 0, "{routine} {policy:?}");
                (a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), piv)
            };
            let clean = run(AbftPolicy::Off, false);
            abft::clear_pending();
            let recoveries = abft::recoveries();
            let recovered = run(AbftPolicy::Recover, true);
            assert!(!is_armed(), "{routine}: the corruption did not fire");
            assert!(abft::recoveries() > recoveries, "{routine}: not recovered");
            assert!(abft::take_pending().is_none(), "{routine}: pending fault");
            assert!(
                clean == recovered,
                "{routine}: recovery is not the clean graph's output"
            );
        }
    }
}

/// A thread the OS refuses does not fail the graph: with every spawn
/// refused its workers' items run on the caller, with one of the two
/// refused on the worker that started — either way `INFO = 0` and the
/// factors, pivots and `tau` of the unrefused two-thread graph, bit for
/// bit.
#[cfg(feature = "fault-inject")]
#[test]
fn refused_threads_leave_the_graph_output_unchanged() {
    use la_core::ctx::inject::refuse_spawns;

    fn bits<T: Scalar>(v: &[T]) -> Vec<(u64, u64)> {
        v.iter()
            .map(|x| (x.re().to_f64().to_bits(), x.im().to_f64().to_bits()))
            .collect()
    }

    /// A routine, its `INFO` and every output, as bits.
    type Output = (String, i32, Vec<(u64, u64)>);

    fn outputs<T: Scalar>(n: usize) -> Vec<Output> {
        let mut rng = Rng(51);
        let general: Vec<T> = rng.vec(n * n);
        let posdef: Vec<T> = spd(&mut rng, n);
        let mut out = Vec::new();
        let mut a = general.clone();
        let mut piv = vec![0i32; n];
        let info = f77::getrf(n, n, &mut a, n, &mut piv);
        let piv: Vec<(u64, u64)> = piv.iter().map(|&p| (p as u64, 0)).collect();
        out.push(("getrf".into(), info, [bits(&a), piv].concat()));
        for uplo in [Uplo::Lower, Uplo::Upper] {
            let mut a = posdef.clone();
            let info = f77::potrf(uplo, n, &mut a, n);
            out.push((format!("potrf {uplo:?}"), info, bits(&a)));
        }
        let mut a = general;
        let mut tau = vec![T::zero(); n];
        let info = f77::geqrf(n, n, &mut a, n, &mut tau);
        out.push(("geqrf".into(), info, [bits(&a), bits(&tau)].concat()));
        out
    }

    fn check<T: Scalar>() {
        // Ten blocks: above every routine's graph threshold.
        let n = 10 * TILE;
        let two = tune::TuneConfig {
            max_threads: 2,
            ..dag(TILE)
        };
        let clean = tune::with(two, || outputs::<T>(n));
        for (refused, what) in [(usize::MAX, "every spawn"), (1, "one of two spawns")] {
            refuse_spawns(refused);
            let got = tune::with(two, || outputs::<T>(n));
            let left = refuse_spawns(0);
            assert!(left < refused, "{} {what}: no spawn was refused", T::PREFIX);
            for ((name, info, out), (_, _, want)) in got.iter().zip(&clean) {
                let tag = format!("{} {name}, {what} refused", T::PREFIX);
                assert_eq!(*info, 0, "{tag}");
                assert!(out == want, "{tag}: not the unrefused graph's output");
            }
        }
    }
    check::<f64>();
    check::<C64>();
}

/// Oversubscribed scheduler stress: many repeated runs at a high worker
/// count on small tiles, checking dag-vs-blocked equality every time.
/// Ignored by default (slow); the CI TSan job runs it with `--ignored`.
/// It sets its own budget (16 threads, oversubscribed), so no `LA_*`
/// variable is needed; `LA_STRESS_ITERS` sets the repetitions.
#[test]
#[ignore = "stress loop; run explicitly (CI TSan job does)"]
fn oversubscribed_stress_repeated_seeds() {
    let iters: usize = std::env::var("LA_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let n = 128usize;
    let stress = tune::TuneConfig {
        tile_nb: 16,
        max_threads: 16,
        oversubscribe: true,
        ..tune::TuneConfig::defaults()
    };
    for it in 0..iters {
        let mut rng = Rng(1000 + it as u64);
        let a0: Vec<f64> = rng.vec(n * n);
        let mut ar = a0.clone();
        let mut pr = vec![0i32; n];
        let ir = tune::with(blocked(), || f77::getrf(n, n, &mut ar, n, &mut pr));
        let mut ad = a0.clone();
        let mut pd = vec![0i32; n];
        let id = tune::with(stress, || f77::getrf(n, n, &mut ad, n, &mut pd));
        assert_eq!(ir, id, "iter {it}");
        assert_eq!(pr, pd, "iter {it} pivots");
        assert_close(&ar, &ad, 1e-9, &format!("stress getrf iter {it}"));

        let spd0: Vec<f64> = spd(&mut rng, n);
        let mut ar = spd0.clone();
        assert_eq!(
            tune::with(blocked(), || f77::potrf(Uplo::Lower, n, &mut ar, n)),
            0
        );
        let mut ad = spd0;
        assert_eq!(
            tune::with(stress, || f77::potrf(Uplo::Lower, n, &mut ad, n)),
            0
        );
        assert_close(&ar, &ad, 1e-9, &format!("stress potrf iter {it}"));
    }
}
