//! What a call pays before it computes, pinned by counts instead of a
//! stopwatch, and the blocked/unblocked boundary the factorizations choose
//! at small orders.
//!
//! * A counting `#[global_allocator]` (per-thread, so parallel tests do
//!   not see each other): once warm, the thread-budget resolution and the
//!   small BLAS-3 shapes allocate nothing, the packed `trsm` sweep works
//!   out of the thread's arena at every size, and the drivers stay within
//!   the counts `la_bench` reports (`la90.allocs_per_gesv` /
//!   `allocs_per_posv`).
//! * Around the crossover (n = 47 … 129, four types) the default route is
//!   bitwise the unblocked form up to n = 64 and bitwise the forced-blocked
//!   form above it; both forms agree to the `par_equiv` tolerances, report
//!   the same `info` wherever the first zero pivot / non-positive minor
//!   sits, and `potrf` never touches the triangle it was not given.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use la_blas::{gemm, trmm, trmv, trsm, trsv};
use la_core::{tune, Diag, Mat, RealScalar, Scalar, Side, Trans, Uplo, C32, C64};
use la_lapack as f77;

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only addition
// is a thread-local counter bump that cannot allocate (see `ALLOCS`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(p, l, new_size)
    }
    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        System.dealloc(p, l)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `f` makes on this thread, after one warm-up call.
fn allocs_when_warm(mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
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

/// General matrix with a boosted diagonal: the pivot order is stable
/// across summation orders, and element growth stays small enough for the
/// single-precision tolerance at n = 129.
fn general<T: Scalar>(n: usize, seed: u64) -> Vec<T> {
    let mut a: Vec<T> = Rng(seed).vec(n * n);
    for i in 0..n {
        a[i + i * n] += T::from_f64(8.0 + n as f64 / 4.0);
    }
    a
}

/// Hermitian, strictly diagonally dominant: positive definite.
fn posdef<T: Scalar>(n: usize, seed: u64) -> Vec<T> {
    let mut rng = Rng(seed);
    let mut a = vec![T::zero(); n * n];
    for j in 0..n {
        for i in 0..j {
            let v: T = rng.val();
            a[i + j * n] = v;
            a[j + i * n] = v.conj();
        }
        a[j + j * n] = T::from_f64(2.0 * n as f64);
    }
    a
}

fn serial_cfg() -> tune::TuneConfig {
    tune::TuneConfig {
        max_threads: 1,
        ..tune::TuneConfig::defaults()
    }
}

/// The two thread budgets every entry-cost row is checked under.
fn budgets() -> [tune::TuneConfig; 2] {
    [serial_cfg(), tune::TuneConfig::defaults()]
}

#[test]
fn warm_small_calls_do_not_allocate() {
    let n = 96usize;
    let a4: Vec<f64> = Rng(1).vec(16);
    let a64: Vec<f64> = Rng(2).vec(64 * 64);
    let tri: Vec<f64> = general(n, 3);
    let x0: Vec<f64> = Rng(4).vec(n);
    for cfg in budgets() {
        tune::with(cfg, || {
            let at = |what: &str| format!("{what} at max_threads = {}", cfg.max_threads);
            assert_eq!(
                allocs_when_warm(|| {
                    std::hint::black_box(tune::current().threads());
                }),
                0,
                "{}",
                at("threads()")
            );
            // Below the packing crossover: the unpacked sweep.
            let mut c = [0.0f64; 16];
            assert_eq!(
                allocs_when_warm(|| {
                    gemm(
                        Trans::No,
                        Trans::No,
                        4,
                        4,
                        4,
                        1.0,
                        &a4,
                        4,
                        &a4,
                        4,
                        0.0,
                        &mut c,
                        4,
                    )
                }),
                0,
                "{}",
                at("gemm 4x4x4")
            );
            // Packed, the thread's packing arena warm.
            let mut c = vec![0.0f64; 64 * 64];
            assert_eq!(
                allocs_when_warm(|| {
                    gemm(
                        Trans::No,
                        Trans::No,
                        64,
                        64,
                        32,
                        1.0,
                        &a64,
                        64,
                        &a64,
                        64,
                        0.0,
                        &mut c,
                        64,
                    )
                }),
                0,
                "{}",
                at("gemm 64x64x32")
            );
            for (uplo, trans, diag) in [
                (Uplo::Lower, Trans::No, Diag::Unit),
                (Uplo::Upper, Trans::No, Diag::NonUnit),
                (Uplo::Upper, Trans::ConjTrans, Diag::NonUnit),
            ] {
                let mut x = x0.clone();
                assert_eq!(
                    allocs_when_warm(|| {
                        trsm(Side::Left, uplo, trans, diag, n, 1, 1.0, &tri, n, &mut x, n)
                    }),
                    0,
                    "{}",
                    at(&format!("trsm 96x1 {uplo:?}/{trans:?}"))
                );
                let mut x = x0.clone();
                assert_eq!(
                    allocs_when_warm(|| trsv(uplo, trans, diag, n, &tri, n, &mut x, 1)),
                    0,
                    "{}",
                    at(&format!("trsv 96 {uplo:?}/{trans:?}"))
                );
            }
        });
    }
}

#[test]
fn narrow_trsm_and_trmm_are_the_level2_routine_per_column() {
    // With fewer than four columns the left-side Level-3 entries must be
    // the Level-2 routine exactly, at an order where they would otherwise
    // go blocked.
    fn check<T: Scalar>() {
        let (m, ncols) = (130usize, 3usize);
        let tri: Vec<T> = general(m, 5);
        let b0: Vec<T> = Rng(6).vec(m * ncols);
        let alpha = T::from_f64(0.5);
        for uplo in [Uplo::Upper, Uplo::Lower] {
            for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
                for diag in [Diag::Unit, Diag::NonUnit] {
                    let what = format!("{} {uplo:?}/{trans:?}/{diag:?}", T::PREFIX);
                    let (one, left) = (T::one(), Side::Left);
                    let mut b = b0.clone();
                    trsm(left, uplo, trans, diag, m, ncols, one, &tri, m, &mut b, m);
                    let mut want = b0.clone();
                    for col in want.chunks_mut(m) {
                        trsv(uplo, trans, diag, m, &tri, m, col, 1);
                    }
                    assert!(b == want, "trsm {what}");
                    let mut b = b0.clone();
                    trmm(left, uplo, trans, diag, m, ncols, alpha, &tri, m, &mut b, m);
                    let mut want = b0.clone();
                    for col in want.chunks_mut(m) {
                        trmv(uplo, trans, diag, m, &tri, m, col, 1);
                        col.iter_mut().for_each(|x| *x *= alpha);
                    }
                    assert!(b == want, "trmm {what}");
                }
            }
        }
    }
    check::<f32>();
    check::<f64>();
    check::<C32>();
    check::<C64>();
}

#[test]
fn drivers_at_n96_stay_within_the_reported_allocation_counts() {
    // `la_bench --trace 1` on `small_direct` reports 2 (gesv: the pivot
    // vector and getrf's U12 copy) and 3 (posv: potrf's workspace and the
    // op(A) copy of its two U12 solves); the issue allowed 4 and 3.
    let n = 96usize;
    let a0 = Mat::from_col_major(n, n, general::<f64>(n, 7));
    let s0 = Mat::from_col_major(n, n, posdef::<f64>(n, 8));
    let b0: Vec<f64> = Rng(9).vec(n);
    for cfg in budgets() {
        tune::with(cfg, || {
            let (mut a, mut b) = (a0.clone(), b0.clone());
            let gesv = allocs_when_warm(|| {
                a.as_mut_slice().copy_from_slice(a0.as_slice());
                b.copy_from_slice(&b0);
                la90::gesv(&mut a, &mut b).expect("gesv");
            });
            assert!(gesv <= 4, "gesv allocated {gesv} times");
            let posv = allocs_when_warm(|| {
                a.as_mut_slice().copy_from_slice(s0.as_slice());
                b.copy_from_slice(&b0);
                la90::posv(&mut a, &mut b).expect("posv");
            });
            assert!(posv <= 3, "posv allocated {posv} times");
        });
    }
}

#[test]
fn warm_packed_trsm_does_not_allocate() {
    // The solve sweep packs the triangle and −X into the thread's arena:
    // no workspace of its own, whatever op(A) is.
    let tri: Vec<f64> = general(256, 11);
    for (m, n) in [(96usize, 8usize), (256, 64)] {
        let mut b: Vec<f64> = Rng(12).vec(m * n);
        for cfg in budgets() {
            for uplo in [Uplo::Upper, Uplo::Lower] {
                for trans in [Trans::No, Trans::Trans, Trans::ConjTrans] {
                    let (left, diag) = (Side::Left, Diag::NonUnit);
                    let allocs = tune::with(cfg, || {
                        allocs_when_warm(|| {
                            trsm(left, uplo, trans, diag, m, n, 1.0, &tri, 256, &mut b, m)
                        })
                    });
                    assert_eq!(allocs, 0, "trsm {m}x{n} {uplo:?}/{trans:?}");
                }
            }
        }
    }
}

#[test]
fn gesv_with_many_right_hand_sides_allocates_only_its_own_workspace() {
    // `la_bench --trace 1` on `wide_rhs` reports `la90.allocs_per_gesv` =
    // 2 (the pivot vector and getrf's U12 copy): the two solves of getrs
    // add nothing. ABFT is pinned off, as `la_bench` runs: at this size
    // the checksum layer is active and keeps snapshots of its own.
    use la_core::abft::{with_policy, AbftPolicy};
    let (n, nrhs) = (256usize, 64usize);
    let a0 = Mat::from_col_major(n, n, general::<f64>(n, 13));
    let b0 = Mat::from_col_major(n, nrhs, Rng(14).vec::<f64>(n * nrhs));
    for cfg in budgets() {
        let (mut a, mut b) = (a0.clone(), b0.clone());
        let gesv = with_policy(AbftPolicy::Off, || {
            tune::with(cfg, || {
                allocs_when_warm(|| {
                    a.as_mut_slice().copy_from_slice(a0.as_slice());
                    b.as_mut_slice().copy_from_slice(b0.as_slice());
                    la90::gesv(&mut a, &mut b).expect("gesv");
                })
            })
        });
        assert!(gesv <= 2, "gesv allocated {gesv} times");
    }
}

/// Orders on both sides of every boundary the blocking rule has or had:
/// the old Cholesky crossover (128), the common one (2·nb = 64) and the
/// measured break-even (≈ 48).
const ORDERS: [usize; 8] = [47, 48, 63, 64, 65, 96, 128, 129];

/// Forces the blocked form at the default block sizes.
fn blocked_cfg() -> tune::TuneConfig {
    tune::TuneConfig {
        crossover: 0,
        ..serial_cfg()
    }
}

fn assert_close<T: Scalar>(want: &[T], got: &[T], tol: f64, what: &str) {
    for (idx, (&w, &g)) in want.iter().zip(got).enumerate() {
        let d = (w - g).abs().to_f64();
        assert!(
            d <= tol * (1.0 + w.abs().to_f64()),
            "{what}: element {idx} differs by {d}"
        );
    }
}

fn getrf_boundary<T: Scalar>(tol: f64) {
    for n in ORDERS {
        let what = format!("{}getrf n={n}", T::PREFIX);
        let a0: Vec<T> = general(n, 10 + n as u64);
        let run = |a0: &[T], cfg: Option<tune::TuneConfig>| {
            let mut a = a0.to_vec();
            let mut ipiv = vec![0i32; n];
            let info = match cfg {
                Some(cfg) => tune::with(cfg, || f77::getrf(n, n, &mut a, n, &mut ipiv)),
                None => f77::getf2(n, n, &mut a, n, &mut ipiv),
            };
            (a, ipiv, info)
        };
        let unblocked = run(&a0, None);
        let blocked = run(&a0, Some(blocked_cfg()));
        assert_eq!((unblocked.2, blocked.2), (0, 0), "{what}");
        assert_eq!(unblocked.1, blocked.1, "{what}: pivots");
        assert_close(&unblocked.0, &blocked.0, tol, &what);
        // Where the default sits: unblocked through 2·nb = 64.
        let default = run(&a0, Some(serial_cfg()));
        let same_as = if n <= 64 { &unblocked } else { &blocked };
        assert!(default.0 == same_as.0, "{what}: default route");
        // A zero column makes U(p, p) exactly zero in either form.
        for p in [2, n / 2, n - 2] {
            let mut sing = a0.clone();
            sing[p * n..(p + 1) * n].fill(T::zero());
            let (u, b) = (run(&sing, None), run(&sing, Some(blocked_cfg())));
            assert_eq!(u.2, p as i32 + 1, "{what}: unblocked info, zero column {p}");
            assert_eq!(b.2, p as i32 + 1, "{what}: blocked info, zero column {p}");
        }
    }
}

fn potrf_boundary<T: Scalar>(tol: f64) {
    for n in ORDERS {
        for uplo in [Uplo::Upper, Uplo::Lower] {
            let what = format!("{}potrf {uplo:?} n={n}", T::PREFIX);
            let stored = |i: usize, j: usize| (i <= j) == (uplo == Uplo::Upper) || i == j;
            // The other triangle holds a sentinel no factorization writes.
            let sentinel = T::from_f64(-777.0);
            let mut a0: Vec<T> = posdef(n, 20 + n as u64);
            for j in 0..n {
                for i in 0..n {
                    if !stored(i, j) {
                        a0[i + j * n] = sentinel;
                    }
                }
            }
            let run = |a0: &[T], cfg: Option<tune::TuneConfig>| {
                let mut a = a0.to_vec();
                let info = match cfg {
                    Some(cfg) => tune::with(cfg, || f77::potrf(uplo, n, &mut a, n)),
                    None => f77::potf2(uplo, n, &mut a, n),
                };
                (a, info)
            };
            let unblocked = run(&a0, None);
            let blocked = run(&a0, Some(blocked_cfg()));
            assert_eq!((unblocked.1, blocked.1), (0, 0), "{what}");
            assert_close(&unblocked.0, &blocked.0, tol, &what);
            for (form, out) in [("unblocked", &unblocked.0), ("blocked", &blocked.0)] {
                for j in 0..n {
                    for i in 0..n {
                        assert!(
                            stored(i, j) || out[i + j * n] == sentinel,
                            "{what}: {form} wrote ({i},{j}) of the other triangle"
                        );
                    }
                }
            }
            let default = run(&a0, Some(serial_cfg()));
            let same_as = if n <= 64 { &unblocked } else { &blocked };
            assert!(default.0 == same_as.0, "{what}: default route");
            // A negative diagonal entry makes the minor of order p + 1 the
            // first that is not positive.
            for p in [2, n / 2, n - 2] {
                let mut bad = a0.clone();
                bad[p + p * n] = T::from_f64(-1.0);
                let (u, b) = (run(&bad, None), run(&bad, Some(blocked_cfg())));
                assert_eq!(u.1, p as i32 + 1, "{what}: unblocked info, minor {p}");
                assert_eq!(b.1, p as i32 + 1, "{what}: blocked info, minor {p}");
            }
        }
    }
}

#[test]
fn getrf_blocked_and_unblocked_agree_around_the_crossover() {
    getrf_boundary::<f32>(1e-4);
    getrf_boundary::<f64>(1e-11);
    getrf_boundary::<C32>(1e-4);
    getrf_boundary::<C64>(1e-11);
}

#[test]
fn potrf_blocked_and_unblocked_agree_around_the_crossover() {
    potrf_boundary::<f32>(1e-4);
    potrf_boundary::<f64>(1e-11);
    potrf_boundary::<C32>(1e-4);
    potrf_boundary::<C64>(1e-11);
}
