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
//! * The same allocator refuses, on request, every allocation from a given
//!   size on: the task graph's workspace is then declined, and
//!   `getrf`/`potrf`/`geqrf` fall back to the blocked loop (or report
//!   `INFO_NO_WORKSPACE`) instead of aborting the process. It also counts
//!   bytes, which bounds what a graph takes besides `A`.
//! * Around the crossover (n = 47 … 193, four types) the default route is
//!   bitwise the unblocked form up to the crossover, two panels — `getf2`
//!   up to n = 64; for `potrf` the recursive panel `potrf2`, whole, up to
//!   n = 192 — and above it the blocked loop at the default NB, read off
//!   the call's span tree; the unblocked form and a blocked one with
//!   narrow panels agree to the `par_equiv` tolerances, report the same
//!   `info` wherever the first zero pivot / non-positive minor sits, and
//!   `potrf` never touches the triangle it was not given.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use la_blas::{gemm, trmm, trmv, trsm, trsv};
use la_core::probe::{self, flops, Span};
use la_core::{tune, Diag, Mat, ProbePolicy, RealScalar, Scalar, Side, Trans, Uplo, C32, C64};
use la_lapack as f77;

thread_local! {
    // Const-initialised and without a destructor, so reading them from
    // inside the allocator neither allocates nor registers anything.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
    /// Requests of this many bytes or more fail on this thread.
    static REFUSE_FROM: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// A refused request: the null pointer an exhausted allocator returns.
fn refused(size: usize) -> bool {
    size >= REFUSE_FROM.with(Cell::get)
}

/// Counts one granted request of `size` bytes.
fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|b| b.set(b.get() + size));
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged or returns null (a
// refusal the `GlobalAlloc` contract allows); the only additions are
// thread-local reads and a counter bump that cannot allocate (see
// `ALLOCS`).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if refused(l.size()) {
            return std::ptr::null_mut();
        }
        count(l.size());
        System.alloc(l)
    }
    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        if refused(l.size()) {
            return std::ptr::null_mut();
        }
        count(l.size());
        System.alloc_zeroed(l)
    }
    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        if refused(new_size) {
            return std::ptr::null_mut();
        }
        count(new_size);
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

/// Bytes `f` requests on this thread once warm.
fn bytes_when_warm(mut f: impl FnMut()) -> usize {
    f();
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
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
    // `la_bench --trace 1` on `small_direct` reports 1 (gesv: the pivot
    // vector) and 1 (posv: potrf's leaf scratch); the bounds are 4 and 3.
    // An Upper Cholesky step solves in place, so posv's one request is
    // the leaf scratch, at most 31 elements.
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
            let bytes = bytes_when_warm(|| {
                a.as_mut_slice().copy_from_slice(s0.as_slice());
                b.copy_from_slice(&b0);
                la90::posv(&mut a, &mut b).expect("posv");
            });
            let leaf = 31 * std::mem::size_of::<f64>();
            assert!(
                bytes <= leaf,
                "posv took {bytes} bytes, over the leaf scratch"
            );
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
    // 1 (the pivot vector): getrf takes no workspace and the two solves of
    // getrs add nothing. ABFT is pinned off, as `la_bench` runs: at this size
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
        assert!(gesv <= 1, "gesv allocated {gesv} times");
    }
}

/// Runs `f` with every allocation of `bytes` or more refused on this
/// thread.
fn refusing<R>(bytes: usize, f: impl FnOnce() -> R) -> R {
    REFUSE_FROM.with(|r| r.set(bytes));
    let out = f();
    REFUSE_FROM.with(|r| r.set(usize::MAX));
    out
}

/// The task graph factors `A` in place: besides it, a graph takes about
/// one block column of scratch per block of `A`, fallibly, before its first
/// task runs — at most 0.6·n² elements, measured on the calling thread in a
/// warm call. With that workspace refused, `potrf` and `geqrf` at two
/// threads run the serial blocked loop instead — the one-thread call's
/// bits. With the loop's own workspace refused as well, Lower `potrf` and
/// `geqrf` report `INFO_NO_WORKSPACE` and leave `A` untouched; Upper
/// `potrf`'s loop solves in place and takes only its leaf scratch, so it
/// still gives the one-thread bits. `getrf` takes no workspace, so its
/// graph runs and gives its own bits at both refusals. Nothing aborts.
#[test]
fn a_refused_graph_workspace_falls_back_to_the_blocked_loop() {
    use la_core::abft::{with_policy, AbftPolicy};
    let tile = 48usize;
    // Four-wide panels: every workspace of the blocked loops stays under
    // one block's 18 KiB (the largest, `geqrf`'s at n = 288, is 9 KiB).
    let budget = |threads: usize| tune::TuneConfig {
        max_threads: threads,
        oversubscribe: true,
        tile_nb: tile,
        nb_getrf: 4,
        nb_potrf: 4,
        nb_geqrf: 4,
        ..tune::TuneConfig::defaults()
    };
    let one_tile = tile * tile * std::mem::size_of::<f64>();
    // Each run returns `info` and the output besides `A`: pivots or `tau`.
    type Run = fn(usize, &mut [f64]) -> (i32, Vec<f64>);
    let routines: [(&str, usize, Run); 4] = [
        ("getrf", 4, |n, a| {
            let mut piv = vec![0i32; n];
            let info = f77::getrf(n, n, a, n, &mut piv);
            (info, piv.iter().map(|&p| p as f64).collect())
        }),
        ("potrf", 4, |n, a| {
            (f77::potrf(Uplo::Lower, n, a, n), Vec::new())
        }),
        ("potrf upper", 4, |n, a| {
            (f77::potrf(Uplo::Upper, n, a, n), Vec::new())
        }),
        ("geqrf", 6, |n, a| {
            let mut tau = vec![0.0; n];
            (f77::geqrf(n, n, a, n, &mut tau), tau)
        }),
    ];
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (name, tiles, run) in routines {
        // The graph's threshold for this routine.
        let n = tiles * tile;
        let a0: Vec<f64> = match name {
            "geqrf" | "getrf" => general(n, 31),
            _ => posdef(n, 31),
        };
        let at = |threads: usize, a: &mut Vec<f64>| {
            with_policy(AbftPolicy::Off, || {
                tune::with(budget(threads), || run(n, a))
            })
        };
        // The one-thread call, which also warms this thread's packing
        // arenas for the blocked loop's shapes.
        let mut serial = a0.clone();
        let (info, serial_extra) = at(1, &mut serial);
        assert_eq!(info, 0, "{name}: one thread");

        let mut graph_a = a0.clone();
        let mut graph = || {
            graph_a.copy_from_slice(&a0);
            let (info, extra) = at(2, &mut graph_a);
            assert_eq!(info, 0, "{name}: two threads");
            extra
        };
        graph();
        let before = BYTES.with(Cell::get);
        let graph_extra = graph();
        let taken = BYTES.with(Cell::get) - before;
        let limit = 0.6 * (n * n * std::mem::size_of::<f64>()) as f64;
        assert!(
            taken as f64 <= limit,
            "{name}: the graph took {taken} bytes, over 0.6·n² elements"
        );

        // `getrf` takes no workspace: refused or not, its graph runs.
        let (want, want_extra) = if name == "getrf" {
            (&graph_a, &graph_extra)
        } else {
            (&serial, &serial_extra)
        };
        let mut a = a0.clone();
        let (info, extra) = refusing(one_tile, || at(2, &mut a));
        assert_eq!(info, 0, "{name}: two threads, workspace refused");
        assert!(
            bits(&a) == bits(want) && bits(&extra) == bits(want_extra),
            "{name}: the fallback is not the one-thread blocked loop"
        );

        let mut a = a0.clone();
        let (info, extra) = refusing(4096, || at(2, &mut a));
        if name == "getrf" || name == "potrf upper" {
            assert_eq!(info, 0, "{name}: everything refused");
            assert!(
                bits(&a) == bits(want) && bits(&extra) == bits(want_extra),
                "{name}: a refused call is not the unrefused fallback"
            );
            continue;
        }
        assert_eq!(info, f77::INFO_NO_WORKSPACE, "{name}: everything refused");
        assert!(bits(&a) == bits(&a0), "{name}: a refused call changed A");
    }
}

/// Orders on both sides of every boundary the blocking rule has or had:
/// the measured break-even (≈ 48), the LU crossover (2·32 = 64), the old
/// Cholesky crossover (128) and the Cholesky one (2·96 = 192).
const ORDERS: [usize; 11] = [47, 48, 63, 64, 65, 96, 128, 129, 191, 192, 193];

/// The blocked form, with panels narrow enough that every order in
/// [`ORDERS`] is more than two of them.
fn blocked_cfg() -> tune::TuneConfig {
    tune::TuneConfig {
        nb_getrf: 16,
        nb_potrf: 16,
        ..serial_cfg()
    }
}

/// `f`'s result and the span tree of the one call it makes under
/// [`ProbePolicy::Spans`]. The probe's roots are process-wide, so the
/// tests that read them take turns.
fn traced<R>(f: impl FnOnce() -> R) -> (R, Span) {
    static TURN: Mutex<()> = Mutex::new(());
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    probe::reset();
    let out = probe::with_policy(ProbePolicy::Spans, f);
    let mut roots = probe::snapshot().spans;
    assert_eq!(roots.len(), 1, "one call, one span tree");
    (out, roots.remove(0))
}

/// The flops of `span`'s children named `routine`, in call order.
fn child_flops(span: &Span, routine: &str) -> Vec<u64> {
    span.children
        .iter()
        .filter(|c| c.routine == routine)
        .map(|c| c.flops)
        .collect()
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
        // Where the default sits: `getf2` through 2·nb = 64; above, the
        // blocked loop at nb = 32, whose every panel with columns right of
        // it makes one `lu_step` on the rest.
        let (default, span) = traced(|| run(&a0, Some(serial_cfg())));
        let steps = child_flops(&span, "lu_step");
        if n <= 64 {
            assert!(default.0 == unblocked.0, "{what}: default route");
            assert!(
                steps.is_empty(),
                "{what}: the default took the blocked loop"
            );
        } else {
            let loop_32: Vec<u64> = (32..n)
                .step_by(32)
                .map(|j| flops::trsm(Side::Left, 32, n - j) + flops::gemm(n - j, n - j, 32))
                .collect();
            assert_eq!(steps, loop_32, "{what}: default route");
        }
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
                    None => f77::potrf2(uplo, n, &mut a, n),
                };
                (a, info)
            };
            // The blocked form with narrow panels: at the default NB (96)
            // every order here up to 192 is one recursive panel.
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
            let (default, span) = traced(|| run(&a0, Some(serial_cfg())));
            // Where the default sits: `potrf2` whole through two panels.
            let nb = tune::with(serial_cfg(), || f77::ilaenv_nb("potrf", n));
            if n <= 2 * nb {
                assert!(default.0 == unblocked.0, "{what}: default route");
            } else {
                // The blocked loop at NB: each block but the last ends in
                // one `chol_step` of depth nb on the rest, the first the
                // largest of the call. A whole `potrf2` first splits past
                // 96 from n = 193 on.
                let step = |rest: usize| flops::trsm(Side::Left, nb, rest) + flops::syrk(rest, nb);
                let steps = child_flops(&span, "chol_step");
                for rest in (nb..n).step_by(nb).map(|j| n - j) {
                    assert!(
                        steps.contains(&step(rest)),
                        "{what}: no depth-{nb} step on the last {rest} columns"
                    );
                }
                assert_eq!(steps.iter().max(), Some(&step(n - nb)), "{what}");
            }
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
