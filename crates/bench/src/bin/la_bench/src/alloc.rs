//! Counting allocator: how many heap allocations, and how many bytes, one
//! call into the stack makes on any thread (a served job allocates on the
//! worker). Counts are exact and repeat run to run, unlike timings. It is
//! armed only around the probed call in a traced run; disarmed it costs one
//! relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    // Relaxed: the counters are statistics and publish no other data; the
    // probed call has returned (and its worker hand-off synchronised)
    // before they are read.
    if ARMED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics and
// never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation calls and bytes requested while `f` ran, on all threads.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

/// Runs `f` with the counter armed. Not reentrant, and meant for one
/// caller at a time: the traced run is its only user.
pub fn count<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    CALLS.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    ARMED.store(true, Ordering::Relaxed);
    let r = f();
    ARMED.store(false, Ordering::Relaxed);
    let n = AllocCount {
        calls: CALLS.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
    };
    (r, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_calls_and_bytes_exactly() {
        // Another test thread may allocate while the counter is armed,
        // which only ever adds; the minimum over a few tries is the exact
        // count, as it is for the benchmark's own replays.
        let exact = (0..8)
            .map(|_| {
                count(|| {
                    let a = std::hint::black_box(vec![0u8; 1000]);
                    let b = std::hint::black_box(Box::new([0u64; 4]));
                    let mut c: Vec<u32> = Vec::with_capacity(10);
                    c.push(1);
                    c.reserve_exact(90); // realloc to 91 elements
                    std::hint::black_box((a, b, c));
                })
                .1
            })
            .min()
            .unwrap();
        assert_eq!(
            exact,
            AllocCount {
                calls: 4,
                bytes: 1000 + 32 + 40 + 91 * 4
            }
        );
    }
}
