//! Seeded inputs. Everything the library sees is generated here from
//! `--seed`; nothing comes from `la_bench`'s lib helpers (its `lagge`
//! matrices cost seconds per n = 1024 system, and an edit there would
//! silently change this benchmark's inputs).

use la_core::Mat;

/// SplitMix64. Integer-only state update, so generation cost does not
/// swing with the host's FMA contention the way the measured code does.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[-1, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One linear system `A·X = B` with the known solution `X = 1`.
pub struct System {
    pub a: Mat<f64>,
    pub b: Mat<f64>,
}

/// The distinct systems a run cycles through, and the order it visits
/// them in.
pub struct Pool {
    pub general: Vec<System>,
    pub spd: Vec<System>,
    pub order: Vec<usize>,
}

/// General matrix, entries uniform in `[-1, 1)`: no structure, so partial
/// pivoting really swaps rows.
pub fn general(rng: &mut SplitMix64, n: usize) -> Mat<f64> {
    Mat::from_fn(n, n, |_, _| rng.unit())
}

/// Symmetric random plus `n·I`: strictly diagonally dominant, hence
/// positive definite, at O(n²) cost.
pub fn spd(rng: &mut SplitMix64, n: usize) -> Mat<f64> {
    let mut a = Mat::zeros(n, n);
    for j in 0..n {
        for i in 0..=j {
            let v = rng.unit();
            a[(i, j)] = v;
            a[(j, i)] = v;
        }
        a[(j, j)] += n as f64;
    }
    a
}

/// `B = A·1` in every one of `nrhs` columns.
pub fn rhs_ones(a: &Mat<f64>, nrhs: usize) -> Mat<f64> {
    let n = a.nrows();
    let mut sums = vec![0.0; n];
    for j in 0..n {
        for (s, v) in sums.iter_mut().zip(a.col(j)) {
            *s += *v;
        }
    }
    Mat::from_fn(n, nrhs, |i, _| sums[i])
}

pub fn pool(seed: u64, n: usize, nrhs: usize, count: usize) -> Pool {
    let mut rng = SplitMix64::new(seed);
    let system = |a: Mat<f64>| System {
        b: rhs_ones(&a, nrhs),
        a,
    };
    let mut general_systems = Vec::with_capacity(count);
    let mut spd_systems = Vec::with_capacity(count);
    for _ in 0..count {
        general_systems.push(system(general(&mut rng, n)));
        spd_systems.push(system(spd(&mut rng, n)));
    }
    // Fisher–Yates: the visiting order is part of the seeded input.
    let mut order: Vec<usize> = (0..count).collect();
    for i in (1..count).rev() {
        order.swap(i, rng.below(i + 1));
    }
    Pool {
        general: general_systems,
        spd: spd_systems,
        order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (p, q, r) = (pool(7, 12, 3, 5), pool(7, 12, 3, 5), pool(8, 12, 3, 5));
        assert_eq!(p.order, q.order);
        for i in 0..5 {
            assert_eq!(p.general[i].a.as_slice(), q.general[i].a.as_slice());
            assert_eq!(p.spd[i].b.as_slice(), q.spd[i].b.as_slice());
        }
        assert_ne!(p.general[0].a.as_slice(), r.general[0].a.as_slice());
        let mut sorted = p.order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, [0, 1, 2, 3, 4]);
    }

    #[test]
    fn matrices_have_the_documented_structure() {
        let mut rng = SplitMix64::new(1);
        let g = general(&mut rng, 40);
        assert!(g.as_slice().iter().all(|v| (-1.0..1.0).contains(v)));
        let s = spd(&mut rng, 40);
        for j in 0..40 {
            let off: f64 = (0..40).filter(|&i| i != j).map(|i| s[(i, j)].abs()).sum();
            assert!(s[(j, j)] > off, "column {j} not diagonally dominant");
            for i in 0..40 {
                assert_eq!(s[(i, j)], s[(j, i)]);
            }
        }
        let b = rhs_ones(&g, 2);
        let row0: f64 = (0..40).map(|j| g[(0, j)]).sum();
        assert!((b[(0, 1)] - row0).abs() < 1e-12);
    }
}
