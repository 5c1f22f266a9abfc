//! Seeded input generation, kept inside the benchmark so the inputs depend
//! only on `--seed` and never on generator code in the program under test.

use invector_graph::EdgeList;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one input stream: `stream` separates the streams a
    /// single `--seed` feeds.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..hi`.
    pub fn range_i32(&mut self, lo: i32, hi: i32) -> i32 {
        lo + self.below((hi - lo) as u64) as i32
    }
}

/// `n` keys over `0..keys` with `P(rank r) ∝ 1 / r^exponent`, key 0 the
/// hottest — the serving workload's distribution (exponent 0.5).
pub fn zipf_keys(rng: &mut Rng, n: usize, keys: usize, exponent: f64) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(keys);
    let mut acc = 0.0f64;
    for r in 1..=keys {
        acc += 1.0 / (r as f64).powf(exponent);
        cdf.push(acc);
    }
    (0..n)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c < u).min(keys - 1) as u32
        })
        .collect()
}

/// An R-MAT power-law graph (`a, b, c` quadrant probabilities, vertices
/// clamped to `vertices` by rejection), unit weights. Each quadrant choice
/// takes 16 random bits, four per draw.
pub fn rmat(rng: &mut Rng, vertices: usize, edges: usize, a: f64, b: f64, c: f64) -> EdgeList {
    let levels = vertices.next_power_of_two().trailing_zeros();
    let cut = |p: f64| (p * 65536.0) as u64;
    let (ca, cab, cabc) = (cut(a), cut(a + b), cut(a + b + c));
    let mut src = Vec::with_capacity(edges);
    let mut dst = Vec::with_capacity(edges);
    while src.len() < edges {
        let (mut row, mut col) = (0usize, 0usize);
        let mut bits = 0u64;
        for (i, level) in (0..levels).rev().enumerate() {
            if i % 4 == 0 {
                bits = rng.next_u64();
            }
            let r = bits & 0xFFFF;
            bits >>= 16;
            let (dr, dc) = if r < ca {
                (0, 0)
            } else if r < cab {
                (0, 1)
            } else if r < cabc {
                (1, 0)
            } else {
                (1, 1)
            };
            row |= dr << level;
            col |= dc << level;
        }
        if row < vertices && col < vertices {
            src.push(row as i32);
            dst.push(col as i32);
        }
    }
    let weight = vec![1.0; edges];
    EdgeList::from_arrays(vertices, src, dst, weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = zipf_keys(&mut Rng::new(1, 0), 1000, 64, 0.5);
        assert_eq!(a, zipf_keys(&mut Rng::new(1, 0), 1000, 64, 0.5));
        assert_ne!(a, zipf_keys(&mut Rng::new(2, 0), 1000, 64, 0.5));
        assert_ne!(a, zipf_keys(&mut Rng::new(1, 1), 1000, 64, 0.5));
        assert!(a.iter().all(|&k| k < 64));
    }

    #[test]
    fn zipf_head_is_hotter_than_tail() {
        let keys = zipf_keys(&mut Rng::new(7, 0), 100_000, 4096, 0.5);
        let head = keys.iter().filter(|&&k| k < 1024).count();
        // P(rank <= 1024 of 4096) = sqrt(1024/4096) = 1/2 for exponent 0.5.
        assert!((45_000..55_000).contains(&head), "{head}");
    }

    #[test]
    fn rmat_stays_in_range_and_is_skewed() {
        let g = rmat(&mut Rng::new(3, 0), 1000, 20_000, 0.57, 0.19, 0.19);
        assert_eq!(g.num_edges(), 20_000);
        let deg = g.in_degrees();
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 10.0 * 20.0, "hub in-degree {max} vs mean 20");
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut r = Rng::new(5, 0);
        for _ in 0..10_000 {
            assert!(r.below(7) < 7);
            assert!((-3..4).contains(&r.range_i32(-3, 4)));
            assert!((0.0..1.0).contains(&r.unit()));
        }
    }
}
