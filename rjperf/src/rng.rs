//! SplitMix64: the benchmark's only source of randomness, seeded from
//! `--seed`, so the same seed gives the same inputs.

/// A SplitMix64 generator.
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of one seed; distinct `stream` values
    /// give independent sequences.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A depth near `k`: uniform in `[0.8 k, 1.25 k]` (1 or 2 for
    /// `k = 1`). Jittered depths keep cost distributions smooth, so a
    /// percentile never sits on the edge between two query classes.
    pub fn near(&mut self, k: usize) -> usize {
        let (lo, hi) = if k <= 1 {
            (1, 2)
        } else {
            (k * 4 / 5, k * 5 / 4)
        };
        lo + self.below(hi - lo + 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7, 1);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7, 1);
        assert!(a.iter().all(|&x| x == r.next_u64()));
        assert_ne!(Rng::new(7, 2).next_u64(), a[0]);
        let mut v: Vec<u32> = (0..50).collect();
        Rng::new(3, 0).shuffle(&mut v);
        v.sort_unstable();
        assert_eq!(v, (0..50).collect::<Vec<_>>());
    }
}
