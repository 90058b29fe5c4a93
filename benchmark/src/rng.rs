//! The benchmark's own seeded generator (SplitMix64), so request programs
//! depend on `--seed` and on nothing the measured workspace might change.

/// SplitMix64: deterministic for a seed; not cryptographic.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a run: every per-connection and
    /// per-workload stream derives from the run seed and its own tag.
    pub fn stream(seed: u64, tag: &str) -> Rng {
        let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
        for byte in tag.bytes() {
            state = mix(state ^ u64::from(byte));
        }
        Rng(state)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A rank in `0..n` skewed towards 0 (density ∝ u², the same shape the
    /// dataset generator uses for popular entities).
    pub fn skewed(&mut self, n: usize) -> usize {
        let u = self.unit();
        ((n as f64 * u * u) as usize).min(n - 1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finaliser; also used to spread row hashes before summing.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_by_tag() {
        let a: Vec<u64> = (0..4).map(|_| Rng::stream(7, "a").next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(
            Rng::stream(7, "a").next_u64(),
            Rng::stream(7, "b").next_u64()
        );
        assert_ne!(
            Rng::stream(7, "a").next_u64(),
            Rng::stream(8, "a").next_u64()
        );
    }

    #[test]
    fn below_and_skewed_stay_in_range() {
        let mut rng = Rng::stream(1, "range");
        for n in [1usize, 2, 17, 1000] {
            for _ in 0..200 {
                assert!(rng.below(n) < n);
                assert!(rng.skewed(n) < n);
            }
        }
    }
}
