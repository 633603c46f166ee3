//! A small seeded generator (SplitMix64) for sources, targets and
//! arrival times, so every input follows from `--seed` alone.

/// SplitMix64: 64 bits of state, one multiply-xorshift chain per draw.
#[derive(Debug, Clone)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// A generator whose whole stream follows from `seed`.
    pub fn new(seed: u64) -> Rng64 {
        Rng64 {
            state: seed ^ 0x5DEE_CE66_D1CE_4E5B,
        }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound` > 0).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential draw with mean `mean`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_stay_in_range() {
        let mut a = Rng64::new(7);
        let mut b = Rng64::new(7);
        let mut c = Rng64::new(8);
        let xs: Vec<u64> = (0..100).map(|_| a.below(10)).collect();
        let ys: Vec<u64> = (0..100).map(|_| b.below(10)).collect();
        let zs: Vec<u64> = (0..100).map(|_| c.below(10)).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        assert!(xs.iter().all(|&x| x < 10));
        let mean: f64 = (0..20_000).map(|_| a.exponential(2.0)).sum::<f64>() / 20_000.0;
        assert!((mean - 2.0).abs() < 0.1, "{mean}");
    }
}
