//! Seeded input generation. Every input the program receives comes from
//! here, so one seed always gives the same inputs.

/// SplitMix64: small, fast, and identical on every platform.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a named stream, so that adding a draw
    /// to one input does not shift another.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
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
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with mean 1.
    pub fn exp(&mut self) -> f64 {
        -(1.0 - self.next_f64()).ln()
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// Send times in seconds of a Poisson process of `rate` per second over
/// `[0, duration)`.
pub fn poisson_times(rng: &mut Rng, rate: f64, duration: f64) -> Vec<f64> {
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * duration * 1.1) as usize + 16);
    loop {
        t += rng.exp() / rate;
        if t >= duration {
            return out;
        }
        out.push(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a: Vec<u64> = (0..64)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..64)
            .scan(Rng::new(7, 1), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..64)
            .scan(Rng::new(8, 1), |r, _| Some(r.next_u64()))
            .collect();
        let d: Vec<u64> = (0..64)
            .scan(Rng::new(7, 2), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        // Pinned first draw: a change to the generator changes every input.
        assert_eq!(Rng::new(0, 0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn poisson_schedule_is_deterministic_with_the_right_rate() {
        let x = poisson_times(&mut Rng::new(3, 9), 10_000.0, 2.0);
        let y = poisson_times(&mut Rng::new(3, 9), 10_000.0, 2.0);
        assert_eq!(x, y);
        assert!(x.windows(2).all(|w| w[0] < w[1]));
        assert!(x.iter().all(|&t| (0.0..2.0).contains(&t)));
        let n = x.len() as f64;
        assert!((n - 20_000.0).abs() < 5.0 * 20_000f64.sqrt(), "count {n}");
    }

    #[test]
    fn range_stays_inside_bounds() {
        let mut r = Rng::new(1, 1);
        for _ in 0..1000 {
            let k = r.range(10, 13);
            assert!((10..=13).contains(&k));
        }
    }
}
