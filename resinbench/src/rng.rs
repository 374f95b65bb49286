//! Seeded input generation: a SplitMix64 generator and a Zipf sampler.
//!
//! Every input the benchmark sends is drawn from these, so one `--seed`
//! gives one request stream on every machine and every run.

/// XOR-ed into the seed for warm-up streams, so the timed stream always
/// starts at the head of the seeded one.
pub const WARMUP_STREAM: u64 = 0x77a2_3e5d;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// An independent stream for one consumer (a client, the corpus).
    pub fn fork(&self, stream: u64) -> Rng {
        let mut r = Rng(self.0 ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }

    /// Log-uniform integer in `lo..=hi`.
    pub fn log_uniform(&mut self, lo: usize, hi: usize) -> usize {
        log_uniform_at(self.unit(), lo, hi)
    }
}

/// The log-uniform integer in `lo..=hi` at quantile `u`: each doubling
/// of size is as likely as the next, so small and large bodies both
/// appear often.
pub fn log_uniform_at(u: f64, lo: usize, hi: usize) -> usize {
    let (l, h) = ((lo as f64).ln(), ((hi + 1) as f64).ln());
    ((l + u * (h - l)).exp() as usize).clamp(lo, hi)
}

/// The `r`-th point of a Weyl sequence: equidistributed in `[0, 1)`, and
/// any run of consecutive `r` covers the interval evenly. Giving the
/// Zipf-hottest items their attributes from such a sequence makes the
/// hot set look alike for every seed, so one seed's hottest few items
/// do not decide its costs (stratified sampling).
pub fn weyl(offset: f64, step: f64, r: usize) -> f64 {
    (offset + r as f64 * step).fract()
}

/// Steps for independent Weyl sequences: fractional parts of the golden
/// ratio and of the square root of two.
pub const GOLDEN: f64 = 0.618_033_988_749_894_9;
pub const SQRT2: f64 = 0.414_213_562_373_095_1;

/// Zipf-distributed ranks `0..n` with exponent `s`, by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A seeded permutation of `0..n`, so that Zipf's hot ranks land on
/// scattered ids rather than on the first rows inserted.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        let (mut c, mut d) = (Rng::new(7).fork(1), Rng::new(7).fork(2));
        assert!((0..10).any(|_| c.next_u64() != d.next_u64()));
    }

    #[test]
    fn log_uniform_stays_in_range_and_spreads() {
        let mut r = Rng::new(1);
        let draws: Vec<usize> = (0..10_000).map(|_| r.log_uniform(32, 4096)).collect();
        assert!(draws.iter().all(|&d| (32..=4096).contains(&d)));
        // Half the mass below the geometric mean (~362 B).
        let small = draws.iter().filter(|&&d| d < 362).count();
        assert!((4_000..6_000).contains(&small), "{small}");
    }

    #[test]
    fn weyl_points_spread_evenly() {
        for offset in [0.0, 0.37, 0.99] {
            let mut first: Vec<f64> = (0..10).map(|r| weyl(offset, GOLDEN, r)).collect();
            first.sort_by(f64::total_cmp);
            // Ten consecutive points leave no gap wider than a fifth.
            assert!(first.windows(2).all(|w| w[1] - w[0] < 0.2), "{first:?}");
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(1000, 0.99);
        let mut r = Rng::new(3);
        let hits0 = (0..10_000).filter(|_| z.sample(&mut r) == 0).count();
        assert!(hits0 > 800, "{hits0}");
    }
}
