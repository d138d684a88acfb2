//! Seeded, forkable randomness for deterministic simulation.
//!
//! Every source of randomness in a run descends from a single `u64` seed,
//! so a scenario replays identically given the same seed ([`crate::world`]
//! invariant I6 in DESIGN.md). A sub-stream is *forked* from its parent:
//! the parent's next draw, with a label hashed into it, seeds the child.
//! So a child depends on how many draws its parent made before the fork,
//! and the order of the forks is part of the seed rule
//! ([`crate::node::Streams`] fixes it for a run's nodes).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random-number generator for simulation components.
///
/// Wraps [`rand::rngs::StdRng`] seeded from a `u64`, and adds domain
/// helpers used throughout the simulator.
///
/// # Examples
///
/// ```
/// use wanacl_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: StdRng,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from(seed: u64) -> Self {
        SimRng { inner: StdRng::seed_from_u64(seed) }
    }

    /// Forks a child stream identified by `label`: the child is seeded
    /// with the parent's next 64-bit draw XOR the FNV-1a hash of the
    /// label.
    ///
    /// A fork advances the parent by one draw. So the child depends on
    /// the parent's seed, the label and every draw or fork the parent
    /// made before it, and two forks with the same label give two
    /// different streams.
    pub fn fork(&mut self, label: &str) -> SimRng {
        let base: u64 = self.inner.gen();
        SimRng::seed_from(base ^ fnv1a(label.as_bytes()))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        self.inner.gen_range(lo..hi)
    }

    /// Uniform choice of one element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "cannot choose from an empty slice");
        &items[self.range(0, items.len() as u64) as usize]
    }

    /// Sample from an exponential distribution with the given mean.
    ///
    /// Used for MTTF/MTTR failure processes and congestion burst lengths.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive and finite");
        // Inverse-CDF sampling; 1-u avoids ln(0).
        let u: f64 = self.unit();
        -mean * (1.0 - u).ln()
    }

    /// Sample a uniform float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.unit()
    }

    /// Fisher–Yates shuffle of a slice, in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, (i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }
}

/// A Zipf(s) sampler over ranks `0..n` with a precomputed CDF.
///
/// Rank 0 is the most popular. Used by workload generators: real service
/// populations are heavily skewed, which is what makes the paper's
/// host-side caching effective.
///
/// # Examples
///
/// ```
/// use wanacl_sim::rng::{SimRng, Zipf};
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = SimRng::seed_from(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with exponent `s >= 0`
    /// (`s = 0` is uniform; larger `s` is more skewed).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/NaN.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one rank");
        assert!(s >= 0.0 && s.is_finite(), "exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler is empty (never true; `new` requires n > 0).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The probability mass of `rank`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn mass(&self, rank: usize) -> f64 {
        let prev = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - prev
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// FNV-1a hash, used only to mix fork labels into seeds.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_streams_are_deterministic() {
        let mut p1 = SimRng::seed_from(99);
        let mut p2 = SimRng::seed_from(99);
        let mut c1 = p1.fork("net");
        let mut c2 = p2.fork("net");
        assert_eq!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn a_fork_draws_from_its_parent() {
        let mut parent = SimRng::seed_from(5);
        let (mut first, mut second) = (parent.fork("node"), parent.fork("node"));
        assert_ne!(first.next_u64(), second.next_u64(), "a second fork with the same label differs");
        let mut root = SimRng::seed_from(5);
        let draws = [root.next_u64(), root.next_u64()];
        let mut again = SimRng::seed_from(5);
        again.fork("node");
        assert_eq!(
            again.fork("node").next_u64(),
            SimRng::seed_from(draws[1] ^ fnv1a(b"node")).next_u64(),
            "the child's seed is the parent's next draw XOR the label's hash"
        );
    }

    #[test]
    fn fork_labels_distinguish_streams() {
        let mut parent = SimRng::seed_from(5);
        let mut net = parent.fork("net");
        let mut parent2 = SimRng::seed_from(5);
        let mut fault = parent2.fork("fault");
        assert_ne!(net.next_u64(), fault.next_u64());
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = SimRng::seed_from(11);
        let hits = (0..10_000).filter(|_| rng.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut rng = SimRng::seed_from(13);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(5.0)).sum();
        let mean = sum / n as f64;
        assert!((4.8..5.2).contains(&mean), "mean={mean}");
    }

    #[test]
    fn range_bounds_hold() {
        let mut rng = SimRng::seed_from(17);
        for _ in 0..1_000 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn range_rejects_empty() {
        SimRng::seed_from(0).range(5, 5);
    }

    #[test]
    fn choose_covers_all_elements() {
        let mut rng = SimRng::seed_from(19);
        let items = [1, 2, 3];
        let mut seen = [false; 3];
        for _ in 0..100 {
            seen[*rng.choose(&items) as usize - 1] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::seed_from(23);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let zipf = Zipf::new(4, 0.0);
        for rank in 0..4 {
            assert!((zipf.mass(rank) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn zipf_mass_decreases_with_rank() {
        let zipf = Zipf::new(10, 1.2);
        for rank in 1..10 {
            assert!(zipf.mass(rank) < zipf.mass(rank - 1));
        }
        let total: f64 = (0..10).map(|r| zipf.mass(r)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_samples_match_mass() {
        let zipf = Zipf::new(5, 1.0);
        let mut rng = SimRng::seed_from(31);
        let mut counts = [0u32; 5];
        let trials = 100_000;
        for _ in 0..trials {
            counts[zipf.sample(&mut rng)] += 1;
        }
        for (rank, &count) in counts.iter().enumerate() {
            let observed = count as f64 / trials as f64;
            assert!(
                (observed - zipf.mass(rank)).abs() < 0.01,
                "rank {rank}: {observed} vs {}",
                zipf.mass(rank)
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }

    #[test]
    fn uniform_bounds_hold() {
        let mut rng = SimRng::seed_from(29);
        for _ in 0..1_000 {
            let v = rng.uniform(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&v));
        }
    }
}
