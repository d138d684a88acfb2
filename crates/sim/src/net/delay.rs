//! Propagation-delay models for the simulated WAN.

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::SimDuration;

/// Samples a one-way propagation delay for a (sender, receiver) pair.
pub trait DelayModel {
    /// Draws the delay for one message.
    fn sample(&mut self, from: NodeId, to: NodeId, rng: &mut SimRng) -> SimDuration;
}

/// A constant one-way delay.
#[derive(Debug, Clone, Copy)]
pub struct ConstantDelay {
    delay: SimDuration,
}

impl ConstantDelay {
    /// Creates the model.
    pub fn new(delay: SimDuration) -> Self {
        ConstantDelay { delay }
    }
}

impl DelayModel for ConstantDelay {
    fn sample(&mut self, _from: NodeId, _to: NodeId, _rng: &mut SimRng) -> SimDuration {
        self.delay
    }
}

/// Uniform one-way delay in `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct UniformDelay {
    lo: SimDuration,
    hi: SimDuration,
}

impl UniformDelay {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn new(lo: SimDuration, hi: SimDuration) -> Self {
        assert!(lo < hi, "uniform delay needs lo < hi");
        UniformDelay { lo, hi }
    }
}

impl DelayModel for UniformDelay {
    fn sample(&mut self, _from: NodeId, _to: NodeId, rng: &mut SimRng) -> SimDuration {
        SimDuration::from_nanos(rng.range(self.lo.as_nanos(), self.hi.as_nanos()))
    }
}

/// Shifted-exponential delay: a fixed propagation base plus an exponential
/// queueing tail — a standard first-order model of WAN latency.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialDelay {
    base: SimDuration,
    tail_mean: SimDuration,
}

impl ExponentialDelay {
    /// Creates the model. A zero `tail_mean` degenerates to a constant.
    pub fn new(base: SimDuration, tail_mean: SimDuration) -> Self {
        ExponentialDelay { base, tail_mean }
    }
}

impl DelayModel for ExponentialDelay {
    fn sample(&mut self, _from: NodeId, _to: NodeId, rng: &mut SimRng) -> SimDuration {
        if self.tail_mean == SimDuration::ZERO {
            return self.base;
        }
        let tail = rng.exponential(self.tail_mean.as_secs_f64());
        self.base + SimDuration::from_secs_f64(tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn constant_is_constant() {
        let mut m = ConstantDelay::new(SimDuration::from_millis(5));
        let mut rng = SimRng::seed_from(1);
        for _ in 0..10 {
            assert_eq!(m.sample(n(0), n(1), &mut rng), SimDuration::from_millis(5));
        }
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut m = UniformDelay::new(SimDuration::from_millis(1), SimDuration::from_millis(3));
        let mut rng = SimRng::seed_from(2);
        for _ in 0..500 {
            let d = m.sample(n(0), n(1), &mut rng);
            assert!(d >= SimDuration::from_millis(1) && d < SimDuration::from_millis(3));
        }
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_rejects_empty_range() {
        let _ = UniformDelay::new(SimDuration::from_millis(3), SimDuration::from_millis(3));
    }

    #[test]
    fn exponential_never_below_base() {
        let base = SimDuration::from_millis(20);
        let mut m = ExponentialDelay::new(base, SimDuration::from_millis(30));
        let mut rng = SimRng::seed_from(3);
        for _ in 0..500 {
            assert!(m.sample(n(0), n(1), &mut rng) >= base);
        }
    }

    #[test]
    fn exponential_zero_tail_is_constant() {
        let mut m = ExponentialDelay::new(SimDuration::from_millis(7), SimDuration::ZERO);
        let mut rng = SimRng::seed_from(4);
        assert_eq!(m.sample(n(0), n(1), &mut rng), SimDuration::from_millis(7));
    }

    #[test]
    fn exponential_mean_roughly_base_plus_tail() {
        let mut m =
            ExponentialDelay::new(SimDuration::from_millis(10), SimDuration::from_millis(40));
        let mut rng = SimRng::seed_from(5);
        let k = 20_000;
        let total: f64 = (0..k).map(|_| m.sample(n(0), n(1), &mut rng).as_secs_f64()).sum();
        let mean_ms = total / k as f64 * 1e3;
        assert!((47.0..53.0).contains(&mean_ms), "mean={mean_ms}ms");
    }
}
