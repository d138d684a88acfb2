//! The simulated wide-area network.
//!
//! §2.2 of the paper assumes an *unreliable* point-to-point / multicast
//! network; §2.1 assumes host failures are rare but temporary partitions —
//! mostly congestion-induced — are frequent. This module models exactly
//! those observables:
//!
//! * per-link propagation delay ([`delay::DelayModel`]),
//! * independent message loss,
//! * stochastic connectivity overlays ([`partition::PartitionOracle`]):
//!   congestion bursts (Gilbert–Elliott), mobile duty cycles, and the
//!   i.i.d. pairwise-inaccessibility model of the paper's §4.1 analysis.
//!
//! The composition is [`WanNet`]: `verdict = oracle ∘ loss ∘ delay`, the
//! WAN's steady state. Scripted and injected events — cuts, loss and
//! duplication bursts, delay spikes — are [`crate::nemesis::Fault`]s,
//! layered on top by [`crate::nemesis::NemesisNet`].

pub mod delay;
pub mod partition;

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

use delay::DelayModel;
use partition::PartitionOracle;

/// Why a message was not delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The pair is currently disconnected by the partition oracle.
    Partitioned,
    /// Random message loss on an otherwise connected path.
    Loss,
    /// The destination node was down at delivery time.
    DestinationDown,
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DropReason::Partitioned => write!(f, "partitioned"),
            DropReason::Loss => write!(f, "loss"),
            DropReason::DestinationDown => write!(f, "destination down"),
        }
    }
}

/// Outcome of attempting to transmit one message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Deliver after the given propagation delay.
    Deliver(SimDuration),
    /// Deliver twice (networks duplicate as well as drop; protocols must
    /// be idempotent).
    Duplicate(SimDuration, SimDuration),
    /// Silently drop (the sender learns nothing, as on a real WAN).
    Drop(DropReason),
}

/// A network model decides the fate of every message.
///
/// Implementations may keep per-link state (e.g. congestion bursts) and may
/// consult the provided RNG; both must be used deterministically.
pub trait NetModel {
    /// Decides delivery of a message sent by `from` to `to` at real time
    /// `now`.
    fn transmit(&mut self, from: NodeId, to: NodeId, now: SimTime, rng: &mut SimRng) -> Verdict;
}

/// A perfect network: constant delay, no loss, never partitioned.
///
/// # Examples
///
/// ```
/// use wanacl_sim::net::{NetModel, PerfectNet, Verdict};
/// use wanacl_sim::node::NodeId;
/// use wanacl_sim::rng::SimRng;
/// use wanacl_sim::time::{SimDuration, SimTime};
///
/// let mut net = PerfectNet::new(SimDuration::from_millis(10));
/// let mut rng = SimRng::seed_from(0);
/// let v = net.transmit(NodeId::from_index(0), NodeId::from_index(1), SimTime::ZERO, &mut rng);
/// assert_eq!(v, Verdict::Deliver(SimDuration::from_millis(10)));
/// ```
#[derive(Debug, Clone)]
pub struct PerfectNet {
    delay: SimDuration,
}

impl PerfectNet {
    /// Creates a perfect network with the given one-way delay.
    pub fn new(delay: SimDuration) -> Self {
        PerfectNet { delay }
    }
}

impl NetModel for PerfectNet {
    fn transmit(&mut self, _from: NodeId, _to: NodeId, _now: SimTime, _rng: &mut SimRng) -> Verdict {
        Verdict::Deliver(self.delay)
    }
}

/// The full WAN model: a delay distribution, independent loss, and a
/// partition overlay.
///
/// Built with [`WanNetBuilder`] (C-BUILDER).
pub struct WanNet {
    delay: Box<dyn DelayModel>,
    loss_prob: f64,
    oracle: Box<dyn PartitionOracle>,
}

impl std::fmt::Debug for WanNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WanNet").field("loss_prob", &self.loss_prob).finish_non_exhaustive()
    }
}

impl WanNet {
    /// Starts building a WAN model.
    pub fn builder() -> WanNetBuilder {
        WanNetBuilder::default()
    }
}

impl NetModel for WanNet {
    fn transmit(&mut self, from: NodeId, to: NodeId, now: SimTime, rng: &mut SimRng) -> Verdict {
        if !self.oracle.connected(from, to, now, rng) {
            return Verdict::Drop(DropReason::Partitioned);
        }
        if rng.chance(self.loss_prob) {
            return Verdict::Drop(DropReason::Loss);
        }
        Verdict::Deliver(self.delay.sample(from, to, rng))
    }
}

/// Builder for [`WanNet`].
///
/// # Examples
///
/// ```
/// use wanacl_sim::net::WanNet;
/// use wanacl_sim::time::SimDuration;
///
/// let net = WanNet::builder()
///     .uniform_delay(SimDuration::from_millis(20), SimDuration::from_millis(80))
///     .loss(0.01)
///     .build();
/// let _ = net;
/// ```
pub struct WanNetBuilder {
    delay: Box<dyn DelayModel>,
    loss_prob: f64,
    oracle: Box<dyn PartitionOracle>,
}

impl std::fmt::Debug for WanNetBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WanNetBuilder").field("loss_prob", &self.loss_prob).finish_non_exhaustive()
    }
}

impl Default for WanNetBuilder {
    fn default() -> Self {
        WanNetBuilder {
            delay: Box::new(delay::ConstantDelay::new(SimDuration::from_millis(50))),
            loss_prob: 0.0,
            oracle: Box::new(partition::AlwaysConnected),
        }
    }
}

impl WanNetBuilder {
    /// Uses a constant one-way delay.
    pub fn constant_delay(mut self, delay: SimDuration) -> Self {
        self.delay = Box::new(delay::ConstantDelay::new(delay));
        self
    }

    /// Uses a uniform one-way delay in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_delay(mut self, lo: SimDuration, hi: SimDuration) -> Self {
        self.delay = Box::new(delay::UniformDelay::new(lo, hi));
        self
    }

    /// Uses a shifted-exponential one-way delay (`base` plus an exponential
    /// tail with the given mean), a common heavy-ish WAN latency shape.
    pub fn exponential_delay(mut self, base: SimDuration, tail_mean: SimDuration) -> Self {
        self.delay = Box::new(delay::ExponentialDelay::new(base, tail_mean));
        self
    }

    /// Uses a custom delay model.
    pub fn delay_model(mut self, model: Box<dyn DelayModel>) -> Self {
        self.delay = model;
        self
    }

    /// Sets independent per-message loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0,1], got {p}");
        self.loss_prob = p;
        self
    }

    /// Installs a partition overlay.
    pub fn partitions(mut self, oracle: Box<dyn PartitionOracle>) -> Self {
        self.oracle = oracle;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> WanNet {
        WanNet { delay: self.delay, loss_prob: self.loss_prob, oracle: self.oracle }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn wan_applies_loss() {
        let mut net = WanNet::builder().loss(1.0).build();
        let mut rng = SimRng::seed_from(0);
        assert_eq!(net.transmit(n(0), n(1), SimTime::ZERO, &mut rng), Verdict::Drop(DropReason::Loss));
    }

    #[test]
    fn wan_uniform_delay_within_bounds() {
        let lo = SimDuration::from_millis(10);
        let hi = SimDuration::from_millis(20);
        let mut net = WanNet::builder().uniform_delay(lo, hi).build();
        let mut rng = SimRng::seed_from(3);
        for _ in 0..200 {
            match net.transmit(n(0), n(1), SimTime::ZERO, &mut rng) {
                Verdict::Deliver(d) => assert!(d >= lo && d < hi, "delay {d} out of bounds"),
                Verdict::Duplicate(..) => panic!("a WanNet never duplicates"),
                Verdict::Drop(r) => panic!("unexpected drop: {r}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn builder_rejects_bad_loss() {
        let _ = WanNet::builder().loss(1.5);
    }

    #[test]
    fn drop_reason_displays() {
        assert_eq!(DropReason::Partitioned.to_string(), "partitioned");
        assert_eq!(DropReason::Loss.to_string(), "loss");
        assert_eq!(DropReason::DestinationDown.to_string(), "destination down");
    }
}
