//! Connectivity overlays: who can reach whom, when.
//!
//! The paper's failure model (§2.1) treats temporary partitions — mostly
//! congestion-induced — as the common case. These are the WAN's
//! steady-state stochastic overlays:
//!
//! * [`GilbertElliott`] — per-pair congestion bursts with exponential
//!   good/bad dwell times, the "temporary partitions caused by congestion"
//!   of §2.1,
//! * [`EpochIid`] — the §4.1 analytic model: each unordered pair is
//!   independently inaccessible with probability `Pi`, re-drawn every
//!   epoch. Used to validate `PA(C)`/`PS(C)` against protocol runs,
//! * [`DutyCycle`] — mobile nodes that attach and detach (footnote 1).
//!
//! A scripted cut between two node sets is not an overlay: it is a
//! [`crate::nemesis::Fault::Partition`] in a
//! [`NemesisPlan`](crate::nemesis::NemesisPlan), layered on any base
//! model by [`NemesisPlan::wrap_net`](crate::nemesis::NemesisPlan::wrap_net).

use crate::hash::FxHashMap;
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Decides whether a (sender, receiver) pair is currently connected.
///
/// Oracles must be symmetric in effect for the paper's model to apply, but
/// the trait passes the ordered pair so asymmetric overlays are possible.
pub trait PartitionOracle {
    /// Returns `true` when a message from `from` can currently reach `to`.
    fn connected(&mut self, from: NodeId, to: NodeId, now: SimTime, rng: &mut SimRng) -> bool;
}

/// The trivial overlay: everything is always connected.
#[derive(Debug, Clone, Copy, Default)]
pub struct AlwaysConnected;

impl PartitionOracle for AlwaysConnected {
    fn connected(&mut self, _from: NodeId, _to: NodeId, _now: SimTime, _rng: &mut SimRng) -> bool {
        true
    }
}

/// Per-pair two-state congestion model (Gilbert–Elliott): each unordered
/// pair alternates between a connected "good" state and a partitioned
/// "bad" state, with exponentially distributed dwell times.
///
/// This reproduces §2.1's "temporary network partitions caused mostly by
/// network congestion can be frequent": short bad bursts, long good spells.
#[derive(Debug)]
pub struct GilbertElliott {
    mean_good: SimDuration,
    mean_bad: SimDuration,
    /// Lazily advanced per-pair state: (is_good, state valid until).
    state: FxHashMap<(NodeId, NodeId), (bool, SimTime)>,
}

impl GilbertElliott {
    /// Creates the model with the given mean dwell times.
    ///
    /// # Panics
    ///
    /// Panics if either mean is zero.
    pub fn new(mean_good: SimDuration, mean_bad: SimDuration) -> Self {
        assert!(mean_good > SimDuration::ZERO, "mean good dwell must be positive");
        assert!(mean_bad > SimDuration::ZERO, "mean bad dwell must be positive");
        GilbertElliott { mean_good, mean_bad, state: FxHashMap::default() }
    }

    /// The long-run fraction of time a pair spends partitioned — the
    /// effective `Pi` of this model, for comparison with §4.1.
    pub fn steady_state_pi(&self) -> f64 {
        let g = self.mean_good.as_secs_f64();
        let b = self.mean_bad.as_secs_f64();
        b / (g + b)
    }

    fn key(from: NodeId, to: NodeId) -> (NodeId, NodeId) {
        if from <= to {
            (from, to)
        } else {
            (to, from)
        }
    }
}

impl PartitionOracle for GilbertElliott {
    fn connected(&mut self, from: NodeId, to: NodeId, now: SimTime, rng: &mut SimRng) -> bool {
        let key = Self::key(from, to);
        let entry = self.state.entry(key).or_insert_with(|| (true, SimTime::ZERO));
        // Advance the renewal process lazily until it covers `now`.
        while entry.1 <= now {
            entry.0 = !entry.0;
            let mean = if entry.0 { self.mean_good } else { self.mean_bad };
            let dwell = SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()));
            // Guard against a zero-length dwell stalling the loop.
            let dwell = std::cmp::max(dwell, SimDuration::from_nanos(1));
            entry.1 += dwell;
        }
        entry.0
    }
}

/// The §4.1 analytic model: every unordered pair of nodes is independently
/// inaccessible with probability `pi`, re-drawn each `epoch`.
///
/// Connectivity is a pure hash of `(pair, epoch, seed)`, so the overlay is
/// deterministic, stateless, and consistent for the duration of an epoch —
/// matching the paper's assumption that a pair is either reachable or not
/// for the duration of one access-control exchange.
#[derive(Debug, Clone)]
pub struct EpochIid {
    pi: f64,
    epoch: SimDuration,
    seed: u64,
    /// Pairs exempt from the model (e.g. a colocated user/host pair).
    exempt: Vec<(NodeId, NodeId)>,
}

impl EpochIid {
    /// Creates the overlay.
    ///
    /// # Panics
    ///
    /// Panics if `pi` is outside `[0, 1]` or `epoch` is zero.
    pub fn new(pi: f64, epoch: SimDuration, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&pi), "pi must be in [0,1], got {pi}");
        assert!(epoch > SimDuration::ZERO, "epoch must be positive");
        EpochIid { pi, epoch, seed, exempt: Vec::new() }
    }

    /// Exempts an unordered pair from the inaccessibility model.
    pub fn exempt_pair(mut self, a: NodeId, b: NodeId) -> Self {
        self.exempt.push(if a <= b { (a, b) } else { (b, a) });
        self
    }

    /// The configured pairwise inaccessibility probability.
    pub fn pi(&self) -> f64 {
        self.pi
    }

    /// Whether the unordered pair `(a, b)` is inaccessible during the
    /// epoch containing `now`. Exposed so experiments can compute ground
    /// truth (e.g. "was a check quorum reachable?") without sending
    /// messages.
    pub fn pair_down(&self, a: NodeId, b: NodeId, now: SimTime) -> bool {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        if self.exempt.contains(&(lo, hi)) {
            return false;
        }
        let epoch_index = now.as_nanos() / self.epoch.as_nanos();
        let h = splitmix(
            self.seed
                ^ (lo.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (hi.index() as u64).wrapping_mul(0xc2b2_ae3d_27d4_eb4f)
                ^ epoch_index.wrapping_mul(0x1656_67b1_9e37_79f9),
        );
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.pi
    }
}

impl PartitionOracle for EpochIid {
    fn connected(&mut self, from: NodeId, to: NodeId, now: SimTime, _rng: &mut SimRng) -> bool {
        !self.pair_down(from, to, now)
    }
}

/// Node-level intermittent connectivity: designated *mobile* nodes
/// alternate between attached (reachable) and detached (unreachable from
/// everyone) with exponential dwell times.
///
/// The paper's footnote 1: "similar problems exist in mobile computing
/// systems, so our solutions could be applied in this context as well" —
/// this oracle is how the repo exercises that claim (a phone losing and
/// regaining coverage looks, to the protocol, like a one-node partition).
#[derive(Debug)]
pub struct DutyCycle {
    mobile: Vec<NodeId>,
    mean_attached: SimDuration,
    mean_detached: SimDuration,
    /// Lazily advanced per-node state: (is attached, valid until).
    state: FxHashMap<NodeId, (bool, SimTime)>,
    /// Pairs that bypass the coverage model (e.g. a wired in-vehicle
    /// link between a mobile host and its colocated operator).
    exempt: Vec<(NodeId, NodeId)>,
}

impl DutyCycle {
    /// Creates the model for the given mobile nodes.
    ///
    /// # Panics
    ///
    /// Panics if either mean dwell time is zero.
    pub fn new(mobile: Vec<NodeId>, mean_attached: SimDuration, mean_detached: SimDuration) -> Self {
        assert!(mean_attached > SimDuration::ZERO, "mean attached dwell must be positive");
        assert!(mean_detached > SimDuration::ZERO, "mean detached dwell must be positive");
        DutyCycle { mobile, mean_attached, mean_detached, state: FxHashMap::default(), exempt: Vec::new() }
    }

    /// Exempts an unordered pair from the coverage model (a local link
    /// that stays up even while the mobile node has no uplink).
    pub fn exempt_pair(mut self, a: NodeId, b: NodeId) -> Self {
        self.exempt.push(if a <= b { (a, b) } else { (b, a) });
        self
    }

    /// The long-run fraction of time a mobile node is detached.
    pub fn steady_state_detached(&self) -> f64 {
        let a = self.mean_attached.as_secs_f64();
        let d = self.mean_detached.as_secs_f64();
        d / (a + d)
    }

    fn attached(&mut self, node: NodeId, now: SimTime, rng: &mut SimRng) -> bool {
        if !self.mobile.contains(&node) {
            return true;
        }
        let entry = self.state.entry(node).or_insert_with(|| (false, SimTime::ZERO));
        while entry.1 <= now {
            entry.0 = !entry.0;
            let mean = if entry.0 { self.mean_attached } else { self.mean_detached };
            let dwell = SimDuration::from_secs_f64(rng.exponential(mean.as_secs_f64()));
            let dwell = std::cmp::max(dwell, SimDuration::from_nanos(1));
            entry.1 += dwell;
        }
        entry.0
    }
}

impl PartitionOracle for DutyCycle {
    fn connected(&mut self, from: NodeId, to: NodeId, now: SimTime, rng: &mut SimRng) -> bool {
        let key = if from <= to { (from, to) } else { (to, from) };
        if self.exempt.contains(&key) {
            return true;
        }
        self.attached(from, now, rng) && self.attached(to, now, rng)
    }
}

/// SplitMix64 finalizer; turns a seed into a well-mixed 64-bit value.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn gilbert_elliott_steady_state_fraction() {
        let mut ge =
            GilbertElliott::new(SimDuration::from_secs(9), SimDuration::from_secs(1));
        assert!((ge.steady_state_pi() - 0.1).abs() < 1e-12);
        let mut rng = SimRng::seed_from(42);
        // Sample connectivity over a long horizon; fraction of "down"
        // samples should approach mean_bad / (mean_good + mean_bad) = 0.1.
        let mut down = 0usize;
        let total = 20_000usize;
        for i in 0..total {
            let t = SimTime::from_millis(i as u64 * 100);
            if !ge.connected(n(0), n(1), t, &mut rng) {
                down += 1;
            }
        }
        let frac = down as f64 / total as f64;
        assert!((0.07..0.13).contains(&frac), "down fraction {frac}");
    }

    #[test]
    fn gilbert_elliott_pairs_are_independent_streams() {
        let mut ge = GilbertElliott::new(SimDuration::from_secs(1), SimDuration::from_secs(1));
        let mut rng = SimRng::seed_from(7);
        let mut agree = 0usize;
        let total = 2_000usize;
        for i in 0..total {
            let t = SimTime::from_millis(i as u64 * 250);
            let a = ge.connected(n(0), n(1), t, &mut rng);
            let b = ge.connected(n(2), n(3), t, &mut rng);
            if a == b {
                agree += 1;
            }
        }
        // Independent symmetric processes agree ~50% of the time.
        let frac = agree as f64 / total as f64;
        assert!((0.4..0.6).contains(&frac), "agreement {frac}");
    }

    #[test]
    fn epoch_iid_is_deterministic_and_stable_within_epoch() {
        let mut o = EpochIid::new(0.5, SimDuration::from_secs(10), 99);
        let mut rng = SimRng::seed_from(0);
        let a = o.connected(n(0), n(1), SimTime::from_secs(3), &mut rng);
        let b = o.connected(n(0), n(1), SimTime::from_secs(7), &mut rng);
        assert_eq!(a, b, "same epoch must give same answer");
        let c = o.connected(n(1), n(0), SimTime::from_secs(3), &mut rng);
        assert_eq!(a, c, "must be symmetric");
    }

    #[test]
    fn epoch_iid_matches_configured_pi() {
        let o = EpochIid::new(0.2, SimDuration::from_secs(1), 1234);
        let mut down = 0usize;
        let total = 50_000usize;
        let mut idx = 0u64;
        for e in 0..total {
            idx += 1;
            let t = SimTime::from_secs(e as u64);
            if o.pair_down(n((idx % 7) as usize), n(7 + (idx % 5) as usize), t) {
                down += 1;
            }
        }
        let frac = down as f64 / total as f64;
        assert!((0.19..0.21).contains(&frac), "down fraction {frac}");
    }

    #[test]
    fn epoch_iid_exempt_pairs_never_partition() {
        let o = EpochIid::new(1.0, SimDuration::from_secs(1), 5).exempt_pair(n(0), n(1));
        for e in 0..100 {
            assert!(!o.pair_down(n(0), n(1), SimTime::from_secs(e)));
            assert!(o.pair_down(n(0), n(2), SimTime::from_secs(e)));
        }
    }

    #[test]
    fn duty_cycle_only_affects_mobile_nodes() {
        let mut dc = DutyCycle::new(
            vec![n(0)],
            SimDuration::from_secs(1),
            SimDuration::from_secs(1),
        );
        let mut rng = SimRng::seed_from(1);
        // A link between two fixed nodes never drops.
        for i in 0..200 {
            assert!(dc.connected(n(1), n(2), SimTime::from_millis(i * 37), &mut rng));
        }
        // The mobile node is detached roughly half the time.
        let mut down = 0;
        let total = 5_000;
        for i in 0..total {
            if !dc.connected(n(0), n(1), SimTime::from_millis(i * 100), &mut rng) {
                down += 1;
            }
        }
        let frac = down as f64 / total as f64;
        assert!((0.4..0.6).contains(&frac), "detached fraction {frac}");
        assert!((dc.steady_state_detached() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_exempt_pair_stays_connected() {
        let mut dc = DutyCycle::new(
            vec![n(0)],
            SimDuration::from_millis(1),
            SimDuration::from_secs(1_000), // effectively always detached
        )
        .exempt_pair(n(1), n(0));
        let mut rng = SimRng::seed_from(5);
        for i in 1..100 {
            let t = SimTime::from_secs(i);
            assert!(dc.connected(n(0), n(1), t, &mut rng), "local link must stay up");
            assert!(!dc.connected(n(0), n(2), t, &mut rng), "uplink must be down");
        }
    }

    #[test]
    fn duty_cycle_detachment_is_node_wide() {
        // While detached, the mobile node is unreachable from *everyone*
        // at the same instant.
        let mut dc = DutyCycle::new(
            vec![n(0)],
            SimDuration::from_secs(2),
            SimDuration::from_secs(2),
        );
        let mut rng = SimRng::seed_from(3);
        for i in 0..1_000 {
            let t = SimTime::from_millis(i * 53);
            let via_1 = dc.connected(n(0), n(1), t, &mut rng);
            let via_2 = dc.connected(n(2), n(0), t, &mut rng);
            assert_eq!(via_1, via_2, "detachment must be consistent across peers");
        }
    }
}
