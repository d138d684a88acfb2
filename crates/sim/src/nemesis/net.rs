//! Network-layer fault injection: the one fault decision both executors
//! make, and the [`NetModel`] decorator the simulator makes it through.

use crate::net::{DropReason, NetModel, Verdict};
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

use super::Fault;

/// The network-fault decision for one message sent `from -> to` at
/// `now`, made by both executors: [`NemesisNet`] asks it with its base
/// model, the live chaos transport with a zero-delay one. The order is
/// fixed, and so is every draw from `rng`:
///
/// 1. partitions: certain loss, no draw;
/// 2. injected random loss: a draw per open `Drop` window until one hits;
/// 3. the base model's own verdict;
/// 4. duplication of a single surviving delivery: a draw per open
///    `Duplicate` window until one hits, then one for the trailing copy,
///    which follows the first by `d·(1+U)` of the base delay `d`;
/// 5. delay spikes: a draw per open `DelaySpike` window for each
///    delivered copy, the first copy first.
pub fn decide(
    faults: &[Fault],
    from: NodeId,
    to: NodeId,
    now: SimTime,
    rng: &mut SimRng,
    base: &mut dyn NetModel,
) -> Verdict {
    if faults.iter().any(|f| f.severs(from, to, now)) {
        return Verdict::Drop(DropReason::Partitioned);
    }
    for fault in faults {
        if let Fault::Drop { window, prob } = fault {
            if window.contains(now) && rng.chance(*prob) {
                return Verdict::Drop(DropReason::Loss);
            }
        }
    }
    match base.transmit(from, to, now, rng) {
        Verdict::Deliver(d) => {
            let duplicated = faults.iter().any(|f| {
                matches!(f, Fault::Duplicate { window, prob }
                    if window.contains(now) && rng.chance(*prob))
            });
            if duplicated {
                let trail = d.mul_f64(1.0 + rng.unit());
                Verdict::Duplicate(d + spike(faults, now, rng), trail + spike(faults, now, rng))
            } else {
                Verdict::Deliver(d + spike(faults, now, rng))
            }
        }
        Verdict::Duplicate(a, b) => {
            Verdict::Duplicate(a + spike(faults, now, rng), b + spike(faults, now, rng))
        }
        drop => drop,
    }
}

/// Extra delay from every delay-spike fault open at `now`.
fn spike(faults: &[Fault], now: SimTime, rng: &mut SimRng) -> SimDuration {
    let mut extra = SimDuration::ZERO;
    for fault in faults {
        if let Fault::DelaySpike { window, extra_min, extra_max } = fault {
            if window.contains(now) {
                let span = extra_max.as_nanos().saturating_sub(extra_min.as_nanos());
                let add = if span == 0 { 0 } else { rng.range(0, span) };
                extra = extra + SimDuration::from_nanos(extra_min.as_nanos() + add);
            }
        }
    }
    extra
}

/// Layers a [`NemesisPlan`](super::NemesisPlan)'s network faults on top
/// of any base model, in [`decide`]'s order.
///
/// # Examples
///
/// ```
/// use wanacl_sim::nemesis::NemesisPlan;
/// use wanacl_sim::net::{NetModel, PerfectNet, Verdict, DropReason};
/// use wanacl_sim::node::NodeId;
/// use wanacl_sim::rng::SimRng;
/// use wanacl_sim::time::{SimDuration, SimTime};
///
/// let a = NodeId::from_index(0);
/// let b = NodeId::from_index(1);
/// let plan = NemesisPlan::builder(SimTime::from_secs(60))
///     .partition(vec![a], vec![b], SimTime::from_secs(10), SimTime::from_secs(20))
///     .build();
/// let mut net = plan.wrap_net(Box::new(PerfectNet::new(SimDuration::from_millis(5))));
/// let mut rng = SimRng::seed_from(1);
/// assert!(matches!(
///     net.transmit(a, b, SimTime::from_secs(15), &mut rng),
///     Verdict::Drop(DropReason::Partitioned)
/// ));
/// assert!(matches!(net.transmit(a, b, SimTime::from_secs(25), &mut rng), Verdict::Deliver(_)));
/// ```
pub struct NemesisNet {
    base: Box<dyn NetModel>,
    faults: Vec<Fault>,
}

impl std::fmt::Debug for NemesisNet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NemesisNet").field("faults", &self.faults.len()).finish_non_exhaustive()
    }
}

impl NemesisNet {
    /// Wraps `base` with the given network faults (lifecycle faults in
    /// the list are ignored; install those into the world instead).
    pub fn new(base: Box<dyn NetModel>, faults: Vec<Fault>) -> NemesisNet {
        NemesisNet { base, faults: faults.into_iter().filter(|f| f.is_net()).collect() }
    }
}

impl NetModel for NemesisNet {
    fn transmit(&mut self, from: NodeId, to: NodeId, now: SimTime, rng: &mut SimRng) -> Verdict {
        decide(&self.faults, from, to, now, rng, self.base.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::super::NemesisPlan;
    use super::*;
    use crate::net::{PerfectNet, WanNet};

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn perfect() -> Box<dyn NetModel> {
        Box::new(PerfectNet::new(SimDuration::from_millis(10)))
    }

    /// A partition decides before anything that draws: with certain loss
    /// both injected and in the base model, the verdict is `Partitioned`
    /// and the RNG stream is untouched, so the draws after it line up
    /// with a run that has no partition at all.
    #[test]
    fn partition_decides_first_and_draws_nothing() {
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .partition(vec![n(0)], vec![n(1)], SimTime::ZERO, SimTime::from_secs(10))
            .drop_burst(SimTime::ZERO, SimTime::from_secs(10), 1.0)
            .build();
        let mut base = WanNet::builder().loss(1.0).build();
        let mut rng = SimRng::seed_from(5);
        let now = SimTime::from_secs(5);
        let verdict = decide(&plan.net_faults(), n(0), n(1), now, &mut rng, &mut base);
        assert_eq!(verdict, Verdict::Drop(DropReason::Partitioned));
        assert_eq!(rng.unit(), SimRng::seed_from(5).unit(), "the partition drew from the RNG");
    }

    #[test]
    fn drop_burst_only_inside_window() {
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .drop_burst(SimTime::from_secs(10), SimTime::from_secs(20), 1.0)
            .build();
        let mut net = plan.wrap_net(perfect());
        let mut rng = SimRng::seed_from(1);
        assert!(matches!(
            net.transmit(n(0), n(1), SimTime::from_secs(15), &mut rng),
            Verdict::Drop(DropReason::Loss)
        ));
        assert!(matches!(
            net.transmit(n(0), n(1), SimTime::from_secs(5), &mut rng),
            Verdict::Deliver(_)
        ));
    }

    #[test]
    fn duplication_forks_deliveries() {
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .duplicate_burst(SimTime::ZERO, SimTime::from_secs(60), 1.0)
            .build();
        let mut net = plan.wrap_net(perfect());
        let mut rng = SimRng::seed_from(2);
        match net.transmit(n(0), n(1), SimTime::from_secs(1), &mut rng) {
            Verdict::Duplicate(a, b) => assert!(b >= a, "trailing copy must not lead"),
            other => panic!("expected duplicate, got {other:?}"),
        }
    }

    #[test]
    fn delay_spike_stretches_delivery() {
        let extra_min = SimDuration::from_millis(100);
        let extra_max = SimDuration::from_millis(200);
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .delay_spike(SimTime::ZERO, SimTime::from_secs(60), extra_min, extra_max)
            .build();
        let mut net = plan.wrap_net(perfect());
        let mut rng = SimRng::seed_from(3);
        for _ in 0..50 {
            match net.transmit(n(0), n(1), SimTime::from_secs(1), &mut rng) {
                Verdict::Deliver(d) => {
                    assert!(d >= SimDuration::from_millis(110), "delay {d}");
                    assert!(d < SimDuration::from_millis(210), "delay {d}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn lifecycle_faults_are_ignored_by_the_net() {
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .crash(n(0), SimTime::from_secs(1), SimDuration::from_secs(50))
            .build();
        let mut net = plan.wrap_net(perfect());
        let mut rng = SimRng::seed_from(4);
        // The net layer does not model the crash; the world does.
        assert!(matches!(
            net.transmit(n(0), n(1), SimTime::from_secs(10), &mut rng),
            Verdict::Deliver(_)
        ));
    }

    #[test]
    fn composition_is_deterministic() {
        let mk = || {
            NemesisPlan::builder(SimTime::from_secs(60))
                .drop_burst(SimTime::ZERO, SimTime::from_secs(60), 0.3)
                .duplicate_burst(SimTime::ZERO, SimTime::from_secs(60), 0.3)
                .delay_spike(
                    SimTime::ZERO,
                    SimTime::from_secs(60),
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(50),
                )
                .build()
                .wrap_net(perfect())
        };
        let mut a = mk();
        let mut b = mk();
        let mut ra = SimRng::seed_from(9);
        let mut rb = SimRng::seed_from(9);
        for i in 0..500 {
            let t = SimTime::from_millis(i * 100);
            assert_eq!(a.transmit(n(0), n(1), t, &mut ra), b.transmit(n(0), n(1), t, &mut rb));
        }
    }
}
