//! Live fault injection: a [`Transport`] decorator driven by the same
//! [`NemesisPlan`](wanacl_sim::nemesis::NemesisPlan) the simulator runs.
//!
//! [`ChaosRouter`] wraps the base [`Router`] and applies the plan's
//! *network* faults to every data-plane send, mapping elapsed wall-clock
//! time onto [`SimTime`] one second to one second, so a plan sampled for
//! a sim campaign replays against real threads: a partition scripted for
//! sim-seconds 10..20 severs live traffic during wall-seconds 10..20 of
//! the deployment. Each send asks the simulator's own
//! [`nemesis::decide`] with a zero-delay base; the inner router's link
//! policy then applies to each delivered copy.
//!
//! Lifecycle faults (crashes, disk faults) are not interpreted here —
//! the chaos driver maps those onto [`crate::Runtime::kill`] /
//! [`crate::Runtime::restart`] / [`crate::Runtime::crash`], just as the
//! sim world installs them outside the net layer.
//!
//! Delayed deliveries ride a dedicated pump thread holding a
//! [`Calendar`]; the decorated send never blocks the sending node.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};

use wanacl_sim::metrics::MetricId;
use wanacl_sim::nemesis::{self, Fault};
use wanacl_sim::net::{PerfectNet, Verdict};
use wanacl_sim::node::NodeId;
use wanacl_sim::obs::MetricsSink;
use wanacl_sim::queue::Calendar;
use wanacl_sim::rng::SimRng;
use wanacl_sim::time::{SimDuration, SimTime};

use crate::router::{Router, Transport};
use crate::runtime::since;

/// A delivery the pump owes the inner router, due at its queue time.
type Delayed<M> = (SimTime, NodeId, NodeId, M);

/// Seeded fault-injecting transport wrapping the base [`Router`].
///
/// Install via [`crate::RuntimeBuilder::wrap_transport`]:
///
/// ```ignore
/// let faults = plan.net_faults();
/// builder.wrap_transport(move |router| Ok(ChaosRouter::new(router, faults, seed, sink)?));
/// ```
///
/// Environment traffic (`from == NodeId::ENV`) bypasses injection so the
/// driving harness keeps a reliable control channel, matching the
/// simulator where nemesis attacks only protocol links. Every injected
/// fault is counted in the sink: `rt.chaos_dropped`,
/// `rt.chaos_duplicated` and `rt.chaos_delayed` (per delayed copy).
pub struct ChaosRouter<M> {
    inner: Arc<Router<M>>,
    faults: Vec<Fault>,
    epoch: Instant,
    /// Seeded decision stream. A mutex serializes decisions across
    /// sending threads; the draws stay a deterministic function of
    /// *decision order*, which under threads is itself racy — same
    /// caveat as the router's `LossyPolicy`.
    rng: Mutex<SimRng>,
    delay_tx: Sender<Delayed<M>>,
    metrics: MetricsSink,
}

impl<M> std::fmt::Debug for ChaosRouter<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosRouter").field("faults", &self.faults.len()).finish_non_exhaustive()
    }
}

impl<M: Send + Sync + 'static> ChaosRouter<M> {
    /// Wraps `inner` with the network faults of a plan (lifecycle
    /// faults in the list are filtered out, like `NemesisNet::new`).
    /// The fault-window clock starts now; construct immediately before
    /// `RuntimeBuilder::start` so windows line up with the deployment.
    /// Fails if the OS refuses the delivery pump's thread.
    pub fn new(
        inner: Arc<Router<M>>,
        faults: Vec<Fault>,
        seed: u64,
        metrics: MetricsSink,
    ) -> std::io::Result<Arc<Self>> {
        let (delay_tx, delay_rx) = unbounded::<Delayed<M>>();
        let pump_router = inner.clone();
        let epoch = Instant::now();
        // The pump owns delayed deliveries; it exits once the
        // ChaosRouter (the only sender) is dropped.
        std::thread::Builder::new().name("chaos-delay-pump".into()).spawn(move || {
            let mut queue = Calendar::new();
            loop {
                let now = since(epoch);
                while let Some((_, (from, to, msg))) = queue.pop_due(now) {
                    pump_router.send(from, to, msg);
                }
                let deadline = queue
                    .next_time()
                    .and_then(|due| epoch.checked_add(Duration::from_nanos(due.as_nanos())));
                match deadline.map_or_else(|| delay_rx.recv(), |d| delay_rx.recv_deadline(d)) {
                    Ok((due, from, to, msg)) => {
                        queue.push(due, (from, to, msg));
                    }
                    Err(RecvTimeoutError::Timeout) => {}
                    // The deployment stopped: what is still queued is lost
                    // in flight.
                    Err(RecvTimeoutError::Disconnected) => return,
                }
            }
        })?;
        Ok(Arc::new(ChaosRouter {
            inner,
            faults: faults.into_iter().filter(|f| f.is_net()).collect(),
            epoch,
            rng: Mutex::new(SimRng::seed_from(seed ^ 0x6c69_7665_6e65_7421)), // "livenet!"
            delay_tx,
            metrics,
        }))
    }

    /// Hands one copy to the inner router now, or to the pump to send
    /// at `now + extra`.
    fn deliver(&self, from: NodeId, to: NodeId, msg: M, now: SimTime, extra: SimDuration) {
        if extra == SimDuration::ZERO {
            return self.inner.send(from, to, msg);
        }
        self.metrics.incr(MetricId::RT_CHAOS_DELAYED);
        // A send after the pump has gone (teardown) is lost in flight.
        let _ = self.delay_tx.send((now + extra, from, to, msg));
    }
}

impl<M: Send + Sync + Clone + 'static> Transport<M> for ChaosRouter<M> {
    fn send(&self, from: NodeId, to: NodeId, msg: M) {
        // Environment/control traffic is exempt from injection.
        if from == NodeId::ENV {
            self.inner.send(from, to, msg);
            return;
        }
        let now = since(self.epoch);
        let verdict = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            let mut base = PerfectNet::new(SimDuration::ZERO);
            nemesis::decide(&self.faults, from, to, now, &mut rng, &mut base)
        };
        match verdict {
            Verdict::Drop(_) => self.metrics.incr(MetricId::RT_CHAOS_DROPPED),
            Verdict::Deliver(extra) => self.deliver(from, to, msg, now, extra),
            Verdict::Duplicate(first, second) => {
                self.metrics.incr(MetricId::RT_CHAOS_DUPLICATED);
                self.deliver(from, to, msg.clone(), now, first);
                self.deliver(from, to, msg, now, second);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Envelope;
    use crossbeam::channel::Receiver;
    use wanacl_sim::nemesis::NemesisPlan;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn harness(
        faults: Vec<Fault>,
    ) -> (Arc<ChaosRouter<u32>>, Receiver<Envelope<u32>>, NodeId, MetricsSink) {
        let router: Arc<Router<u32>> = Router::new();
        let (tx, rx) = crossbeam::channel::bounded(1024);
        let id = router.register(tx);
        let sink = MetricsSink::new();
        let chaos = ChaosRouter::new(router, faults, 7, sink.clone()).expect("pump thread");
        (chaos, rx, id, sink)
    }

    /// (dropped, duplicated, delayed) as the sink counts them.
    fn counts(sink: &MetricsSink) -> (u64, u64, u64) {
        let c = |name| sink.counter(name);
        (c("rt.chaos_dropped"), c("rt.chaos_duplicated"), c("rt.chaos_delayed"))
    }

    #[test]
    fn partition_window_severs_then_heals() {
        // Sever 0 -> target for the first 200ms of the run.
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .partition(vec![n(9)], vec![n(0)], SimTime::ZERO, SimTime::from_millis(200))
            .build();
        let (chaos, rx, id, sink) = harness(plan.net_faults());
        assert_eq!(id, n(0));
        chaos.send(n(9), id, 1);
        assert!(rx.try_recv().is_err(), "partition must sever");
        assert_eq!(counts(&sink), (1, 0, 0));
        std::thread::sleep(Duration::from_millis(250));
        chaos.send(n(9), id, 2);
        assert!(
            matches!(rx.recv_timeout(Duration::from_secs(1)), Ok(Envelope::Msg { msg, .. }) if msg == 2),
            "healed window must deliver"
        );
    }

    #[test]
    fn env_traffic_bypasses_injection() {
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .drop_burst(SimTime::ZERO, SimTime::from_secs(60), 1.0)
            .build();
        let (chaos, rx, id, sink) = harness(plan.net_faults());
        chaos.send(NodeId::ENV, id, 5);
        assert!(rx.try_recv().is_ok(), "env sends must not be dropped");
        chaos.send(n(3), id, 6);
        assert!(rx.try_recv().is_err(), "certain loss drops protocol sends");
        assert_eq!(counts(&sink), (1, 0, 0));
    }

    #[test]
    fn duplication_forks_and_delay_defers() {
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .duplicate_burst(SimTime::ZERO, SimTime::from_secs(60), 1.0)
            .delay_spike(
                SimTime::ZERO,
                SimTime::from_secs(60),
                SimDuration::from_millis(20),
                SimDuration::from_millis(40),
            )
            .build();
        let (chaos, rx, id, sink) = harness(plan.net_faults());
        let sent_at = Instant::now();
        chaos.send(n(3), id, 9);
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(2)) {
                Ok(Envelope::Msg { msg, .. }) => assert_eq!(msg, 9),
                other => panic!("expected duplicate deliveries, got {other:?}"),
            }
        }
        assert!(
            sent_at.elapsed() >= Duration::from_millis(20),
            "the delay spike must defer delivery"
        );
        assert_eq!(counts(&sink), (0, 1, 2), "each copy draws its own spike and rides the pump");
    }

    /// Outside any delay spike a duplicate's trailing copy follows the
    /// first by `d·(1+U)` of a zero base delay: both arrive at once,
    /// neither through the pump.
    #[test]
    fn a_duplicate_outside_any_spike_arrives_twice_at_once() {
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .duplicate_burst(SimTime::ZERO, SimTime::from_secs(60), 1.0)
            .build();
        let (chaos, rx, id, sink) = harness(plan.net_faults());
        chaos.send(n(3), id, 4);
        for _ in 0..2 {
            assert!(
                matches!(rx.try_recv(), Ok(Envelope::Msg { msg: 4, .. })),
                "both copies are delivered inside the send"
            );
        }
        assert_eq!(counts(&sink), (0, 1, 0));
    }
}
