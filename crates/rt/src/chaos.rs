//! Live fault injection: a [`Transport`] decorator driven by the same
//! [`NemesisPlan`](wanacl_sim::nemesis::NemesisPlan) the simulator runs.
//!
//! [`ChaosRouter`] wraps the base [`Router`] and applies the plan's
//! *network* faults to every data-plane send, mapping elapsed wall-clock
//! time onto [`SimTime`] one second to one second, so a plan sampled for
//! a sim campaign replays against real threads: a partition scripted for
//! sim-seconds 10..20 severs live traffic during wall-seconds 10..20 of
//! the deployment. Evaluation order mirrors the simulator's
//! `NemesisNet`: partitions (certain loss) → injected random loss → the
//! inner router's own link policy → duplication → delay spikes.
//!
//! Lifecycle faults (crashes, disk faults) are not interpreted here —
//! the chaos driver maps those onto [`crate::Runtime::kill`] /
//! [`crate::Runtime::restart`] / [`crate::Runtime::crash`], just as the
//! sim world installs them outside the net layer.
//!
//! Delayed deliveries ride a dedicated pump thread with a deadline heap;
//! the decorated send never blocks the sending node.

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, RecvTimeoutError, Sender};

use wanacl_sim::nemesis::Fault;
use wanacl_sim::metrics::MetricId;
use wanacl_sim::node::NodeId;
use wanacl_sim::obs::MetricsSink;
use wanacl_sim::rng::SimRng;
use wanacl_sim::time::{SimDuration, SimTime};

use crate::router::{Router, Transport};

/// A delivery the pump thread owes the inner router.
struct DelayedDelivery<M> {
    due: Instant,
    seq: u64,
    from: NodeId,
    to: NodeId,
    msg: M,
}

impl<M> PartialEq for DelayedDelivery<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl<M> Eq for DelayedDelivery<M> {}
impl<M> Ord for DelayedDelivery<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: earliest deadline first out of the max-heap.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}
impl<M> PartialOrd for DelayedDelivery<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Seeded fault-injecting transport wrapping the base [`Router`].
///
/// Install via [`crate::RuntimeBuilder::wrap_transport`]:
///
/// ```ignore
/// let faults = plan.net_faults().to_vec();
/// builder.wrap_transport(move |router| ChaosRouter::new(router, faults, seed, None));
/// ```
///
/// Environment traffic (`from == NodeId::ENV`) bypasses injection so the
/// driving harness keeps a reliable control channel, matching the
/// simulator where nemesis attacks only protocol links.
pub struct ChaosRouter<M> {
    inner: Arc<Router<M>>,
    faults: Vec<Fault>,
    epoch: Instant,
    /// Seeded decision stream. A mutex serializes decisions across
    /// sending threads; the drop/duplicate/delay draws stay a
    /// deterministic function of *decision order*, which under threads
    /// is itself racy — same caveat as the router's `LossyPolicy`.
    rng: Mutex<SimRng>,
    delay_tx: Sender<DelayedDelivery<M>>,
    seq: AtomicU64,
    metrics: Option<MetricsSink>,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    delayed: AtomicU64,
}

impl<M> std::fmt::Debug for ChaosRouter<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosRouter")
            .field("faults", &self.faults.len())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .field("duplicated", &self.duplicated.load(Ordering::Relaxed))
            .field("delayed", &self.delayed.load(Ordering::Relaxed))
            .finish()
    }
}

impl<M: Send + Sync + 'static> ChaosRouter<M> {
    /// Wraps `inner` with the network faults of a plan (lifecycle
    /// faults in the list are filtered out, like `NemesisNet::new`).
    /// The fault-window clock starts now; construct immediately before
    /// `RuntimeBuilder::start` so windows line up with the deployment.
    pub fn new(
        inner: Arc<Router<M>>,
        faults: Vec<Fault>,
        seed: u64,
        metrics: Option<MetricsSink>,
    ) -> Arc<Self> {
        let (delay_tx, delay_rx) = unbounded::<DelayedDelivery<M>>();
        let pump_router = inner.clone();
        // The pump owns delayed deliveries; it drains and exits once the
        // ChaosRouter (the only sender) is dropped.
        std::thread::Builder::new()
            .name("chaos-delay-pump".into())
            .spawn(move || {
                let mut heap: BinaryHeap<DelayedDelivery<M>> = BinaryHeap::new();
                let mut disconnected = false;
                loop {
                    let now = Instant::now();
                    while heap.peek().is_some_and(|d| d.due <= now) {
                        let d = heap.pop().expect("peeked");
                        pump_router.send(d.from, d.to, d.msg);
                    }
                    if disconnected && heap.is_empty() {
                        return;
                    }
                    let wait = heap
                        .peek()
                        .map(|d| d.due.saturating_duration_since(Instant::now()))
                        .unwrap_or(Duration::from_millis(50));
                    match delay_rx.recv_timeout(wait) {
                        Ok(delivery) => heap.push(delivery),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => disconnected = true,
                    }
                }
            })
            .expect("thread spawn");
        Arc::new(ChaosRouter {
            inner,
            faults: faults.into_iter().filter(|f| f.is_net()).collect(),
            epoch: Instant::now(),
            rng: Mutex::new(SimRng::seed_from(seed ^ 0x6c69_7665_6e65_7421)), // "livenet!"
            delay_tx,
            seq: AtomicU64::new(0),
            metrics,
            dropped: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        })
    }

    /// Elapsed wall time as the plan's clock.
    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.epoch.elapsed().as_nanos() as u64)
    }

    /// Messages (dropped, duplicated, delayed) by injection so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.dropped.load(Ordering::Relaxed),
            self.duplicated.load(Ordering::Relaxed),
            self.delayed.load(Ordering::Relaxed),
        )
    }

    fn incr(&self, counter: &AtomicU64, name: MetricId) {
        counter.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = &self.metrics {
            metrics.incr(name);
        }
    }

    fn deliver(&self, from: NodeId, to: NodeId, msg: M, extra: SimDuration) {
        if extra == SimDuration::ZERO {
            self.inner.send(from, to, msg);
            return;
        }
        self.incr(&self.delayed, MetricId::RT_CHAOS_DELAYED);
        let delivery = DelayedDelivery {
            due: Instant::now() + Duration::from_nanos(extra.as_nanos()),
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            from,
            to,
            msg,
        };
        if self.delay_tx.send(delivery).is_err() {
            // Pump gone (teardown race): the message is just lost, like
            // a packet in flight when the deployment stops.
        }
    }
}

impl<M: Send + Sync + Clone + 'static> Transport<M> for ChaosRouter<M> {
    fn send(&self, from: NodeId, to: NodeId, msg: M) {
        // Environment/control traffic is exempt from injection.
        if from == NodeId::ENV {
            self.inner.send(from, to, msg);
            return;
        }
        let now = self.now();
        // 1. Partitions: certain loss.
        if self.faults.iter().any(|f| f.severs(from, to, now)) {
            self.incr(&self.dropped, MetricId::RT_CHAOS_DROPPED);
            return;
        }
        // 2..5 need the decision stream.
        let (drop, duplicate, extra) = {
            let mut rng = self.rng.lock().unwrap_or_else(|e| e.into_inner());
            let mut drop = false;
            let mut duplicate = false;
            let mut extra = SimDuration::ZERO;
            for fault in &self.faults {
                match fault {
                    // 2. Injected random loss.
                    Fault::Drop { window, prob } if window.contains(now) => {
                        drop = drop || rng.chance(*prob);
                    }
                    // 4. Duplication of a surviving delivery.
                    Fault::Duplicate { window, prob } if window.contains(now) => {
                        duplicate = duplicate || rng.chance(*prob);
                    }
                    // 5. Delay spikes stretch the delivery.
                    Fault::DelaySpike { window, extra_min, extra_max }
                        if window.contains(now) =>
                    {
                        let span = extra_max.as_nanos().saturating_sub(extra_min.as_nanos());
                        let add = if span == 0 {
                            *extra_min
                        } else {
                            SimDuration::from_nanos(extra_min.as_nanos() + rng.range(0, span))
                        };
                        extra = extra + add;
                    }
                    _ => {}
                }
            }
            (drop, duplicate, extra)
        };
        if drop {
            self.incr(&self.dropped, MetricId::RT_CHAOS_DROPPED);
            return;
        }
        // 3. The inner router's own link policy applies per delivery
        // inside `deliver` (`Router::send`), like the sim's base verdict.
        if duplicate {
            self.incr(&self.duplicated, MetricId::RT_CHAOS_DUPLICATED);
            // Trailing copy: same fate machinery, shifted by up to the
            // injected extra plus a millisecond of reordering jitter.
            let trail = extra + SimDuration::from_millis(1);
            self.deliver(from, to, msg.clone(), trail);
        }
        self.deliver(from, to, msg, extra);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::Envelope;
    use wanacl_sim::nemesis::NemesisPlan;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    fn harness(
        faults: Vec<Fault>,
    ) -> (Arc<ChaosRouter<u32>>, crossbeam::channel::Receiver<Envelope<u32>>, NodeId) {
        let router: Arc<Router<u32>> = Router::new();
        let (tx, rx) = crossbeam::channel::bounded(1024);
        let id = router.register(tx);
        let chaos = ChaosRouter::new(router, faults, 7, None);
        (chaos, rx, id)
    }

    #[test]
    fn partition_window_severs_then_heals() {
        // Sever 0 -> target for the first 200ms of the run.
        let plan = NemesisPlan::builder(SimTime::from_secs(60))
            .partition(vec![n(9)], vec![n(0)], SimTime::ZERO, SimTime::from_millis(200))
            .build();
        let (chaos, rx, id) = harness(plan.net_faults().to_vec());
        assert_eq!(id, n(0));
        chaos.send(n(9), id, 1);
        assert!(rx.try_recv().is_err(), "partition must sever");
        assert_eq!(chaos.stats().0, 1);
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
        let (chaos, rx, id) = harness(plan.net_faults().to_vec());
        chaos.send(NodeId::ENV, id, 5);
        assert!(rx.try_recv().is_ok(), "env sends must not be dropped");
        chaos.send(n(3), id, 6);
        assert!(rx.try_recv().is_err(), "certain loss drops protocol sends");
        assert_eq!(chaos.stats().0, 1);
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
        let (chaos, rx, id) = harness(plan.net_faults().to_vec());
        let sent_at = Instant::now();
        chaos.send(n(3), id, 9);
        let mut got = 0;
        while got < 2 {
            match rx.recv_timeout(Duration::from_secs(2)) {
                Ok(Envelope::Msg { msg, .. }) => {
                    assert_eq!(msg, 9);
                    got += 1;
                }
                other => panic!("expected duplicate deliveries, got {other:?}"),
            }
        }
        assert!(
            sent_at.elapsed() >= Duration::from_millis(20),
            "the delay spike must defer delivery"
        );
        let (dropped, duplicated, delayed) = chaos.stats();
        assert_eq!((dropped, duplicated), (0, 1));
        assert!(delayed >= 2, "both copies ride the pump: {delayed}");
    }
}
