//! In-process message routing between node threads.

use crossbeam::channel::{Sender, TrySendError};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use wanacl_sim::metrics::MetricId;
use wanacl_sim::node::NodeId;
use wanacl_sim::obs::MetricsSink;

use crate::runtime::{CellPush, NodeCell};

/// An inbox item delivered through a raw channel mailbox (the
/// [`Router::register`] path used by router/chaos tests and external
/// taps). Pool-backed nodes instead receive `(from, msg)` pairs through
/// their `NodeCell`; lifecycle commands travel on the runtime's
/// control lane and never appear on either data path.
#[derive(Debug)]
pub enum Envelope<M> {
    /// A routed protocol message, moved to its one recipient.
    Msg {
        /// The sender.
        from: NodeId,
        /// The payload.
        msg: M,
    },
}

/// What node threads use to emit traffic: implemented by [`Router`]
/// directly and by decorators such as [`crate::chaos::ChaosRouter`]
/// that perturb delivery before handing off to the inner router.
///
/// Data-plane only — lifecycle envelopes never travel through a
/// `Transport`, so fault injection can never eat a `Halt`.
pub trait Transport<M: Send + Sync + 'static>: Send + Sync {
    /// Routes one message.
    fn send(&self, from: NodeId, to: NodeId, msg: M);
}

/// A per-message admission check the router makes at send time: the
/// benchmark's loss hook ([`LossyPolicy`]). Injected network faults —
/// partitions included — are not link policies: they are a
/// [`NemesisPlan`](wanacl_sim::nemesis::NemesisPlan)'s, decided by the
/// [`crate::chaos::ChaosRouter`] transport.
pub trait LinkPolicy<M>: Send + Sync {
    /// Whether the message may be delivered.
    fn allow(&self, from: NodeId, to: NodeId, msg: &M) -> bool;
}

/// Pseudo-random message loss: drops a deterministic fraction of
/// messages using a per-policy counter hash (deterministic in *send
/// order*, which under threads is itself nondeterministic — fine for
/// live chaos testing).
#[derive(Debug)]
pub struct LossyPolicy {
    /// Drop `numerator` out of every `denominator` messages.
    numerator: u64,
    denominator: u64,
    counter: AtomicU64,
}

impl LossyPolicy {
    /// Drops roughly `fraction` of all messages.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ fraction < 1`.
    pub fn new(fraction: f64) -> Arc<Self> {
        assert!((0.0..1.0).contains(&fraction), "loss fraction must be in [0,1)");
        let denominator = 1_000;
        Arc::new(LossyPolicy {
            numerator: (fraction * denominator as f64).round() as u64,
            denominator,
            counter: AtomicU64::new(0),
        })
    }
}

impl<M> LinkPolicy<M> for LossyPolicy {
    fn allow(&self, _from: NodeId, _to: NodeId, _msg: &M) -> bool {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        // Golden-ratio hash spreads drops evenly through the stream.
        let h = n.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32;
        (h % self.denominator) >= self.numerator
    }
}

/// Routes messages to node inboxes, applying the link policy.
///
/// Inboxes are bounded (4,096 data messages on the worker pool);
/// the overflow policy is drop-newest: a message that finds the
/// destination queue full is discarded and counted (`rt.inbox_overflow`
/// in the attached metrics sink), exactly like a NIC ring overrun. Only
/// data-plane messages can overflow — lifecycle envelopes bypass the
/// bound on the channel's control lane.
///
/// The worker pool's cells are a table frozen when the runtime starts
/// (restart revives a cell in place, so a node id's mailbox never
/// changes), and the link policy is consulted only once one has been
/// installed: a message between pooled nodes takes no router lock.
/// Channel taps ([`Router::register`]) may come and go at any time and
/// sit behind a lock, with ids following the cells'.
pub struct Router<M> {
    cells: OnceLock<Box<[Arc<NodeCell<M>>]>>,
    taps: RwLock<Vec<Sender<Envelope<M>>>>,
    policy: RwLock<Option<Arc<dyn LinkPolicy<M>>>>,
    /// Whether `policy` holds one; never cleared.
    has_policy: AtomicBool,
    metrics: RwLock<Option<MetricsSink>>,
    /// Sends no cell counted: policy drops and traffic to taps or to
    /// unknown ids. A send to a cell is counted under the cell's lock,
    /// which the push takes anyway.
    uncelled: AtomicU64,
    dropped: AtomicU64,
    overflowed: AtomicU64,
}

impl<M> std::fmt::Debug for Router<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Router")
            .field("nodes", &(self.pool_cells().len() + self.taps.read().len()))
            .field("sent", &self.sent())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .field("overflowed", &self.overflowed.load(Ordering::Relaxed))
            .finish()
    }
}

impl<M> Router<M> {
    fn pool_cells(&self) -> &[Arc<NodeCell<M>>] {
        self.cells.get().map_or(&[], |cells| cells)
    }

    fn sent(&self) -> u64 {
        let celled: u64 = self.pool_cells().iter().map(|cell| cell.sent()).sum();
        celled + self.uncelled.load(Ordering::Relaxed)
    }
}

impl<M: Send + Sync + 'static> Router<M> {
    /// Creates an empty router delivering everything.
    pub fn new() -> Arc<Self> {
        Arc::new(Router {
            cells: OnceLock::new(),
            taps: RwLock::new(Vec::new()),
            policy: RwLock::new(None),
            has_policy: AtomicBool::new(false),
            metrics: RwLock::new(None),
            uncelled: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            overflowed: AtomicU64::new(0),
        })
    }

    /// Installs a link policy.
    pub fn set_policy(&self, policy: Arc<dyn LinkPolicy<M>>) {
        *self.policy.write() = Some(policy);
        // Release pairs with the Acquire in `policy`: a sender that
        // sees the flag takes the lock and finds the policy.
        self.has_policy.store(true, Ordering::Release);
    }

    /// The installed policy, if any — one atomic load when there is none.
    fn policy(&self) -> Option<Arc<dyn LinkPolicy<M>>> {
        if self.has_policy.load(Ordering::Acquire) {
            self.policy.read().clone()
        } else {
            None
        }
    }

    /// Attaches a sink for the router's own counters
    /// (`rt.inbox_overflow`).
    pub fn set_metrics(&self, metrics: MetricsSink) {
        *self.metrics.write() = Some(metrics);
    }

    /// Registers a channel-backed mailbox and returns the id it will
    /// receive under. Deliveries arrive as [`Envelope`]s via `try_send`
    /// (a full or closed channel is a silent network drop). The worker
    /// pool's cells are frozen at start instead; this entry point
    /// serves test drivers and external observers that tap the traffic
    /// directly.
    pub fn register(&self, sender: Sender<Envelope<M>>) -> NodeId {
        let mut taps = self.taps.write();
        taps.push(sender);
        NodeId::from_index(self.pool_cells().len() + taps.len() - 1)
    }

    /// Installs the worker pool's inbox cells as ids `0..cells.len()`,
    /// once, before any tap is registered.
    pub(crate) fn freeze_cells(&self, cells: Vec<Arc<NodeCell<M>>>) {
        assert!(self.taps.read().is_empty(), "cells take the first ids");
        assert!(self.cells.set(cells.into()).is_ok(), "cells are frozen once");
    }

    /// Routes one message; silently drops on policy denial, a full
    /// inbox, or a closed inbox (matching the unreliable-network model).
    pub fn send(&self, from: NodeId, to: NodeId, msg: M) {
        if self.policy().is_some_and(|policy| !policy.allow(from, to, &msg)) {
            self.uncelled.fetch_add(1, Ordering::Relaxed);
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let cells = self.pool_cells();
        match cells.get(to.index()) {
            Some(cell) => {
                if cell.push_data(from, msg) == CellPush::Full {
                    self.count_overflow();
                }
            }
            None => {
                self.uncelled.fetch_add(1, Ordering::Relaxed);
                self.send_to_tap(to.index() - cells.len(), from, msg);
            }
        }
    }

    /// Sends `msgs` to one peer in order, one [`Router::send`] each.
    /// Not a product path: it exists because `wanbench`'s
    /// `router.send_batch_ns_per_msg` probe calls it with this
    /// signature, and goes when ROADMAP's "Delete what only the frozen
    /// benchmark holds alive" retires that metric.
    pub fn send_batch(&self, from: NodeId, to: NodeId, msgs: Vec<Arc<M>>)
    where
        M: Clone,
    {
        for msg in msgs {
            self.send(from, to, Arc::try_unwrap(msg).unwrap_or_else(|shared| (*shared).clone()));
        }
    }

    fn send_to_tap(&self, tap: usize, from: NodeId, msg: M) {
        let taps = self.taps.read();
        let Some(sender) = taps.get(tap) else { return };
        match sender.try_send(Envelope::Msg { from, msg }) {
            Ok(()) => {}
            // Drop-newest overflow: the receiver is wedged or badly
            // behind; shedding here keeps senders from blocking and
            // makes backpressure observable.
            Err(TrySendError::Full(_)) => self.count_overflow(),
            // A dead inbox is a down node: the network just loses the
            // message.
            Err(TrySendError::Disconnected(_)) => {}
        }
    }

    fn count_overflow(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
        self.overflowed.fetch_add(1, Ordering::Relaxed);
        if let Some(metrics) = self.metrics.read().as_ref() {
            metrics.incr(MetricId::RT_INBOX_OVERFLOW);
        }
    }

    /// Messages sent / dropped so far (drops include overflows).
    pub fn stats(&self) -> (u64, u64) {
        (self.sent(), self.dropped.load(Ordering::Relaxed))
    }

    /// Messages dropped because the destination inbox was full.
    pub fn overflowed(&self) -> u64 {
        self.overflowed.load(Ordering::Relaxed)
    }
}

impl<M: Send + Sync + 'static> Transport<M> for Router<M> {
    fn send(&self, from: NodeId, to: NodeId, msg: M) {
        Router::send(self, from, to, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Scheduler;
    use crossbeam::channel::unbounded;
    use wanacl_sim::clock::DriftClock;
    use wanacl_sim::rng::SimRng;

    /// A cell's step state for tests that never step it.
    fn perfect() -> (SimRng, DriftClock) {
        (SimRng::seed_from(0), DriftClock::perfect())
    }

    #[test]
    fn routes_to_registered_inbox() {
        let router: Arc<Router<u32>> = Router::new();
        let (tx, rx) = unbounded();
        let id = router.register(tx);
        router.send(NodeId::ENV, id, 42);
        let Envelope::Msg { msg, .. } = rx.try_recv().expect("delivered");
        assert_eq!(msg, 42);
    }

    #[test]
    fn lossy_policy_drops_roughly_the_requested_fraction() {
        let router: Arc<Router<u32>> = Router::new();
        let (tx, rx) = unbounded();
        let id = router.register(tx);
        router.set_policy(LossyPolicy::new(0.3));
        for i in 0..10_000 {
            router.send(NodeId::ENV, id, i);
        }
        let delivered = rx.try_iter().count();
        assert!((6_500..7_500).contains(&delivered), "delivered {delivered}");
    }

    #[test]
    #[should_panic(expected = "loss fraction")]
    fn lossy_policy_rejects_certain_loss() {
        let _ = LossyPolicy::new(1.0);
    }

    #[test]
    fn send_to_unknown_node_is_silent() {
        let router: Arc<Router<u32>> = Router::new();
        router.send(NodeId::ENV, NodeId::from_index(9), 1);
        assert_eq!(router.stats(), (1, 0));
    }

    #[test]
    fn full_inbox_sheds_newest_and_counts_overflow() {
        let router: Arc<Router<u32>> = Router::new();
        let sink = MetricsSink::new();
        router.set_metrics(sink.clone());
        let (tx, rx) = crossbeam::channel::bounded(2);
        let id = router.register(tx);
        for i in 0..5 {
            router.send(NodeId::ENV, id, i);
        }
        assert_eq!(router.overflowed(), 3);
        assert_eq!(router.stats(), (5, 3));
        assert_eq!(sink.counter("rt.inbox_overflow"), 3);
        // The two oldest messages survived; the overflow dropped newest.
        let got: Vec<u32> = rx
            .try_iter()
            .map(|e| {
                let Envelope::Msg { msg, .. } = e;
                msg
            })
            .collect();
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn send_to_dead_inbox_is_silent() {
        let router: Arc<Router<u32>> = Router::new();
        let (tx, rx) = crossbeam::channel::bounded(4);
        let id = router.register(tx);
        drop(rx); // the node thread died
        router.send(NodeId::ENV, id, 1);
        assert_eq!(router.stats(), (1, 0));
        assert_eq!(router.overflowed(), 0);
    }

    #[test]
    fn pool_mailbox_sheds_newest_wakes_once_and_dies_silently() {
        let router: Arc<Router<u32>> = Router::new();
        let sink = MetricsSink::new();
        router.set_metrics(sink.clone());
        let sched = Scheduler::new(1);
        let cell = NodeCell::new(0, 2, sched.clone(), perfect());
        router.freeze_cells(vec![cell.clone()]);
        let id = NodeId::from_index(0);
        for i in 0..5 {
            router.send(NodeId::ENV, id, i);
        }
        assert_eq!(router.overflowed(), 3);
        assert_eq!(router.stats(), (5, 3), "the cell counts shed sends too");
        assert_eq!(sink.counter("rt.inbox_overflow"), 3);
        assert_eq!(sched.queued(0), 1, "one run-queue entry per scheduling flip");
        let (mut ctl, mut data) = (Vec::new(), Vec::new());
        cell.drain(16, &mut ctl, &mut data);
        assert!(ctl.is_empty());
        let got: Vec<u32> = data.iter().map(|(_, m)| *m).collect();
        assert_eq!(got, vec![0, 1], "drop-newest kept the oldest two");
        assert!(!cell.finish_step(), "both lanes are empty: the step unschedules the node");
        // A dead cell swallows traffic silently, like a down host.
        cell.clear_dead();
        router.send(NodeId::ENV, id, 9);
        assert_eq!(router.overflowed(), 3);
        data.clear();
        cell.drain(16, &mut ctl, &mut data);
        assert!(data.is_empty());
    }

    #[test]
    fn taps_registered_after_the_freeze_take_the_ids_behind_the_cells() {
        let router: Arc<Router<u32>> = Router::new();
        let cell = NodeCell::new(0, 8, Scheduler::new(1), perfect());
        router.freeze_cells(vec![cell.clone()]);
        let (tx, rx) = unbounded();
        let tap = router.register(tx);
        assert_eq!(tap, NodeId::from_index(1));
        router.send(NodeId::ENV, tap, 5);
        router.send_batch(NodeId::ENV, tap, vec![Arc::new(6), Arc::new(7)]);
        router.send(NodeId::ENV, NodeId::from_index(0), 8);
        let tapped: Vec<u32> = rx
            .try_iter()
            .map(|e| {
                let Envelope::Msg { msg, .. } = e;
                msg
            })
            .collect();
        assert_eq!(tapped, vec![5, 6, 7]);
        let (mut ctl, mut data) = (Vec::new(), Vec::new());
        cell.drain(16, &mut ctl, &mut data);
        assert_eq!(data.len(), 1, "the cell still gets its own traffic");
    }

    #[test]
    fn batch_applies_policy_per_message() {
        let router: Arc<Router<u32>> = Router::new();
        let cell = NodeCell::new(0, 2000, Scheduler::new(1), perfect());
        router.freeze_cells(vec![cell]);
        let id = NodeId::from_index(0);
        router.set_policy(LossyPolicy::new(0.5));
        let msgs: Vec<Arc<u32>> = (0..1000).map(Arc::new).collect();
        router.send_batch(NodeId::ENV, id, msgs);
        let (sent, dropped) = router.stats();
        assert_eq!(sent, 1000);
        assert!((300..700).contains(&dropped), "dropped {dropped}");
    }
}
