//! The stepping harness node unit tests share: drives one event of a
//! node — a message, a timer, a start or a recovery — on a seed-1 RNG at
//! a settable local time, and returns the effects it produced.

use wanacl_sim::clock::LocalTime;
use wanacl_sim::node::{Context, Effect, Node, NodeId};
use wanacl_sim::rng::SimRng;

use crate::audit::AuditEvent;
use crate::msg::ProtoMsg;

pub(crate) struct Harness {
    rng: SimRng,
    next_timer: u64,
    pub(crate) now: LocalTime,
    pub(crate) id: NodeId,
}

/// A sender: a node index, or a [`NodeId`] such as [`NodeId::ENV`].
pub(crate) trait Sender {
    fn node(self) -> NodeId;
}

impl Sender for usize {
    fn node(self) -> NodeId {
        NodeId::from_index(self)
    }
}

impl Sender for NodeId {
    fn node(self) -> NodeId {
        self
    }
}

impl Harness {
    /// A harness stepping node `id`.
    pub(crate) fn new(id: usize) -> Self {
        Harness { rng: SimRng::seed_from(1), next_timer: 0, now: LocalTime::ZERO, id: NodeId::from_index(id) }
    }

    /// Moves the local clock to `nanos`.
    pub(crate) fn at(&mut self, nanos: u64) -> &mut Self {
        self.now = LocalTime::from_nanos(nanos);
        self
    }

    fn step<N: Node<Msg = ProtoMsg>>(
        &mut self,
        node: &mut N,
        event: impl FnOnce(&mut N, &mut Context<'_, ProtoMsg>),
    ) -> Vec<Effect<ProtoMsg>> {
        let mut effects = Vec::new();
        let mut ctx = Context::new(self.id, self.now, &mut effects, &mut self.rng, &mut self.next_timer);
        event(node, &mut ctx);
        effects
    }

    pub(crate) fn deliver<N: Node<Msg = ProtoMsg>>(
        &mut self,
        node: &mut N,
        from: impl Sender,
        msg: ProtoMsg,
    ) -> Vec<Effect<ProtoMsg>> {
        self.step(node, |n, ctx| n.on_message(ctx, from.node(), msg))
    }

    pub(crate) fn start<N: Node<Msg = ProtoMsg>>(&mut self, node: &mut N) -> Vec<Effect<ProtoMsg>> {
        self.step(node, |n, ctx| n.on_start(ctx))
    }

    pub(crate) fn timer<N: Node<Msg = ProtoMsg>>(&mut self, node: &mut N, tag: u64) -> Vec<Effect<ProtoMsg>> {
        self.step(node, |n, ctx| n.on_timer(ctx, tag))
    }

    pub(crate) fn recover<N: Node<Msg = ProtoMsg>>(&mut self, node: &mut N) -> Vec<Effect<ProtoMsg>> {
        self.step(node, |n, ctx| n.on_recover(ctx))
    }
}

/// Every send in `effects`, in order.
pub(crate) fn sends(effects: &[Effect<ProtoMsg>]) -> Vec<(NodeId, &ProtoMsg)> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Send { to, msg } => Some((*to, msg)),
            _ => None,
        })
        .collect()
}

/// Every audit event in `effects`, in order.
pub(crate) fn traces(effects: &[Effect<ProtoMsg>]) -> Vec<&AuditEvent> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Trace { text } => text.record(),
            _ => None,
        })
        .collect()
}

/// The name of every counter bumped in `effects`, in order.
pub(crate) fn metric_incrs(effects: &[Effect<ProtoMsg>]) -> Vec<&'static str> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::MetricIncr { name } => Some(name.def().name),
            _ => None,
        })
        .collect()
}
