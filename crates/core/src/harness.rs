//! The stepping harness node unit tests share: drives one event of a
//! node — a message, a timer, a start or a recovery — through the step
//! rule both executors run ([`Step::run`]), on a seed-1 RNG and a perfect
//! clock at a settable local time, and returns what the rule handed its
//! sink, recorded.

use wanacl_sim::clock::{DriftClock, LocalTime};
use wanacl_sim::metrics::MetricId;
use wanacl_sim::node::{Armed, Context, Effect, Life, Node, NodeId, Note, Sink, Step, Timer};
use wanacl_sim::rng::SimRng;
use wanacl_sim::time::SimTime;

use crate::audit::AuditEvent;
use crate::msg::ProtoMsg;

/// One call the recording sink — a `Vec<Output>` — saw.
#[derive(Debug)]
pub(crate) enum Output {
    Send { to: NodeId, msg: ProtoMsg },
    Arm,
    Note { text: Note },
    Incr { name: MetricId },
    Observe { name: MetricId },
}

impl Sink<ProtoMsg> for Vec<Output> {
    fn send(&mut self, _from: NodeId, to: NodeId, msg: ProtoMsg) {
        self.push(Output::Send { to, msg });
    }
    fn arm(&mut self, _due: SimTime, _timer: Timer) -> Option<Armed> {
        self.push(Output::Arm);
        None
    }
    fn note(&mut self, _from: NodeId, text: Note) {
        self.push(Output::Note { text });
    }
    fn incr(&mut self, name: MetricId) {
        self.push(Output::Incr { name });
    }
    fn observe(&mut self, name: MetricId, _value: f64) {
        self.push(Output::Observe { name });
    }
}

pub(crate) struct Harness {
    life: Life,
    rng: SimRng,
    effects: Vec<Effect<ProtoMsg>>,
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
        Harness {
            life: Life::default(),
            rng: SimRng::seed_from(1),
            effects: Vec::new(),
            now: LocalTime::ZERO,
            id: NodeId::from_index(id),
        }
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
    ) -> Vec<Output> {
        let mut out = Vec::new();
        let clock = DriftClock::perfect();
        let mut step = Step { id: self.id, life: &mut self.life, rng: &mut self.rng, clock: &clock };
        step.run(SimTime::from_nanos(self.now.as_nanos()), &mut self.effects, &mut out, |ctx| event(node, ctx));
        out
    }

    pub(crate) fn deliver<N: Node<Msg = ProtoMsg>>(
        &mut self,
        node: &mut N,
        from: impl Sender,
        msg: ProtoMsg,
    ) -> Vec<Output> {
        self.step(node, |n, ctx| n.on_message(ctx, from.node(), msg))
    }

    pub(crate) fn start<N: Node<Msg = ProtoMsg>>(&mut self, node: &mut N) -> Vec<Output> {
        self.step(node, |n, ctx| n.on_start(ctx))
    }

    pub(crate) fn timer<N: Node<Msg = ProtoMsg>>(&mut self, node: &mut N, tag: u64) -> Vec<Output> {
        self.step(node, |n, ctx| n.on_timer(ctx, tag))
    }

    pub(crate) fn recover<N: Node<Msg = ProtoMsg>>(&mut self, node: &mut N) -> Vec<Output> {
        self.step(node, |n, ctx| n.on_recover(ctx))
    }
}

/// Every send in `out`, in order.
pub(crate) fn sends(out: &[Output]) -> Vec<(NodeId, &ProtoMsg)> {
    out.iter()
        .filter_map(|e| match e {
            Output::Send { to, msg } => Some((*to, msg)),
            _ => None,
        })
        .collect()
}

/// Every audit event in `out`, in order.
pub(crate) fn traces(out: &[Output]) -> Vec<&AuditEvent> {
    out.iter()
        .filter_map(|e| match e {
            Output::Note { text } => text.record(),
            _ => None,
        })
        .collect()
}

/// The name of every counter bumped in `out`, in order.
pub(crate) fn metric_incrs(out: &[Output]) -> Vec<&'static str> {
    out.iter()
        .filter_map(|e| match e {
            Output::Incr { name } => Some(name.def().name),
            _ => None,
        })
        .collect()
}
