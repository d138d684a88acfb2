//! Node identity, the [`Node`] behaviour trait, the [`Context`] handed
//! to a node while it handles an event, and the step rule both executors
//! run a node by.
//!
//! Nodes are deliberately cut off from real simulation time: the only clock
//! a node can read through its [`Context`] is its own (possibly drifting)
//! local clock, exactly as in a real deployment. Timers are likewise set in
//! local-clock units; the step rule converts them to real time using the
//! node's clock rate.
//!
//! # The step rule
//!
//! A node is the same function of (local time, event, RNG stream) on the
//! simulated [`crate::world::World`] and on the live runtime, because both
//! run it through what this module defines once:
//! - [`Streams`], the stream rule: how a seed becomes each node's RNG
//!   stream and clock;
//! - [`Life`], the per-node step state beside that stream and clock: the
//!   up flag, the incarnation, the timer-id counter and the armed
//!   timers, with the lifecycle transitions and the timer-fire rule;
//! - [`Step`], the one effect dispatch: it builds the [`Context`], runs
//!   the handler and drains the effects into a [`Sink`], which each
//!   executor implements and a test substitutes a recording fake for.

use std::any::Any;
use std::fmt;

use crate::clock::{ClockSpec, DriftClock, LocalTime};
use crate::hash::FxHashMap;
use crate::metrics::MetricId;
use crate::queue::Handle;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Identifies a node in the simulated world.
///
/// Ids are dense indexes assigned by [`crate::world::World::add_node`].
/// [`NodeId::ENV`] is a reserved pseudo-sender for events injected by the
/// experiment harness rather than by another node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Pseudo-sender for harness-injected events.
    pub const ENV: NodeId = NodeId(u32::MAX);

    /// The raw index (stable for the lifetime of the world).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an id from a raw index. Only meaningful for ids previously
    /// produced by the same world.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(index as u32)
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == NodeId::ENV {
            write!(f, "n[env]")
        } else {
            write!(f, "n{}", self.0)
        }
    }
}

/// Handle for a pending timer, used to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

impl TimerId {
    /// The id of a disk's wake ([`crate::storage::Waker`]): a timer that
    /// is never armed or cancelled, so only the node's lifecycle decides
    /// whether it fires.
    pub(crate) const WAKE: TimerId = TimerId(u64::MAX);

    /// The raw id: the node's count of timers armed before this one.
    pub fn into_raw(self) -> u64 {
        self.0
    }
}

/// A typed trace record: a value that prints its own line. Implemented
/// for every `Display + Debug + Clone + Send + Sync + 'static` type.
pub trait Record: fmt::Display + fmt::Debug + Any + Send + Sync {
    /// Clones into a fresh box (what makes [`Note`] `Clone`).
    fn clone_box(&self) -> Box<dyn Record>;
}

impl<T: fmt::Display + fmt::Debug + Clone + Any + Send + Sync> Record for T {
    fn clone_box(&self) -> Box<dyn Record> {
        Box::new(self.clone())
    }
}

/// What a node hands to [`Context::trace`]: free text, or a typed
/// [`Record`] that is rendered only by whoever exports the trace.
///
/// The record is type-erased because [`Node`] names only its message
/// type; a consumer that knows the concrete type reads it back with
/// [`Note::record`]. Two notes are equal when they print the same line.
#[derive(Debug)]
pub enum Note {
    /// A line the node formatted itself.
    Text(String),
    /// A typed record, printed through its `Display`.
    Record(Box<dyn Record>),
}

/// Counts the bytes written through it.
struct ByteCount(usize);

impl fmt::Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }
}

impl Note {
    /// Wraps a typed record.
    pub fn of(record: impl Record) -> Note {
        Note::Record(Box::new(record))
    }

    /// The record, if this note carries one of type `T`.
    pub fn record<T: Record>(&self) -> Option<&T> {
        match self {
            Note::Text(_) => None,
            Note::Record(r) => {
                let any: &dyn Any = &**r;
                any.downcast_ref()
            }
        }
    }

    /// Bytes in the rendered line, counted without building it.
    pub fn len(&self) -> usize {
        use fmt::Write as _;
        let mut count = ByteCount(0);
        let _ = write!(count, "{self}");
        count.0
    }

    /// Whether the rendered line is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl fmt::Display for Note {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Note::Text(text) => f.write_str(text),
            Note::Record(record) => record.fmt(f),
        }
    }
}

impl Clone for Note {
    fn clone(&self) -> Note {
        match self {
            Note::Text(text) => Note::Text(text.clone()),
            Note::Record(record) => Note::Record((**record).clone_box()),
        }
    }
}

impl PartialEq for Note {
    fn eq(&self, other: &Note) -> bool {
        match (self, other) {
            (Note::Text(a), Note::Text(b)) => a == b,
            _ => self.to_string() == other.to_string(),
        }
    }
}

impl From<String> for Note {
    fn from(text: String) -> Note {
        Note::Text(text)
    }
}

impl From<&str> for Note {
    fn from(text: &str) -> Note {
        Note::Text(text.to_owned())
    }
}

/// Side effects a node requests while handling an event.
///
/// Collected by the [`Context`] and executed by the driver (the simulated
/// [`crate::world::World`], or a real-time runtime) after the handler
/// returns, which keeps handlers pure with respect to their environment.
#[derive(Debug)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum Effect<M> {
    /// Transmit a message over the network.
    Send { to: NodeId, msg: M },
    /// Arm a timer measured on the node's local clock.
    SetTimer { id: TimerId, local_delay: SimDuration, tag: u64 },
    /// Disarm a pending timer.
    CancelTimer { id: TimerId },
    /// Emit a trace note.
    Trace { text: Note },
    /// Increment a run-level counter.
    MetricIncr { name: MetricId },
    /// Record a run-level histogram sample.
    MetricObserve { name: MetricId, value: f64 },
}

/// The environment a node sees while handling one event.
///
/// All interaction with the outside world goes through this handle:
/// reading the local clock, sending messages, and managing timers.
#[derive(Debug)]
pub struct Context<'a, M> {
    pub(crate) id: NodeId,
    pub(crate) local_now: LocalTime,
    pub(crate) effects: &'a mut Vec<Effect<M>>,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) next_timer: &'a mut u64,
    /// Whether the driver consumes [`Effect::Trace`]; see
    /// [`Context::with_notes`].
    pub(crate) notes: bool,
}

impl<'a, M> Context<'a, M> {
    /// Builds a context for one event dispatch.
    ///
    /// [`Step::run`] calls this for both executors; node code only ever
    /// receives a ready-made context. `next_timer` is the node's own
    /// timer-id counter ([`Life`] keeps it): each
    /// [`Context::set_timer`] takes its value and adds one. Trace notes
    /// are on; a driver that drops them says so with
    /// [`Context::with_notes`].
    pub fn new(
        id: NodeId,
        local_now: LocalTime,
        effects: &'a mut Vec<Effect<M>>,
        rng: &'a mut SimRng,
        next_timer: &'a mut u64,
    ) -> Self {
        Context { id, local_now, effects, rng, next_timer, notes: true }
    }

    /// Tells the node whether this driver consumes trace notes. With
    /// notes off, [`Context::trace`] and [`Context::trace_record`] emit
    /// nothing and the note is never built — the rule
    /// `World::wants_message_events` applies to `Sent`/`Delivered`
    /// descriptions. The simulator always leaves notes on, so its event
    /// indices, traces and digests do not depend on who is listening.
    pub fn with_notes(mut self, on: bool) -> Self {
        self.notes = on;
        self
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The node's local clock reading for the current event.
    ///
    /// This is the only notion of time a node may observe; it advances at
    /// the node's clock rate, not at real time.
    pub fn local_now(&self) -> LocalTime {
        self.local_now
    }

    /// Queues a message to `to`. Delivery (and whether it happens at all)
    /// is decided by the world's network model.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.effects.push(Effect::Send { to, msg });
    }

    /// Queues the same message to every node in `to` (unreliable multicast,
    /// modelled as independent point-to-point sends as in §2.2).
    pub fn multicast<I>(&mut self, to: I, msg: M)
    where
        I: IntoIterator<Item = NodeId>,
        M: Clone,
    {
        for dest in to {
            self.send(dest, msg.clone());
        }
    }

    /// Schedules a timer to fire after `local_delay` units of this node's
    /// local clock. Returns a handle usable with [`Context::cancel_timer`].
    ///
    /// Timers do not survive a crash: a node that crashes and recovers will
    /// not see timers set in its previous incarnation.
    pub fn set_timer(&mut self, local_delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId(*self.next_timer);
        *self.next_timer += 1;
        self.effects.push(Effect::SetTimer { id, local_delay, tag });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired or unknown
    /// timer is a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.effects.push(Effect::CancelTimer { id });
    }

    /// Deterministic per-run randomness for protocol-level choices (e.g.
    /// picking which manager to query first).
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Appends a note to the world trace (no-op when the driver drops
    /// notes).
    pub fn trace(&mut self, text: impl Into<Note>) {
        if self.notes {
            self.effects.push(Effect::Trace { text: text.into() });
        }
    }

    /// [`Context::trace`] for a typed [`Record`]: `build` runs only when
    /// the driver consumes notes.
    pub fn trace_record<R: Record>(&mut self, build: impl FnOnce() -> R) {
        if self.notes {
            self.effects.push(Effect::Trace { text: Note::of(build()) });
        }
    }

    /// Increments a run-level counter by one.
    pub fn metric_incr(&mut self, name: MetricId) {
        self.effects.push(Effect::MetricIncr { name });
    }

    /// Records a sample into a run-level histogram.
    pub fn metric_observe(&mut self, name: MetricId, value: f64) {
        self.effects.push(Effect::MetricObserve { name, value });
    }
}

/// Behaviour of a simulated node.
///
/// Implementations should be deterministic functions of their state, the
/// event, and the context's RNG; the world guarantees replayability given
/// that.
pub trait Node {
    /// The message type exchanged on this world's network.
    type Msg: Clone + std::fmt::Debug + 'static;

    /// Called once when the world starts (or not at all for nodes added
    /// after the first step — such nodes start on their first event).
    fn on_start(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Called for each message delivered to this node.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, Self::Msg>, _tag: u64) {}

    /// Called when the fault injector crashes this node. Implementations
    /// should drop volatile state here (e.g. the ACL cache, per §3.4).
    fn on_crash(&mut self) {}

    /// Called when the node recovers after a crash.
    fn on_recover(&mut self, _ctx: &mut Context<'_, Self::Msg>) {}

    /// Downcasting support so harnesses can inspect node state.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The stream rule: how a run's seed becomes one RNG stream and one
/// clock per node.
///
/// The root stream is `SimRng::seed_from(seed)`. The network's stream is
/// forked from it first, as `"net"`, then `node:{i}:{name}` for each node
/// in index order, and each node draws its clock from its own stream
/// before anything else. A fork draws from the root (see
/// [`SimRng::fork`]), so node `i`'s stream is fixed by the seed, `i` and
/// its name; an executor with no simulated network still forks `"net"`.
#[derive(Debug)]
pub struct Streams {
    root: SimRng,
    nodes: usize,
}

impl Streams {
    /// The stream rule of `seed`, and the network's stream.
    pub fn new(seed: u64) -> (Streams, SimRng) {
        let mut root = SimRng::seed_from(seed);
        let net = root.fork("net");
        (Streams { root, nodes: 0 }, net)
    }

    /// The next node's stream, and the clock `spec` draws from it.
    pub fn node(&mut self, name: &str, spec: ClockSpec) -> (SimRng, DriftClock) {
        let mut rng = self.root.fork(&format!("node:{}:{name}", self.nodes));
        self.nodes += 1;
        let clock = spec.build(&mut rng);
        (rng, clock)
    }
}

/// An armed timer as an executor queues it: the node, its id, the tag
/// `on_timer` gets back, and the incarnation that armed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// The node that armed it.
    pub node: NodeId,
    /// Its id in that node's timer-id sequence.
    pub id: TimerId,
    /// The tag handed back to [`Node::on_timer`].
    pub tag: u64,
    /// The node's incarnation when it was armed.
    pub incarnation: u32,
}

/// Where a [`Sink`] queued an armed timer: which of the executor's
/// queues (the live worker's index; the simulator has one) and the
/// timer's handle in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Armed {
    /// The queue holding the timer.
    pub queue: u32,
    /// The timer's handle in that queue.
    pub handle: Handle,
}

/// A node's lifecycle and timer state. With the node's RNG stream and
/// clock it is the step state an executor keeps per node, across
/// crashes and restarts.
///
/// Timer ids start at 0 when the node is added and are never reused. An
/// incarnation ends at a crash, a kill or a restart, and on the live
/// runtime at a stop or a handler panic; a timer armed in an earlier one
/// is void.
/// The armed map holds the node's pending timers of this incarnation,
/// each with where its sink queued it: a timer leaves it when it fires
/// or is cancelled, and a cancel takes it out of its queue too. A timer
/// of an ended incarnation stays queued until it is due, and is void.
#[derive(Debug)]
pub struct Life {
    up: bool,
    incarnation: u32,
    next_timer: u64,
    armed: FxHashMap<u64, Option<Armed>>,
}

impl Default for Life {
    /// A node that was just added: up, incarnation 0, next timer id 0.
    fn default() -> Self {
        Life { up: true, incarnation: 0, next_timer: 0, armed: FxHashMap::default() }
    }
}

impl Life {
    /// Whether the node is up.
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// The incarnation the node is in.
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Timers armed in this incarnation that have neither fired nor
    /// been cancelled.
    pub fn armed(&self) -> usize {
        self.armed.len()
    }

    /// The timer-fire rule, without firing: `timer` fires iff the node
    /// is up, in the incarnation that armed it, and the timer is armed —
    /// or is a disk's wake, which never is. A timer can be judged void
    /// here early and fired later by [`Life::fires`].
    pub fn would_fire(&self, timer: &Timer) -> bool {
        self.up
            && timer.incarnation == self.incarnation
            && (timer.id == TimerId::WAKE || self.armed.contains_key(&timer.id.0))
    }

    /// The timer-fire rule ([`Life::would_fire`]), applied when the
    /// timer is due: a timer that fires is no longer armed.
    pub fn fires(&mut self, timer: &Timer) -> bool {
        let fires = self.would_fire(timer);
        if fires {
            self.armed.remove(&timer.id.0);
        }
        fires
    }

    /// Takes the node down into a new incarnation, voiding its timers.
    /// Returns whether it was up.
    pub fn down(&mut self) -> bool {
        let was_up = std::mem::replace(&mut self.up, false);
        self.incarnation = self.incarnation.wrapping_add(1);
        // Every earlier timer is void by incarnation now.
        self.armed.clear();
        was_up
    }

    /// Brings the node up in the incarnation it is in. Returns whether
    /// it was down.
    fn up(&mut self) -> bool {
        !std::mem::replace(&mut self.up, true)
    }
}

/// Where a step's effects go. Each executor implements it: the simulated
/// world over its event queue and network model, the live worker over
/// its transport and timer calendar. A timer the sink arms is taken out
/// of its queue again when the node cancels it; which timers are armed
/// is step state ([`Life`]).
pub trait Sink<M> {
    /// Hands `msg` from `from` to the network.
    fn send(&mut self, from: NodeId, to: NodeId, msg: M);
    /// Queues `timer` to pop at real instant `due`, and says where for
    /// [`Sink::disarm`]; a sink that keeps no queue (a recording fake)
    /// says `None`.
    fn arm(&mut self, due: SimTime, timer: Timer) -> Option<Armed>;
    /// Takes a cancelled timer out of the queue [`Sink::arm`] put it in.
    /// A timer that already popped is not in it any more.
    fn disarm(&mut self, _armed: Armed) {}
    /// Records a trace note of `from`.
    fn note(&mut self, from: NodeId, text: Note);
    /// Increments a run-level counter.
    fn incr(&mut self, name: MetricId);
    /// Records a run-level histogram sample.
    fn observe(&mut self, name: MetricId, value: f64);
    /// Whether notes are consumed ([`Context::with_notes`]). The
    /// simulator's answer is always yes, so its event indices, traces
    /// and digests do not depend on who is listening.
    fn notes(&self) -> bool {
        true
    }
}

/// One node's step state, borrowed for one step from wherever the
/// executor keeps it: the world's per-node columns, or the live node's
/// cell.
#[derive(Debug)]
pub struct Step<'a> {
    /// The node.
    pub id: NodeId,
    /// Its lifecycle and timer state.
    pub life: &'a mut Life,
    /// Its RNG stream.
    pub rng: &'a mut SimRng,
    /// Its local clock.
    pub clock: &'a DriftClock,
}

impl Step<'_> {
    /// The one effect dispatch: runs `handler` at real instant `at`, with
    /// the node's clock read there as its local time, then drains the
    /// effects into `sink` in order. A timer is due at `at` plus the
    /// real span the clock needs to measure its local delay. `effects`
    /// is an empty scratch buffer, left empty.
    pub fn run<M, S: Sink<M> + ?Sized>(
        &mut self,
        at: SimTime,
        effects: &mut Vec<Effect<M>>,
        sink: &mut S,
        handler: impl FnOnce(&mut Context<'_, M>),
    ) {
        debug_assert!(effects.is_empty());
        let local_now = self.clock.read(at);
        let notes = sink.notes();
        handler(&mut Context::new(self.id, local_now, effects, self.rng, &mut self.life.next_timer).with_notes(notes));
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => sink.send(self.id, to, msg),
                Effect::SetTimer { id, local_delay, tag } => {
                    let timer = Timer { node: self.id, id, tag, incarnation: self.life.incarnation };
                    let armed = sink.arm(at + self.clock.real_duration_for(local_delay), timer);
                    self.life.armed.insert(id.0, armed);
                }
                Effect::CancelTimer { id } => {
                    if let Some(Some(armed)) = self.life.armed.remove(&id.0) {
                        sink.disarm(armed);
                    }
                }
                Effect::Trace { text } => sink.note(self.id, text),
                Effect::MetricIncr { name } => sink.incr(name),
                Effect::MetricObserve { name, value } => sink.observe(name, value),
            }
        }
    }

    /// A crash: an up node goes down into a new incarnation, drops its
    /// volatile state (`on_crash`) and is counted. Returns whether it
    /// was up.
    pub fn crash<M, N: Node<Msg = M> + ?Sized, S: Sink<M> + ?Sized>(
        &mut self,
        node: &mut N,
        sink: &mut S,
    ) -> bool {
        if !self.life.is_up() {
            return false;
        }
        self.life.down();
        node.on_crash();
        sink.incr(MetricId::NODE_CRASHES);
        true
    }

    /// A recovery: a down node comes up and is counted; the executor
    /// then runs `on_recover` through [`Step::run`]. Returns whether it
    /// was down.
    pub fn recover<M, S: Sink<M> + ?Sized>(&mut self, sink: &mut S) -> bool {
        let recovered = self.life.up();
        if recovered {
            sink.incr(MetricId::NODE_RECOVERIES);
        }
        recovered
    }

    /// A process death (the live runtime's kill, or a handler panic): the
    /// node goes down into a new incarnation without `on_crash`, and an
    /// up node is counted as a crash.
    pub fn kill<M, S: Sink<M> + ?Sized>(&mut self, sink: &mut S) {
        if self.life.down() {
            sink.incr(MetricId::NODE_CRASHES);
        }
    }

    /// A fresh instance takes the node's place: a new incarnation, up,
    /// with the node's stream, timer ids and clock carried on. After a
    /// kill it is counted as a recovery; the executor then runs
    /// `on_start` through [`Step::run`].
    pub fn restart<M, S: Sink<M> + ?Sized>(&mut self, sink: &mut S) {
        if !self.life.down() {
            sink.incr(MetricId::NODE_RECOVERIES);
        }
        self.life.up();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_i_streams_from_the_roots_draw_i_plus_2() {
        let seed = 42;
        let (mut streams, _net) = Streams::new(seed);
        let mut root = SimRng::seed_from(seed);
        let _net_draw = root.next_u64();
        for i in 0..4 {
            let name = format!("n{i}");
            let (mut rng, clock) = streams.node(&name, ClockSpec::Perfect);
            let draw = root.next_u64(); // the root's (i + 2)-th draw
            let label = format!("node:{i}:{name}");
            let mut want = SimRng::seed_from(draw ^ crate::rng::fnv1a(label.as_bytes()));
            assert_eq!(rng.next_u64(), want.next_u64(), "node {i}");
            assert_eq!(clock, DriftClock::perfect());
        }
    }

    #[test]
    fn a_node_draws_its_clock_first_from_its_own_stream() {
        let spec = ClockSpec::RandomRate { min_rate: 0.5 };
        let (mut streams, _) = Streams::new(9);
        let (mut rng, clock) = streams.node("a", spec);
        let (mut again, _) = Streams::new(9);
        let (mut fresh, _) = again.node("a", ClockSpec::Perfect);
        assert_eq!(spec.build(&mut fresh), clock, "the clock is the stream's first draw");
        assert_eq!(rng.next_u64(), fresh.next_u64());
        // A perfect-rate draw range takes nothing from the stream.
        let (mut perfect, _) = Streams::new(9);
        let (mut rng1, clock1) = perfect.node("a", ClockSpec::RandomRate { min_rate: 1.0 });
        let (mut plain, _) = Streams::new(9);
        let (mut plain_rng, _) = plain.node("a", ClockSpec::Perfect);
        assert_eq!((clock1, rng1.next_u64()), (DriftClock::perfect(), plain_rng.next_u64()));
    }

    /// Arms three timers, cancels the second, which leaves its queue at
    /// once; steps through crash, recover, kill and restart.
    #[test]
    fn the_step_rule_arms_cancels_and_voids_timers() {
        let (mut life, mut rng) = (Life::default(), SimRng::seed_from(1));
        let clock = DriftClock::new(0.5, SimDuration::ZERO);
        let mut fx: Vec<Effect<u32>> = Vec::new();
        let mut out = Recording::default();
        let mut step = Step { id: NodeId(3), life: &mut life, rng: &mut rng, clock: &clock };
        step.run(SimTime::from_secs(10), &mut fx, &mut out, |ctx| {
            assert_eq!(ctx.local_now(), LocalTime::from_nanos(5_000_000_000), "the clock read at the instant");
            let ids: Vec<TimerId> = (0..3).map(|tag| ctx.set_timer(SimDuration::from_secs(1), tag)).collect();
            assert_eq!(ids, [TimerId(0), TimerId(1), TimerId(2)], "a node's ids start at 0");
            ctx.cancel_timer(ids[1]);
            ctx.cancel_timer(ids[1]);
            ctx.send(NodeId(1), 7);
            ctx.metric_incr(MetricId::NET_SENT);
        });
        assert!(fx.is_empty(), "the scratch buffer is left empty");
        let armed: Vec<Timer> = out
            .calls
            .iter()
            .filter_map(|o| match o {
                Output::Arm { due, timer } => {
                    assert_eq!(*due, SimTime::from_secs(12), "one local second is two real ones at rate 0.5");
                    Some(*timer)
                }
                _ => None,
            })
            .collect();
        assert_eq!(armed.len(), 3);
        assert_eq!(
            out.calls[3..],
            [
                Output::Disarm { tag: 1 },
                Output::Send { to: NodeId(1), msg: 7 },
                Output::Incr { name: MetricId::NET_SENT }
            ],
            "a cancel disarms once"
        );
        assert_eq!((life.armed(), out.timers.len()), (2, 2), "the cancelled timer left its queue");
        let (_, first) = out.timers.pop().expect("armed");
        assert!(life.would_fire(&first) && life.would_fire(&first), "judging does not fire");
        assert!(life.fires(&first));
        assert!(!life.fires(&first), "a timer fires once");
        assert!(!life.fires(&armed[1]), "cancelled");
        assert_eq!(life.armed(), 1);

        let mut out = Recording::default();
        let mut step = Step { id: NodeId(3), life: &mut life, rng: &mut rng, clock: &clock };
        assert!(step.crash(&mut Inert, &mut out));
        assert!(!step.crash(&mut Inert, &mut out), "a down node does not crash again");
        assert!(step.recover(&mut out));
        assert!(!step.recover(&mut out));
        step.kill(&mut out);
        step.restart(&mut out);
        let mut next = None;
        step.run(SimTime::from_secs(20), &mut fx, &mut out, |ctx| next = Some(ctx.set_timer(SimDuration::ZERO, 9)));
        assert_eq!(next, Some(TimerId(3)), "ids are never reused");
        assert!(!life.would_fire(&armed[2]), "armed in an incarnation that ended");
        assert_eq!(life.armed(), 1, "only this incarnation's timer");
        let counted: Vec<&str> = out
            .calls
            .iter()
            .filter_map(|o| match o {
                Output::Incr { name } => Some(name.def().name),
                _ => None,
            })
            .collect();
        assert_eq!(counted, ["node.crashes", "node.recoveries", "node.crashes", "node.recoveries"]);

        // A disk's wake is never armed: the lifecycle alone judges it.
        let wake = Timer { node: NodeId(3), id: TimerId::WAKE, tag: 5, incarnation: life.incarnation() };
        assert!(life.fires(&wake) && life.fires(&wake), "a wake is not consumed");
        life.down();
        assert!(!life.fires(&wake), "a wake that outlives its incarnation");
    }

    #[test]
    fn the_first_instance_is_not_a_recovery() {
        let (mut life, mut rng, clock) = (Life::default(), SimRng::seed_from(1), DriftClock::perfect());
        let mut out = Recording::default();
        Step { id: NodeId(0), life: &mut life, rng: &mut rng, clock: &clock }.restart(&mut out);
        assert!(out.calls.is_empty() && life.is_up());
    }

    /// One call the recording sink saw.
    #[derive(Debug, PartialEq)]
    enum Output {
        Send { to: NodeId, msg: u32 },
        Arm { due: SimTime, timer: Timer },
        Disarm { tag: u64 },
        Incr { name: MetricId },
        Other,
    }

    /// A sink that records its calls, and queues armed timers in a
    /// calendar as the executors do.
    #[derive(Default)]
    struct Recording {
        calls: Vec<Output>,
        timers: crate::queue::Calendar<Timer>,
    }

    impl Sink<u32> for Recording {
        fn send(&mut self, _from: NodeId, to: NodeId, msg: u32) {
            self.calls.push(Output::Send { to, msg });
        }
        fn arm(&mut self, due: SimTime, timer: Timer) -> Option<Armed> {
            self.calls.push(Output::Arm { due, timer });
            Some(Armed { queue: 0, handle: self.timers.push(due, timer) })
        }
        fn disarm(&mut self, armed: Armed) {
            let timer = self.timers.cancel(armed.handle).expect("a cancel disarms an armed timer");
            self.calls.push(Output::Disarm { tag: timer.tag });
        }
        fn note(&mut self, _from: NodeId, _text: Note) {
            self.calls.push(Output::Other);
        }
        fn incr(&mut self, name: MetricId) {
            self.calls.push(Output::Incr { name });
        }
        fn observe(&mut self, _name: MetricId, _value: f64) {
            self.calls.push(Output::Other);
        }
    }

    #[derive(Debug)]
    struct Inert;

    impl Node for Inert {
        type Msg = u32;
        fn on_message(&mut self, _ctx: &mut Context<'_, u32>, _from: NodeId, _msg: u32) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn env_id_displays_specially() {
        assert_eq!(format!("{}", NodeId::ENV), "n[env]");
        assert_eq!(format!("{}", NodeId(3)), "n3");
    }

    #[test]
    fn node_id_roundtrips_through_index() {
        let id = NodeId(7);
        assert_eq!(NodeId::from_index(id.index()), id);
    }

    #[test]
    fn context_collects_effects_in_order() {
        let mut effects: Vec<Effect<u32>> = Vec::new();
        let mut rng = SimRng::seed_from(1);
        let mut next_timer = 0;
        let mut ctx = Context {
            id: NodeId(0),
            local_now: LocalTime::ZERO,
            effects: &mut effects,
            rng: &mut rng,
            next_timer: &mut next_timer,
            notes: true,
        };
        ctx.send(NodeId(1), 10);
        let t = ctx.set_timer(SimDuration::from_secs(1), 42);
        ctx.cancel_timer(t);
        ctx.multicast([NodeId(2), NodeId(3)], 11);
        assert_eq!(effects.len(), 5);
        assert!(matches!(effects[0], Effect::Send { to: NodeId(1), msg: 10 }));
        assert!(matches!(effects[1], Effect::SetTimer { tag: 42, .. }));
        assert!(matches!(effects[2], Effect::CancelTimer { .. }));
        assert!(matches!(effects[3], Effect::Send { to: NodeId(2), msg: 11 }));
        assert!(matches!(effects[4], Effect::Send { to: NodeId(3), msg: 11 }));
    }

    #[test]
    fn notes_off_emits_no_trace_and_builds_no_text() {
        let mut effects: Vec<Effect<u32>> = Vec::new();
        let mut rng = SimRng::seed_from(1);
        let mut next_timer = 0;
        let mut ctx = Context::new(NodeId(0), LocalTime::ZERO, &mut effects, &mut rng, &mut next_timer)
            .with_notes(false);
        ctx.trace("audit=dropped");
        ctx.trace_record(|| -> u32 { unreachable!("no record is built for a driver that drops it") });
        ctx.send(NodeId(1), 10);
        assert!(matches!(effects[..], [Effect::Send { to: NodeId(1), msg: 10 }]));

        let mut ctx = Context::new(NodeId(0), LocalTime::ZERO, &mut effects, &mut rng, &mut next_timer);
        ctx.trace("a");
        ctx.trace_record(|| 7u32);
        let notes: Vec<&Note> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Trace { text } => Some(text),
                _ => None,
            })
            .collect();
        assert_eq!(notes, [&Note::from("a"), &Note::from("7")], "Context::new defaults to notes on");
    }

    #[test]
    fn a_record_note_prints_its_line_and_gives_the_record_back() {
        let note = Note::of(1234u32);
        assert_eq!(note.to_string(), "1234");
        assert_eq!(note.len(), 4, "the rendered line's bytes");
        assert_eq!(note.record::<u32>(), Some(&1234));
        assert_eq!(note.record::<u64>(), None, "another type");
        assert_eq!(note.clone(), note);
        assert_eq!(note, Note::from("1234"), "equal means prints the same line");
        assert_ne!(note, Note::from("1235"));
        let text = Note::from(String::from("héllo"));
        assert_eq!((text.len(), text.is_empty()), (6, false));
        assert_eq!(text.record::<String>(), None, "free text carries no record");
    }

    #[test]
    fn timer_ids_are_unique() {
        let mut effects: Vec<Effect<u32>> = Vec::new();
        let mut rng = SimRng::seed_from(1);
        let mut next_timer = 0;
        let mut ctx = Context {
            id: NodeId(0),
            local_now: LocalTime::ZERO,
            effects: &mut effects,
            rng: &mut rng,
            next_timer: &mut next_timer,
            notes: true,
        };
        let a = ctx.set_timer(SimDuration::from_secs(1), 0);
        let b = ctx.set_timer(SimDuration::from_secs(1), 0);
        assert_ne!(a, b);
    }
}
