//! Node identity, the [`Node`] behaviour trait, and the [`Context`] handed
//! to a node while it handles an event.
//!
//! Nodes are deliberately cut off from real simulation time: the only clock
//! a node can read through its [`Context`] is its own (possibly drifting)
//! local clock, exactly as in a real deployment. Timers are likewise set in
//! local-clock units; the world converts them to real time using the node's
//! clock rate.

use std::any::Any;
use std::fmt;

use crate::clock::LocalTime;
use crate::metrics::MetricId;
use crate::rng::SimRng;
use crate::time::SimDuration;

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
    /// The raw driver-assigned id (for external drivers like
    /// `wanacl-rt`).
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
    /// Drivers (the simulated world, the threaded runtime) call this; node
    /// code only ever receives a ready-made context. `next_timer` is the
    /// driver's monotonically increasing timer-id counter. Trace notes
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

#[cfg(test)]
mod tests {
    use super::*;

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
