//! The simulated world: event loop, node lifecycle, and network dispatch.
//!
//! A [`World`] owns a set of nodes (each with its own drifting clock and
//! RNG stream), a network model, an event queue ordered by real simulation
//! time, and run-level metrics/trace. Everything is deterministic in the
//! seed passed to [`World::new`].
//!
//! # Layout
//!
//! Node state is stored **struct-of-arrays**: names, boxed protocol
//! state machines, clocks, lifecycle state ([`Life`]) and RNG streams
//! live in parallel vectors indexed by the dense [`NodeId`]. A step
//! borrows one node's clock, life and stream from those columns as a
//! [`Step`] — the step rule the live runtime runs too — and the rest of
//! the world (queue, network, metrics, trace) is the [`Sink`] its effects
//! drain into. Pending events live in a bucketed calendar queue (see
//! [`crate::queue`]).

use crate::clock::{ClockSpec, DriftClock, LocalTime};
use crate::metrics::{MetricId, Metrics};
use crate::net::{DropReason, NetModel, PerfectNet, Verdict};
use crate::node::{Armed, Context, Effect, Life, Node, NodeId, Note, Sink, Step, Streams, Timer};
use crate::queue::Calendar;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::trace::{Trace, TraceEvent};

/// Node `$id`'s step state, borrowed from `$world`'s columns.
macro_rules! step {
    ($world:expr, $id:expr) => {{
        let i = $id.index();
        Step { id: $id, life: &mut $world.meta[i], rng: &mut $world.node_rngs[i], clock: &$world.clocks[i] }
    }};
}

/// What the queue holds.
#[derive(Debug)]
enum EventKind<M> {
    Deliver { from: NodeId, to: NodeId, msg: M },
    Timer(Timer),
    Crash { node: NodeId },
    Recover { node: NodeId },
}

/// A passive observer of world events, registered with
/// [`World::add_observer`].
///
/// Observers are called for every trace-worthy event *even when the
/// trace buffer is disabled*, so always-on checkers (safety oracles,
/// online statistics) do not pay the cost of storing a full trace.
/// Observers cannot affect the simulation: they see each event after it
/// has been applied and have no way to send messages or set timers, so
/// attaching one never changes a run's outcome.
///
/// `index` is the ordinal of the event among all events shown to
/// observers in this run — stable across identically-configured replays
/// of the same seed, which makes it a precise coordinate for
/// counterexample reports.
pub trait Observer {
    /// Called once per event, in simulation order.
    fn on_event(&mut self, at: SimTime, index: u64, event: &TraceEvent);
    /// Whether this observer consumes per-message `Sent`/`Delivered`
    /// events. Building those `Debug`-formats every message — the
    /// dominant allocation on the hot path of a large run — so
    /// observers that only read notes, timers, and lifecycle events
    /// should override this to return `false`. When the trace buffer is
    /// disabled and no attached observer wants message events, the
    /// world skips building them entirely (which also shifts event
    /// indices relative to a run where they are built; indices are
    /// stable across identically-configured replays either way).
    fn wants_message_events(&self) -> bool {
        true
    }
    /// Downcasting support (mirrors [`Node::as_any`]).
    fn as_any(&self) -> &dyn std::any::Any;
    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// Handle returned by [`World::add_observer`], used to retrieve the
/// observer after a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObserverId(usize);

/// A deterministic discrete-event world over message type `M`.
///
/// # Examples
///
/// ```
/// use wanacl_sim::prelude::*;
///
/// struct Echo;
/// impl Node for Echo {
///     type Msg = String;
///     fn on_message(&mut self, ctx: &mut Context<'_, String>, from: NodeId, msg: String) {
///         if from != NodeId::ENV {
///             return;
///         }
///         ctx.trace(format!("got {msg}"));
///     }
///     fn as_any(&self) -> &dyn std::any::Any { self }
///     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
/// }
///
/// let mut world: World<String> = World::new(1);
/// let echo = world.add_node("echo", Box::new(Echo), ClockSpec::Perfect);
/// world.inject(SimTime::from_secs(1), echo, "hi".to_string());
/// world.run_until(SimTime::from_secs(2));
/// assert_eq!(world.now(), SimTime::from_secs(2));
/// ```
pub struct World<M> {
    // Node arena, struct-of-arrays: parallel columns indexed by NodeId.
    names: Vec<String>,
    nodes: Vec<Box<dyn Node<Msg = M>>>,
    clocks: Vec<DriftClock>,
    meta: Vec<Life>,
    node_rngs: Vec<SimRng>,
    streams: Streams,
    /// Reusable buffer for node effects; handlers never re-enter, so one
    /// scratch vector serves every dispatch without reallocating.
    effects_scratch: Vec<Effect<M>>,
    started: bool,
    env: Env<M>,
}

/// Everything of a [`World`] but its nodes: the [`Sink`] a step's
/// effects drain into.
struct Env<M> {
    now: SimTime,
    queue: Calendar<EventKind<M>>,
    net: Box<dyn NetModel>,
    net_rng: SimRng,
    metrics: Metrics,
    trace: Trace,
    observers: Vec<Box<dyn Observer>>,
    observers_want_messages: bool,
    event_index: u64,
}

impl<M> std::fmt::Debug for World<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("now", &self.env.now)
            .field("nodes", &self.nodes.len())
            .field("queued", &self.env.queue.len())
            .finish_non_exhaustive()
    }
}

impl<M> Env<M> {
    /// Whether per-message events (Sent/Delivered) need to be built at
    /// all: only when something will consume them.
    fn wants_message_events(&self) -> bool {
        self.trace.is_enabled() || self.observers_want_messages
    }

    /// Records an event: observers first, then the trace buffer.
    fn emit(&mut self, event: TraceEvent) {
        let at = self.now;
        let index = self.event_index;
        self.event_index += 1;
        for obs in &mut self.observers {
            obs.on_event(at, index, &event);
        }
        self.trace.push(at, event);
    }

    fn push(&mut self, at: SimTime, kind: EventKind<M>) {
        self.queue.push(at, kind);
    }
}

impl<M: Clone + std::fmt::Debug> Sink<M> for Env<M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.metrics.incr(MetricId::NET_SENT);
        if self.wants_message_events() {
            self.emit(TraceEvent::Sent { from, to, desc: format!("{msg:?}") });
        }
        if to == from {
            // Self-sends bypass the network: local IPC.
            self.push(self.now, EventKind::Deliver { from, to, msg });
            return;
        }
        match self.net.transmit(from, to, self.now, &mut self.net_rng) {
            Verdict::Deliver(delay) => {
                self.push(self.now + delay, EventKind::Deliver { from, to, msg });
            }
            Verdict::Duplicate(first, second) => {
                self.metrics.incr(MetricId::NET_DUPLICATED);
                self.push(self.now + first, EventKind::Deliver { from, to, msg: msg.clone() });
                self.push(self.now + second, EventKind::Deliver { from, to, msg });
            }
            Verdict::Drop(reason) => {
                let name = match reason {
                    DropReason::Partitioned => MetricId::NET_DROP_PARTITIONED,
                    DropReason::Loss => MetricId::NET_DROP_LOSS,
                    DropReason::DestinationDown => MetricId::NET_DROP_DESTINATION_DOWN,
                };
                self.metrics.incr(name);
                self.emit(TraceEvent::Dropped { from, to, reason });
            }
        }
    }

    fn arm(&mut self, due: SimTime, timer: Timer) -> Option<Armed> {
        Some(Armed { queue: 0, handle: self.queue.push(due, EventKind::Timer(timer)) })
    }

    fn disarm(&mut self, armed: Armed) {
        self.queue.cancel(armed.handle);
    }

    fn note(&mut self, from: NodeId, text: Note) {
        self.emit(TraceEvent::Note { node: from, text });
    }

    fn incr(&mut self, name: MetricId) {
        self.metrics.incr(name);
    }

    fn observe(&mut self, name: MetricId, value: f64) {
        self.metrics.observe(name, value);
    }
}

impl<M: Clone + std::fmt::Debug + 'static> World<M> {
    /// Creates an empty world with a perfect 50 ms network.
    pub fn new(seed: u64) -> Self {
        let (streams, net_rng) = Streams::new(seed);
        World {
            names: Vec::new(),
            nodes: Vec::new(),
            clocks: Vec::new(),
            meta: Vec::new(),
            node_rngs: Vec::new(),
            streams,
            effects_scratch: Vec::new(),
            started: false,
            env: Env {
                now: SimTime::ZERO,
                queue: Calendar::new(),
                net: Box::new(PerfectNet::new(SimDuration::from_millis(50))),
                net_rng,
                metrics: Metrics::new(),
                trace: Trace::new(),
                observers: Vec::new(),
                observers_want_messages: false,
                event_index: 0,
            },
        }
    }

    /// Replaces the network model. Usually called before the first step.
    pub fn set_net(&mut self, net: Box<dyn NetModel>) {
        self.env.net = net;
    }

    /// Turns on event tracing (off by default).
    pub fn enable_trace(&mut self) {
        self.env.trace.set_enabled(true);
    }

    /// Registers a passive [`Observer`] and returns a handle for
    /// retrieving it later with [`World::observer_as`].
    ///
    /// Observers see every subsequent event whether or not tracing is
    /// enabled. Register them before the first step for a complete view.
    pub fn add_observer(&mut self, observer: Box<dyn Observer>) -> ObserverId {
        self.env.observers_want_messages |= observer.wants_message_events();
        self.env.observers.push(observer);
        ObserverId(self.env.observers.len() - 1)
    }

    /// Immutable access to a registered observer downcast to its
    /// concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the handle is foreign or the observer is not a `T`.
    pub fn observer_as<T: 'static>(&self, id: ObserverId) -> &T {
        self.env.observers[id.0]
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("observer {} is not a {}", id.0, std::any::type_name::<T>()))
    }

    /// Adds a node and returns its id. Its RNG stream and clock come
    /// from the stream rule ([`Streams`]).
    ///
    /// Nodes added before the first step get `on_start` when the world
    /// starts; nodes added later get it immediately.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        node: Box<dyn Node<Msg = M>>,
        clock: ClockSpec,
    ) -> NodeId {
        let name = name.into();
        let (rng, clock) = self.streams.node(&name, clock);
        let id = NodeId(self.nodes.len() as u32);
        self.names.push(name);
        self.nodes.push(node);
        self.clocks.push(clock);
        self.meta.push(Life::default());
        self.node_rngs.push(rng);
        if self.started {
            self.start_node(id);
        }
        id
    }

    /// Current real simulation time.
    pub fn now(&self) -> SimTime {
        self.env.now
    }

    /// Number of nodes in the world.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The name a node was registered with.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this world.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.names[id.index()]
    }

    /// Whether the node is currently up.
    pub fn is_up(&self, id: NodeId) -> bool {
        self.meta[id.index()].is_up()
    }

    /// The node's clock.
    pub fn clock(&self, id: NodeId) -> DriftClock {
        self.clocks[id.index()]
    }

    /// The node's local-clock reading at the current real time.
    pub fn local_time(&self, id: NodeId) -> LocalTime {
        self.clocks[id.index()].read(self.env.now)
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a node of this world.
    pub fn node(&self, id: NodeId) -> &dyn Node<Msg = M> {
        &*self.nodes[id.index()]
    }

    /// Immutable access to a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a `T`.
    pub fn node_as<T: 'static>(&self, id: NodeId) -> &T {
        self.nodes[id.index()]
            .as_any()
            .downcast_ref::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Mutable access to a node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is not a `T`.
    pub fn node_as_mut<T: 'static>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.index()]
            .as_any_mut()
            .downcast_mut::<T>()
            .unwrap_or_else(|| panic!("node {id} is not a {}", std::any::type_name::<T>()))
    }

    /// Run-level metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.env.metrics
    }

    /// The event trace (empty unless [`World::enable_trace`] was called).
    pub fn trace(&self) -> &Trace {
        &self.env.trace
    }

    /// Schedules delivery of `msg` to `to` at absolute time `at`, as if
    /// sent by the environment ([`NodeId::ENV`]). Bypasses the network.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn inject(&mut self, at: SimTime, to: NodeId, msg: M) {
        assert!(at >= self.env.now, "cannot inject into the past ({at} < {})", self.env.now);
        self.env.push(at, EventKind::Deliver { from: NodeId::ENV, to, msg });
    }

    /// Schedules a crash of `node` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_crash(&mut self, at: SimTime, node: NodeId) {
        assert!(at >= self.env.now, "cannot schedule into the past");
        self.env.push(at, EventKind::Crash { node });
    }

    /// Schedules a recovery of `node` at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_recover(&mut self, at: SimTime, node: NodeId) {
        assert!(at >= self.env.now, "cannot schedule into the past");
        self.env.push(at, EventKind::Recover { node });
    }

    /// Restarts `node` now, as the live runtime's kill and restart do:
    /// the instance dies without `on_crash`, and `fresh` takes its place
    /// in a new incarnation and starts, with the node's stream, timer ids
    /// and clock carried on.
    pub fn restart(&mut self, node: NodeId, fresh: Box<dyn Node<Msg = M>>) {
        self.ensure_started();
        if self.meta[node.index()].is_up() {
            self.env.emit(TraceEvent::Crashed { node });
        }
        let mut step = step!(self, node);
        step.kill(&mut self.env);
        step.restart(&mut self.env);
        self.nodes[node.index()] = fresh;
        self.env.emit(TraceEvent::Recovered { node });
        self.start_node(node);
    }

    /// Runs until the queue is exhausted or `deadline` is reached; the
    /// world's clock ends at `deadline` (or the last event, if later
    /// events do not exist).
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_until_idle(deadline);
        if deadline > self.env.now && deadline != SimTime::MAX {
            self.env.now = deadline;
        }
    }

    /// Runs for a real-time span from the current time.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.env.now + span;
        self.run_until(deadline);
    }

    /// Runs until the event queue drains or `deadline` is hit, whichever
    /// comes first; returns `true` if the queue drained. A cancelled
    /// timer is not queued, so a world left with only cancelled timers is
    /// idle. Useful for protocols with no periodic timers; a deployment
    /// with heartbeats never goes idle, so the deadline is mandatory.
    pub fn run_until_idle(&mut self, deadline: SimTime) -> bool {
        self.ensure_started();
        while let Some((at, kind)) = self.env.queue.pop_due(deadline) {
            self.env.now = at;
            self.dispatch(kind);
        }
        self.env.queue.is_empty()
    }

    /// Processes a single queued event. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((at, kind)) = self.env.queue.pop() else { return false };
        self.env.now = at;
        self.dispatch(kind);
        true
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.start_node(NodeId(i as u32));
        }
    }

    /// Runs a node handler through the step rule ([`Step::run`]) over
    /// the scratch effects buffer; the effects drain into [`Env`].
    fn with_node_ctx(
        &mut self,
        id: NodeId,
        call: impl FnOnce(&mut dyn Node<Msg = M>, &mut Context<'_, M>),
    ) {
        let mut effects = std::mem::take(&mut self.effects_scratch);
        let node = self.nodes[id.index()].as_mut();
        step!(self, id).run(self.env.now, &mut effects, &mut self.env, |ctx| call(node, ctx));
        self.effects_scratch = effects;
    }

    fn start_node(&mut self, id: NodeId) {
        self.with_node_ctx(id, |node, ctx| node.on_start(ctx));
    }

    fn dispatch(&mut self, kind: EventKind<M>) {
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if to.index() >= self.nodes.len() {
                    return;
                }
                if !self.meta[to.index()].is_up() {
                    self.env.metrics.incr(MetricId::NET_DROP_DESTINATION_DOWN);
                    self.env.emit(TraceEvent::Dropped {
                        from,
                        to,
                        reason: DropReason::DestinationDown,
                    });
                    return;
                }
                self.env.metrics.incr(MetricId::NET_DELIVERED);
                if self.env.wants_message_events() {
                    self.env.emit(TraceEvent::Delivered { from, to, desc: format!("{msg:?}") });
                }
                self.with_node_ctx(to, |node, ctx| node.on_message(ctx, from, msg));
            }
            EventKind::Timer(timer) => {
                if !self.meta[timer.node.index()].fires(&timer) {
                    return;
                }
                self.env.emit(TraceEvent::TimerFired { node: timer.node, tag: timer.tag });
                self.with_node_ctx(timer.node, |n, ctx| n.on_timer(ctx, timer.tag));
            }
            EventKind::Crash { node } => {
                let n = self.nodes[node.index()].as_mut();
                if step!(self, node).crash(n, &mut self.env) {
                    self.env.emit(TraceEvent::Crashed { node });
                }
            }
            EventKind::Recover { node } => {
                if step!(self, node).recover(&mut self.env) {
                    self.env.emit(TraceEvent::Recovered { node });
                    self.with_node_ctx(node, |n, ctx| n.on_recover(ctx));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;

    /// A node that answers every ping with a pong and counts traffic.
    #[derive(Debug, Default)]
    struct PingPong {
        pings: u32,
        pongs: u32,
        timer_fired: u32,
        started: bool,
        recovered: bool,
    }

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping,
        Pong,
    }

    impl Node for PingPong {
        type Msg = Msg;
        fn on_start(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.started = true;
        }
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
            match msg {
                Msg::Ping => {
                    self.pings += 1;
                    if from != NodeId::ENV {
                        ctx.send(from, Msg::Pong);
                    }
                }
                Msg::Pong => self.pongs += 1,
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, Msg>, _tag: u64) {
            self.timer_fired += 1;
        }
        fn on_crash(&mut self) {
            self.pings = 0;
        }
        fn on_recover(&mut self, _ctx: &mut Context<'_, Msg>) {
            self.recovered = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A node that pings a target on start and sets a timer.
    #[derive(Debug)]
    struct Pinger {
        target: NodeId,
        got_pong: bool,
    }

    impl Node for Pinger {
        type Msg = Msg;
        fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
            ctx.send(self.target, Msg::Ping);
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, Msg>, _from: NodeId, msg: Msg) {
            if msg == Msg::Pong {
                self.got_pong = true;
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn ping_pong_roundtrip() {
        let mut world: World<Msg> = World::new(1);
        let server = world.add_node("server", Box::new(PingPong::default()), ClockSpec::Perfect);
        let client =
            world.add_node("client", Box::new(Pinger { target: server, got_pong: false }), ClockSpec::Perfect);
        world.run_until(SimTime::from_secs(1));
        assert!(world.node_as::<PingPong>(server).started);
        assert_eq!(world.node_as::<PingPong>(server).pings, 1);
        assert!(world.node_as::<Pinger>(client).got_pong);
        assert_eq!(world.metrics().counter("net.sent"), 2);
        assert_eq!(world.metrics().counter("net.delivered"), 2);
    }

    #[test]
    fn injection_delivers_from_env() {
        let mut world: World<Msg> = World::new(2);
        let server = world.add_node("server", Box::new(PingPong::default()), ClockSpec::Perfect);
        world.inject(SimTime::from_millis(10), server, Msg::Ping);
        world.run_until(SimTime::from_secs(1));
        assert_eq!(world.node_as::<PingPong>(server).pings, 1);
    }

    #[test]
    fn crash_drops_messages_and_resets_on_handler() {
        let mut world: World<Msg> = World::new(3);
        let server = world.add_node("server", Box::new(PingPong::default()), ClockSpec::Perfect);
        world.inject(SimTime::from_millis(10), server, Msg::Ping);
        world.schedule_crash(SimTime::from_millis(20), server);
        world.inject(SimTime::from_millis(30), server, Msg::Ping);
        world.run_until(SimTime::from_millis(40));
        // First ping arrived, crash zeroed the counter, second was dropped.
        assert_eq!(world.node_as::<PingPong>(server).pings, 0);
        assert!(!world.is_up(server));
        assert_eq!(world.metrics().counter("net.drop.destination_down"), 1);
        world.schedule_recover(SimTime::from_millis(50), server);
        world.inject(SimTime::from_millis(60), server, Msg::Ping);
        world.run_until(SimTime::from_millis(100));
        assert!(world.is_up(server));
        assert!(world.node_as::<PingPong>(server).recovered);
        assert_eq!(world.node_as::<PingPong>(server).pings, 1);
    }

    #[test]
    fn crash_invalidates_pending_timers() {
        #[derive(Debug, Default)]
        struct TimerNode {
            fired: u32,
        }
        impl Node for TimerNode {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.set_timer(SimDuration::from_secs(10), 1);
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _m: Msg) {}
            fn on_timer(&mut self, _c: &mut Context<'_, Msg>, _tag: u64) {
                self.fired += 1;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut world: World<Msg> = World::new(4);
        let node = world.add_node("t", Box::new(TimerNode::default()), ClockSpec::Perfect);
        world.run_until(SimTime::from_secs(1));
        world.schedule_crash(SimTime::from_secs(2), node);
        world.schedule_recover(SimTime::from_secs(3), node);
        world.run_until(SimTime::from_secs(30));
        assert_eq!(world.node_as::<TimerNode>(node).fired, 0, "pre-crash timer must not fire");
    }

    #[test]
    fn timer_respects_clock_drift() {
        #[derive(Debug, Default)]
        struct TimerNode {
            fired_at: Option<SimTime>,
        }
        #[derive(Debug, Clone)]
        struct NoteTime(#[allow(dead_code)] SimTime);
        impl Node for TimerNode {
            type Msg = NoteTime;
            fn on_start(&mut self, ctx: &mut Context<'_, NoteTime>) {
                ctx.set_timer(SimDuration::from_secs(9), 0);
            }
            fn on_message(&mut self, _c: &mut Context<'_, NoteTime>, _f: NodeId, _m: NoteTime) {}
            fn on_timer(&mut self, _c: &mut Context<'_, NoteTime>, _tag: u64) {
                self.fired_at = Some(SimTime::ZERO); // marker; real check below
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut world: World<NoteTime> = World::new(5);
        // Clock runs at 0.9: 9 local seconds need 10 real seconds.
        let node = world.add_node(
            "slow",
            Box::new(TimerNode::default()),
            ClockSpec::Fixed { rate: 0.9, offset: SimDuration::ZERO },
        );
        world.run_until(SimTime::from_millis(9_999));
        assert!(world.node_as::<TimerNode>(node).fired_at.is_none());
        world.run_until(SimTime::from_millis(10_001));
        assert!(world.node_as::<TimerNode>(node).fired_at.is_some());
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        #[derive(Debug, Default)]
        struct CancelNode {
            fired: bool,
        }
        impl Node for CancelNode {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                let id = ctx.set_timer(SimDuration::from_secs(1), 7);
                ctx.cancel_timer(id);
            }
            fn on_message(&mut self, _c: &mut Context<'_, Msg>, _f: NodeId, _m: Msg) {}
            fn on_timer(&mut self, _c: &mut Context<'_, Msg>, _tag: u64) {
                self.fired = true;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut world: World<Msg> = World::new(6);
        let node = world.add_node("c", Box::new(CancelNode::default()), ClockSpec::Perfect);
        world.run_until(SimTime::from_secs(5));
        assert!(!world.node_as::<CancelNode>(node).fired);
    }

    /// Checks whose query timers are all cancelled leave the queue
    /// holding only the pending timers, and a world whose only queued
    /// items were cancelled timers is idle.
    #[test]
    fn cancelled_timers_leave_the_queue_and_the_world_idles() {
        use crate::node::TimerId;
        /// Each check from the environment queries the server under a
        /// 10 s timeout that its pong cancels; a pong from the
        /// environment cancels the timer armed at start.
        struct Checker {
            server: NodeId,
            queries: std::collections::VecDeque<TimerId>,
            start: Option<TimerId>,
            fired: u32,
        }
        impl Node for Checker {
            type Msg = Msg;
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                self.start = Some(ctx.set_timer(SimDuration::from_secs(60), 0));
            }
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Msg) {
                match (msg, from == NodeId::ENV) {
                    (Msg::Ping, _) => {
                        ctx.send(self.server, Msg::Ping);
                        self.queries.push_back(ctx.set_timer(SimDuration::from_secs(10), 1));
                    }
                    (Msg::Pong, false) => ctx.cancel_timer(self.queries.pop_front().expect("a query")),
                    (Msg::Pong, true) => ctx.cancel_timer(self.start.take().expect("the start timer")),
                }
            }
            fn on_timer(&mut self, _c: &mut Context<'_, Msg>, _tag: u64) {
                self.fired += 1;
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        const CHECKS: u64 = 500;
        let mut world: World<Msg> = World::new(13);
        let server = world.add_node("server", Box::new(PingPong::default()), ClockSpec::Perfect);
        let checker = Checker { server, queries: Default::default(), start: None, fired: 0 };
        let checker = world.add_node("checker", Box::new(checker), ClockSpec::Perfect);
        for i in 0..CHECKS {
            world.inject(SimTime::from_millis(2 * i + 1), checker, Msg::Ping);
        }
        assert!(!world.run_until_idle(SimTime::from_secs(2)));
        assert_eq!(world.node_as::<PingPong>(server).pings, CHECKS as u32);
        assert_eq!(world.env.queue.len(), 1, "only the start timer is pending");
        assert_eq!(world.meta[checker.index()].armed(), 1);
        world.inject(SimTime::from_secs(3), checker, Msg::Pong);
        assert!(world.run_until_idle(SimTime::from_secs(5)), "the cancelled timers are gone");
        assert_eq!((world.node_as::<Checker>(checker).fired, world.meta[checker.index()].armed()), (0, 0));
    }

    #[test]
    fn deterministic_across_runs() {
        fn run(seed: u64) -> String {
            let mut world: World<Msg> = World::new(seed);
            world.enable_trace();
            let server =
                world.add_node("server", Box::new(PingPong::default()), ClockSpec::Perfect);
            let _client = world.add_node(
                "client",
                Box::new(Pinger { target: server, got_pong: false }),
                ClockSpec::RandomRate { min_rate: 0.9 },
            );
            world.set_net(Box::new(
                crate::net::WanNet::builder()
                    .uniform_delay(SimDuration::from_millis(10), SimDuration::from_millis(100))
                    .loss(0.2)
                    .build(),
            ));
            for i in 0..50 {
                world.inject(SimTime::from_millis(100 * i + 1), server, Msg::Ping);
            }
            world.run_until(SimTime::from_secs(20));
            world.trace().to_text()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut world: World<Msg> = World::new(7);
        world.run_until(SimTime::from_secs(100));
        assert_eq!(world.now(), SimTime::from_secs(100));
    }

    #[test]
    fn step_returns_false_on_empty_queue() {
        let mut world: World<Msg> = World::new(8);
        assert!(!world.step());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut world: World<Msg> = World::new(9);
        let server = world.add_node("server", Box::new(PingPong::default()), ClockSpec::Perfect);
        let t = SimTime::from_secs(1);
        for _ in 0..10 {
            world.inject(t, server, Msg::Ping);
        }
        world.run_until(t);
        assert_eq!(world.node_as::<PingPong>(server).pings, 10);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn injection_into_past_panics() {
        let mut world: World<Msg> = World::new(10);
        let server = world.add_node("server", Box::new(PingPong::default()), ClockSpec::Perfect);
        world.run_until(SimTime::from_secs(5));
        world.inject(SimTime::from_secs(1), server, Msg::Ping);
    }

    #[test]
    fn run_until_idle_detects_drained_queue() {
        let mut world: World<Msg> = World::new(12);
        let server = world.add_node("server", Box::new(PingPong::default()), ClockSpec::Perfect);
        world.inject(SimTime::from_millis(10), server, Msg::Ping);
        assert!(world.run_until_idle(SimTime::from_secs(10)));
        assert_eq!(world.node_as::<PingPong>(server).pings, 1);
        // With a pending event beyond the deadline, it reports busy.
        world.inject(SimTime::from_secs(100), server, Msg::Ping);
        assert!(!world.run_until_idle(SimTime::from_secs(50)));
    }

    #[test]
    fn observers_see_events_without_trace_enabled() {
        #[derive(Default)]
        struct Counter {
            delivered: u32,
            notes: Vec<String>,
            crashes: u32,
            last_index: Option<u64>,
        }
        impl Observer for Counter {
            fn on_event(&mut self, _at: SimTime, index: u64, event: &TraceEvent) {
                if let Some(prev) = self.last_index {
                    assert!(index > prev, "indices must be strictly increasing");
                }
                self.last_index = Some(index);
                match event {
                    TraceEvent::Delivered { .. } => self.delivered += 1,
                    TraceEvent::Note { text, .. } => self.notes.push(text.to_string()),
                    TraceEvent::Crashed { .. } => self.crashes += 1,
                    _ => {}
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        #[derive(Debug)]
        struct Noter;
        impl Node for Noter {
            type Msg = Msg;
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _f: NodeId, _m: Msg) {
                ctx.trace("saw a message".to_string());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world: World<Msg> = World::new(21);
        // Trace stays DISABLED: the observer must still see everything.
        let node = world.add_node("noter", Box::new(Noter), ClockSpec::Perfect);
        let obs = world.add_observer(Box::new(Counter::default()));
        world.inject(SimTime::from_millis(5), node, Msg::Ping);
        world.schedule_crash(SimTime::from_millis(10), node);
        world.run_until(SimTime::from_secs(1));
        assert_eq!(world.trace().len(), 0, "trace buffer must stay empty");
        let counter = world.observer_as::<Counter>(obs);
        assert_eq!(counter.delivered, 1);
        assert_eq!(counter.notes, vec!["saw a message".to_string()]);
        assert_eq!(counter.crashes, 1);
    }

    #[test]
    fn opt_out_observer_suppresses_message_event_construction() {
        #[derive(Default)]
        struct NotesOnly {
            notes: u32,
            message_events: u32,
        }
        impl Observer for NotesOnly {
            fn on_event(&mut self, _at: SimTime, _index: u64, event: &TraceEvent) {
                match event {
                    TraceEvent::Note { .. } => self.notes += 1,
                    TraceEvent::Sent { .. } | TraceEvent::Delivered { .. } => {
                        self.message_events += 1
                    }
                    _ => {}
                }
            }
            fn wants_message_events(&self) -> bool {
                false
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        #[derive(Debug)]
        struct Noter;
        impl Node for Noter {
            type Msg = Msg;
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _f: NodeId, _m: Msg) {
                ctx.trace("noted".to_string());
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut world: World<Msg> = World::new(22);
        let node = world.add_node("noter", Box::new(Noter), ClockSpec::Perfect);
        let obs = world.add_observer(Box::new(NotesOnly::default()));
        world.inject(SimTime::from_millis(5), node, Msg::Ping);
        world.run_until(SimTime::from_secs(1));
        // With only an opted-out observer and the trace disabled, the
        // world never builds Sent/Delivered events at all.
        let counter = world.observer_as::<NotesOnly>(obs);
        assert_eq!(counter.notes, 1);
        assert_eq!(counter.message_events, 0);
        assert_eq!(world.metrics().counter("net.delivered"), 1, "delivery itself still happens");
    }

    #[test]
    fn node_metadata_accessors() {
        let mut world: World<Msg> = World::new(11);
        let server = world.add_node("server", Box::new(PingPong::default()), ClockSpec::Perfect);
        assert_eq!(world.node_name(server), "server");
        assert_eq!(world.node_count(), 1);
        assert_eq!(world.clock(server).rate(), 1.0);
        world.run_until(SimTime::from_secs(2));
        assert_eq!(world.local_time(server).as_nanos(), SimTime::from_secs(2).as_nanos());
    }
}
