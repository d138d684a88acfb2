//! The event-driven worker-pool runtime.
//!
//! A small fixed pool of workers (N ≈ cores by default) multiplexes
//! every logical node, replacing the old one-OS-thread-per-node design.
//! Each node owns a *cell*: its state between steps, a control queue
//! (unbounded, for lifecycle commands and due timers, never shed) and a
//! bounded data queue with drop-newest overflow (`rt.inbox_overflow`).
//! No worker owns a node. A push to an idle cell queues the node once on
//! a worker's run queue — the queue of the worker whose handler pushed,
//! or the node's home worker for a push from outside the pool — and
//! further pushes ride that entry for free until a step leaves both
//! lanes empty. A worker whose queue is empty steals from a sibling's
//! before it parks.
//!
//! Workers drain-the-inbox-then-step: each step processes control
//! first, then up to a fixed batch of data envelopes. A message is
//! moved, never shared: each send a handler emits goes to the transport
//! as its effect is applied, one mailbox push per message. Each worker
//! keeps the timers its handlers armed in a [`Calendar`] — the
//! simulator's event queue — keyed by nanoseconds since the runtime
//! epoch, queues what is due on the node's control lane and parks until
//! the next deadline; the gap between a timer's deadline and the step
//! that fires it is recorded in the `rt.timer_drift_ns` histogram. A
//! cancel takes the timer out of the calendar that holds it: at once on
//! that calendar's worker, and from any other worker through the
//! owner's disarm inbox, which the owner empties before it looks for due
//! timers.
//!
//! Node panics are caught per handler invocation: a panicking node
//! becomes a reportable [`NodeResult`] error and its worker keeps
//! serving every other node. A worker thread the OS refuses to spawn is
//! a startup-time [`RuntimeError`], not a panic.
//!
//! Unlike the simulator, a pooled run is *not* deterministic — worker
//! scheduling and wall-clock jitter are real. That is the point: the
//! protocol must tolerate it, and tests check outcomes rather than
//! traces.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};

use wanacl_sim::clock::{ClockSpec, DriftClock};
use wanacl_sim::metrics::MetricId;
use wanacl_sim::node::{Armed, Context, Effect, Life, Node, NodeId, Note, Sink, Step, Streams, Timer};
use wanacl_sim::obs::MetricsSink;
use wanacl_sim::queue::{Calendar, Handle};
use wanacl_sim::rng::SimRng;
use wanacl_sim::storage::{self, Fire};
use wanacl_sim::time::SimTime;
use wanacl_sim::trace::TraceEvent;
use wanacl_sim::world::Observer;

use crate::router::{Router, Transport};

/// Bound on every node's data queue. Large enough that a healthy node
/// never sees it; small enough that a wedged node sheds load instead of
/// growing a queue without limit. Overflow is drop-newest and counted
/// as `rt.inbox_overflow`; the control lane is exempt.
const INBOX_CAPACITY: usize = 4096;

/// Data envelopes one node may consume per step before yielding the
/// worker — bounds per-step latency for its siblings.
const MAX_STEP_BATCH: usize = 64;

/// A protocol node that can run on the pool.
pub trait RtNode<M>: Node<Msg = M> + Send {}
impl<M, T: Node<Msg = M> + Send> RtNode<M> for T {}

/// Builds a fresh instance of a node for [`Runtime::restart`] — e.g. a
/// `ManagerNode` reopening its `FileStorage` directory so `on_start`
/// replays the WAL + snapshot, exactly what a respawned process does —
/// or says why it cannot (the directory is gone).
pub type NodeFactory<M> = Arc<dyn Fn() -> Result<Box<dyn RtNode<M>>, String> + Send + Sync>;

/// How a node ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeExit {
    /// Clean stop via [`Runtime::shutdown`].
    Stopped,
    /// Torn down by [`Runtime::kill`] (process-death model: no
    /// `on_crash` hook ran).
    Killed,
}

/// Per-node outcome of [`Runtime::shutdown`]: how the node ended plus
/// the node object for inspection, or the panic message if one of its
/// handlers panicked. One panicking node is a reportable result, not a
/// cascade.
pub type NodeResult<M> = Result<(NodeExit, Box<dyn RtNode<M>>), String>;

/// Why the runtime could not start.
#[derive(Debug)]
pub enum RuntimeError {
    /// The OS refused to spawn a worker thread. Startup-time and
    /// recoverable: already-spawned workers are shut down cleanly
    /// before this is returned, so the caller can retry with fewer
    /// workers or report and exit.
    WorkerSpawn {
        /// Index of the worker that failed to spawn.
        worker: usize,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// The transport decorator could not start (the OS refused the
    /// chaos transport's delivery thread); no node was started.
    Transport {
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// A live campaign could not create the directory its managers'
    /// WALs go in; no node was started.
    WalDir {
        /// The directory that could not be created.
        path: std::path::PathBuf,
        /// The underlying OS error.
        source: std::io::Error,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::WorkerSpawn { worker, source } => {
                write!(f, "failed to spawn runtime worker {worker}: {source}")
            }
            RuntimeError::Transport { source } => {
                write!(f, "failed to start the transport decorator: {source}")
            }
            RuntimeError::WalDir { path, source } => {
                write!(f, "cannot create WAL directory {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for RuntimeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RuntimeError::WorkerSpawn { source, .. }
            | RuntimeError::Transport { source }
            | RuntimeError::WalDir { source, .. } => Some(source),
        }
    }
}

/// One captured `Effect::Trace` from a live node, stamped against the
/// deployment-wide epoch so events from different workers share a clock.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveTraceEntry {
    /// Wall-clock time since [`Runtime`] start at the instant the
    /// emitting handler began, as the sim time type the oracle consumes.
    pub at: SimTime,
    /// The emitting node.
    pub node: NodeId,
    /// The note as the node built it: a typed record (the protocol
    /// nodes' `AuditEvent`s) or free text.
    pub text: Note,
}

/// A shared, thread-safe buffer of live trace events.
///
/// Enabled via [`RuntimeBuilder::capture_traces`]; workers append every
/// `ctx.trace(..)` effect, and a chaos driver drains the buffer to feed
/// the invariant oracle the same `Note` stream the simulator produces.
/// Poison-tolerant like the metrics sink: a panicking node must not
/// take the evidence down with it.
#[derive(Debug, Clone, Default)]
pub struct TraceBuffer {
    entries: Arc<Mutex<Vec<LiveTraceEntry>>>,
}

impl TraceBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        TraceBuffer::default()
    }

    fn push(&self, entry: LiveTraceEntry) {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).push(entry);
    }

    /// Number of captured entries.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Takes all captured entries, sorted by timestamp (stable, so
    /// same-instant events keep arrival order).
    pub fn drain_sorted(&self) -> Vec<LiveTraceEntry> {
        let mut entries =
            std::mem::take(&mut *self.entries.lock().unwrap_or_else(|e| e.into_inner()));
        entries.sort_by_key(|e| e.at);
        entries
    }

    /// Drains the buffer into `observer` as the `Note` stream a
    /// simulated world would have shown it; returns the event count.
    pub fn replay_into(&self, observer: &mut dyn Observer) -> usize {
        let entries = self.drain_sorted();
        let count = entries.len();
        for (i, e) in entries.into_iter().enumerate() {
            observer.on_event(e.at, i as u64, &TraceEvent::Note { node: e.node, text: e.text });
        }
        count
    }
}

/// A command on a node's control lane. Control is unbounded and drained
/// before data, so a kill, a stop or a due timer can never be shed by a
/// flash crowd, and an `Install` runs `on_start` before any message.
pub(crate) enum ControlMsg<M> {
    /// Soft crash: drop volatile state, ignore traffic until `Recover`.
    Crash,
    /// Recover from a soft crash.
    Recover,
    /// Takes the node off the pool — a clean stop or a process-death
    /// kill, told apart only by the exit it reports — and replies with
    /// the node object.
    Halt(NodeExit, Sender<NodeResult<M>>),
    /// Install a node instance under this id: the first one at start,
    /// a fresh one on restart.
    Install(Box<dyn RtNode<M>>),
    /// A timer that fell due at the given time; it fires by the step
    /// rule's timer-fire rule ([`Life::fires`]).
    Fire(SimTime, Timer),
}

/// The result of pushing one data message into a [`NodeCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellPush {
    /// Queued (and the node put on a run queue if it wasn't already).
    Delivered,
    /// The bounded data queue was full; the message was shed.
    Full,
    /// The node is dead (killed, stopped, or panicked); the network
    /// silently loses the message, like traffic to a down host.
    Dead,
}

thread_local! {
    /// The scheduler id and worker index this thread serves; unset on
    /// every thread that is not a pool worker.
    static CURRENT_WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Tells pools apart in [`CURRENT_WORKER`]: a worker of one runtime is
/// an outside thread to every other.
static NEXT_SCHEDULER: AtomicUsize = AtomicUsize::new(0);

/// One worker's run queue: the indices of the nodes queued to step.
#[derive(Default)]
struct RunQueue {
    state: parking_lot::Mutex<QueueState>,
    /// Signalled when work arrives for the parked owner.
    ready: Condvar,
    /// `state.nodes.len()`, readable without the lock, so a thief skips
    /// an empty sibling and a worker about to park can look at all of
    /// them.
    len: AtomicUsize,
}

#[derive(Default)]
struct QueueState {
    nodes: VecDeque<u32>,
    /// The owner is waiting on `ready`.
    parked: bool,
}

/// Cancels of the timers one worker's calendar holds, posted by the
/// other workers.
#[derive(Default)]
struct DisarmInbox {
    handles: parking_lot::Mutex<Vec<Handle>>,
    /// `handles` is not empty, readable without the lock.
    posted: AtomicBool,
}

/// The pool's run queues, one per worker. A node is on at most one
/// queue at a time (its cell's `scheduled` flag says whether it is), and
/// whichever worker pops it steps it.
pub(crate) struct Scheduler {
    id: usize,
    queues: Box<[RunQueue]>,
    /// One per worker.
    disarms: Box<[DisarmInbox]>,
    /// Workers parked, or looking at the queues one last time before
    /// they park.
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
}

impl Scheduler {
    pub(crate) fn new(workers: usize) -> Arc<Self> {
        Arc::new(Scheduler {
            id: NEXT_SCHEDULER.fetch_add(1, Ordering::Relaxed),
            queues: (0..workers.max(1)).map(|_| RunQueue::default()).collect(),
            disarms: (0..workers.max(1)).map(|_| DisarmInbox::default()).collect(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        })
    }

    fn workers(&self) -> usize {
        self.queues.len()
    }

    /// Marks the calling thread as worker `w` of this pool.
    fn enter(&self, w: usize) {
        CURRENT_WORKER.with(|current| current.set(Some((self.id, w))));
    }

    /// Queues node `idx` for a step: on the calling worker's own queue
    /// when the caller is a worker of this pool — a node woken by a
    /// handler runs where that handler ran — and on worker `home`'s
    /// queue when the wake comes from outside the pool.
    fn wake(&self, idx: u32, home: usize) {
        let current = CURRENT_WORKER.with(Cell::get);
        let w = match current {
            Some((id, w)) if id == self.id => w,
            _ => home,
        };
        self.push(w, idx);
    }

    /// Appends node `idx` to worker `w`'s queue. Wakes `w` if it is
    /// parked, and one parked sibling if the queue already held a node
    /// — that sibling will steal.
    fn push(&self, w: usize, idx: u32) {
        let q = &self.queues[w];
        let (backlog, parked) = {
            let mut s = q.state.lock();
            s.nodes.push_back(idx);
            q.len.store(s.nodes.len(), Ordering::SeqCst);
            (s.nodes.len() > 1, s.parked)
        };
        if parked {
            q.ready.notify_one();
        }
        if backlog {
            self.notify_sleeper(w);
        }
    }

    /// Wakes one parked worker other than `busy`, if there is one.
    fn notify_sleeper(&self, busy: usize) {
        // SeqCst pairs with `park`: either this load sees the sleeper
        // counted, or the sleeper's last look sees the pushed length.
        if self.sleepers.load(Ordering::SeqCst) == 0 {
            return;
        }
        let n = self.workers();
        for k in 1..n {
            let q = &self.queues[(busy + k) % n];
            if q.state.lock().parked {
                q.ready.notify_one();
                return;
            }
        }
    }

    /// Pops the front of worker `w`'s own queue or, if that is empty,
    /// steals the back of a sibling's.
    fn pop(&self, w: usize) -> Option<u32> {
        let n = self.workers();
        (0..n).find_map(|k| {
            let q = &self.queues[(w + k) % n];
            if q.len.load(Ordering::Relaxed) == 0 {
                return None;
            }
            let mut s = q.state.lock();
            let idx = if k == 0 { s.nodes.pop_front() } else { s.nodes.pop_back() };
            q.len.store(s.nodes.len(), Ordering::Relaxed);
            idx
        })
    }

    /// Parks worker `w` until a node is queued for it, a sibling signals
    /// a backlog, `deadline` passes or the pool shuts down. Returns at
    /// once if any queue holds a node.
    fn park(&self, w: usize, deadline: Option<Instant>) {
        let q = &self.queues[w];
        let mut s = q.state.lock();
        if !s.nodes.is_empty() || self.shutdown.load(Ordering::SeqCst) {
            return;
        }
        s.parked = true;
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        // A backlog pushed before the count rose notified nobody: look
        // once more now that pushers can see this worker.
        if self.queues.iter().all(|other| other.len.load(Ordering::SeqCst) == 0) {
            s = match deadline.map(|d| d.saturating_duration_since(Instant::now())) {
                None => q.ready.wait(s).unwrap_or_else(|e| e.into_inner()),
                Some(wait) if wait.is_zero() => s,
                Some(wait) => q.ready.wait_timeout(s, wait).unwrap_or_else(|e| e.into_inner()).0,
            };
        }
        s.parked = false;
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
    }

    /// Posts a cancel of a timer worker `w`'s calendar holds.
    fn post_disarm(&self, w: usize, handle: Handle) {
        let inbox = &self.disarms[w];
        let mut handles = inbox.handles.lock();
        handles.push(handle);
        inbox.posted.store(true, Ordering::Relaxed);
    }

    /// Swaps the cancels posted to worker `w` into `into`, which is
    /// empty; takes no lock when none were posted.
    fn take_disarms(&self, w: usize, into: &mut Vec<Handle>) {
        let inbox = &self.disarms[w];
        if inbox.posted.load(Ordering::Relaxed) {
            let mut handles = inbox.handles.lock();
            inbox.posted.store(false, Ordering::Relaxed);
            std::mem::swap(&mut *handles, into);
        }
    }

    fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Tells every worker to exit, parked or not.
    fn shut_down(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for q in self.queues.iter() {
            // Taking the lock orders this after a parking worker's check.
            let _guard = q.state.lock();
            q.ready.notify_all();
        }
    }

    /// Nodes on worker `w`'s queue.
    #[cfg(test)]
    pub(crate) fn queued(&self, w: usize) -> usize {
        self.queues[w].state.lock().nodes.len()
    }
}

struct CellState<M> {
    control: VecDeque<ControlMsg<M>>,
    data: VecDeque<(NodeId, M)>,
    /// True from the push that puts the node on a run queue until the
    /// end of the step that leaves both lanes empty. Pushes to a
    /// scheduled cell ride the existing entry for free, and no second
    /// worker can pop the node while a step runs: this flag is the only
    /// ownership a node has.
    scheduled: bool,
    alive: bool,
    /// Data sends routed to this cell, shed or not. Counted under the
    /// lock the push takes anyway, so a send writes no line that every
    /// worker shares.
    sent: u64,
}

/// A node's state between steps. It lives in the cell so that any
/// worker can step the node; `scheduled` admits one step at a time, so
/// its lock is never contended. Beside the instance it holds the step
/// state of the step rule ([`Step`]): lifecycle and timers, RNG stream
/// and clock, all carried across crashes and restarts.
struct NodeState<M> {
    slot: NodeSlot<M>,
    life: Life,
    rng: SimRng,
    clock: DriftClock,
}

/// One logical node: its state, shared between the router (producers)
/// and whichever worker steps it.
pub(crate) struct NodeCell<M> {
    index: u32,
    /// The worker a wake from outside the pool queues this node on.
    home: usize,
    capacity: usize,
    sched: Arc<Scheduler>,
    state: parking_lot::Mutex<CellState<M>>,
    node: Mutex<NodeState<M>>,
}

impl<M> NodeCell<M> {
    /// The cell of node `index`, with its stream and clock from the
    /// stream rule ([`Streams`]).
    pub(crate) fn new(
        index: u32,
        capacity: usize,
        sched: Arc<Scheduler>,
        (rng, clock): (SimRng, DriftClock),
    ) -> Arc<Self> {
        Arc::new(NodeCell {
            index,
            home: index as usize % sched.workers(),
            capacity,
            sched,
            state: parking_lot::Mutex::new(CellState {
                control: VecDeque::new(),
                data: VecDeque::new(),
                scheduled: false,
                alive: true,
                sent: 0,
            }),
            node: Mutex::new(NodeState { slot: NodeSlot::Empty, life: Life::default(), rng, clock }),
        })
    }

    pub(crate) fn push_data(&self, from: NodeId, msg: M) -> CellPush {
        let wake = {
            let mut s = self.state.lock();
            s.sent += 1;
            if !s.alive {
                return CellPush::Dead;
            }
            if s.data.len() >= self.capacity {
                return CellPush::Full;
            }
            s.data.push_back((from, msg));
            !std::mem::replace(&mut s.scheduled, true)
        };
        if wake {
            self.sched.wake(self.index, self.home);
        }
        CellPush::Delivered
    }

    /// Control always enqueues — the lane is unbounded and ignores
    /// `alive` so a queued `Halt` can still reach a poisoned node for
    /// its reply.
    fn push_control(&self, ctl: ControlMsg<M>) {
        let wake = {
            let mut s = self.state.lock();
            s.control.push_back(ctl);
            !std::mem::replace(&mut s.scheduled, true)
        };
        if wake {
            self.sched.wake(self.index, self.home);
        }
    }

    /// Data sends routed to this cell so far.
    pub(crate) fn sent(&self) -> u64 {
        self.state.lock().sent
    }

    /// Re-opens a dead cell for the restart path, before the `Install`
    /// control message is queued — arriving data then sits behind the
    /// install, exactly like traffic reaching a booting process.
    fn revive(&self) {
        self.state.lock().alive = true;
    }

    /// Marks the cell dead and discards everything queued.
    pub(crate) fn clear_dead(&self) {
        let mut s = self.state.lock();
        s.alive = false;
        s.data.clear();
        s.control.clear();
    }

    /// Moves all queued control plus up to `max_data` data envelopes
    /// into the stepping worker's buffers. The node stays scheduled.
    pub(crate) fn drain(
        &self,
        max_data: usize,
        ctls: &mut Vec<ControlMsg<M>>,
        data: &mut Vec<(NodeId, M)>,
    ) {
        let mut s = self.state.lock();
        ctls.extend(s.control.drain(..));
        let take = s.data.len().min(max_data);
        data.extend(s.data.drain(..take));
    }

    /// Ends a step. Returns whether either lane holds work (the node
    /// stays scheduled and the caller queues it again); otherwise the
    /// node is unscheduled, and the next push queues it afresh.
    pub(crate) fn finish_step(&self) -> bool {
        let mut s = self.state.lock();
        let more = !s.control.is_empty() || !s.data.is_empty();
        s.scheduled = more;
        more
    }
}

struct NodeSpec<M> {
    name: String,
    node: Box<dyn RtNode<M>>,
    factory: Option<NodeFactory<M>>,
    clock: ClockSpec,
}

/// Decorates the base router into the transport nodes send through
/// (see [`RuntimeBuilder::wrap_transport`]).
type TransportWrap<M> =
    Box<dyn FnOnce(Arc<Router<M>>) -> std::io::Result<Arc<dyn Transport<M>>>>;

/// Builds a pooled deployment.
pub struct RuntimeBuilder<M> {
    nodes: Vec<NodeSpec<M>>,
    /// The stream rule's root (a roster installs its own).
    pub(crate) seed: u64,
    metrics: MetricsSink,
    workers: Option<usize>,
    trace: Option<TraceBuffer>,
    wrap: Option<TransportWrap<M>>,
}

impl<M> std::fmt::Debug for RuntimeBuilder<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeBuilder").field("nodes", &self.nodes.len()).finish()
    }
}

impl<M: Send + Sync + Clone + std::fmt::Debug + 'static> RuntimeBuilder<M> {
    /// Starts a builder; `seed` is the root of the stream rule
    /// ([`Streams`]) that gives each node its RNG stream and clock, as
    /// `World::new(seed)` does.
    pub fn new(seed: u64) -> Self {
        RuntimeBuilder {
            nodes: Vec::new(),
            seed,
            metrics: MetricsSink::new(),
            workers: None,
            trace: None,
            wrap: None,
        }
    }

    /// The deployment-wide metrics sink. Every worker records the
    /// `ctx.metric_incr`/`ctx.metric_observe` effects of the nodes it
    /// steps into a shard of it — the same named counters and latency histograms
    /// the simulator's `World` collects. Clone the handle to keep
    /// reading after `start`.
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// Fixes the worker-pool size (default: the machine's available
    /// parallelism, clamped to the node count). Clamped to at least 1.
    pub fn workers(&mut self, n: usize) -> &mut Self {
        self.workers = Some(n.max(1));
        self
    }

    /// Enables trace capture and returns the shared buffer. Without
    /// this, nodes are told nobody consumes their notes
    /// ([`Context::with_notes`]) and build no audit text at all
    /// (tracing costs a formatted string and a mutex hit per note, so
    /// it is opt-in).
    pub fn capture_traces(&mut self) -> TraceBuffer {
        let buffer = self.trace.get_or_insert_with(TraceBuffer::new);
        buffer.clone()
    }

    /// Installs a transport decorator: `wrap` receives the base router
    /// at start and returns what nodes actually send through (e.g. a
    /// [`crate::chaos::ChaosRouter`]), or the OS error that stopped it,
    /// which start returns as [`RuntimeError::Transport`]. Environment
    /// injection via [`Runtime::send_from_env`] keeps using the base
    /// router, so test drivers bypass injected faults.
    pub fn wrap_transport(
        &mut self,
        wrap: impl FnOnce(Arc<Router<M>>) -> std::io::Result<Arc<dyn Transport<M>>> + 'static,
    ) -> &mut Self {
        self.wrap = Some(Box::new(wrap));
        self
    }

    /// Adds a node on a perfect clock; returns the id it will run under.
    /// Ids are assigned densely in add order, exactly like the simulator.
    pub fn add_node(&mut self, name: impl Into<String>, node: Box<dyn RtNode<M>>) -> NodeId {
        self.push(name.into(), node, None, ClockSpec::Perfect)
    }

    /// Adds a node on the clock `clock` draws from its stream, with the
    /// factory [`Runtime::restart`] rebuilds it by, if any.
    pub(crate) fn push(
        &mut self,
        name: String,
        node: Box<dyn RtNode<M>>,
        factory: Option<NodeFactory<M>>,
        clock: ClockSpec,
    ) -> NodeId {
        self.nodes.push(NodeSpec { name, node, factory, clock });
        NodeId::from_index(self.nodes.len() - 1)
    }

    /// Adds a restartable node: the factory builds the initial instance
    /// now and a fresh instance on every [`Runtime::restart`]. The
    /// factory must rebind any durable resources (storage directories)
    /// so the respawned node recovers from them. Returns the factory's
    /// error if it cannot build the first instance.
    pub fn add_node_with_factory(
        &mut self,
        name: impl Into<String>,
        factory: NodeFactory<M>,
    ) -> Result<NodeId, String> {
        let node = factory()?;
        Ok(self.push(name.into(), node, Some(factory), ClockSpec::Perfect))
    }

    /// Spawns the worker pool and returns the running deployment.
    ///
    /// # Panics
    ///
    /// Panics if the OS refuses a thread; use
    /// [`RuntimeBuilder::try_start`] to handle that as an error.
    pub fn start(self) -> Runtime<M> {
        self.try_start().unwrap_or_else(|e| panic!("runtime start failed: {e}"))
    }

    /// Spawns the worker pool, surfacing a refused worker thread as a
    /// recoverable [`RuntimeError`] instead of a panic. Workers that
    /// did spawn are shut down cleanly before the error returns.
    pub fn try_start(self) -> Result<Runtime<M>, RuntimeError> {
        let router: Arc<Router<M>> = Router::new();
        router.set_metrics(self.metrics.clone());
        let transport: Arc<dyn Transport<M>> = match self.wrap {
            Some(wrap) => {
                wrap(router.clone()).map_err(|source| RuntimeError::Transport { source })?
            }
            None => router.clone(),
        };
        let epoch = Instant::now();
        let nnodes = self.nodes.len();
        let nworkers = self
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
            })
            .clamp(1, nnodes.max(1));

        // Freeze the routing table before any worker runs. Each cell
        // gets its node's stream and clock by the simulator's rule.
        let sched = Scheduler::new(nworkers);
        let (mut streams, _net) = Streams::new(self.seed);
        let cells: Vec<Arc<NodeCell<M>>> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let state = streams.node(&spec.name, spec.clock);
                NodeCell::new(i as u32, INBOX_CAPACITY, sched.clone(), state)
            })
            .collect();
        router.freeze_cells(cells.clone());

        let mut names = Vec::with_capacity(nnodes);
        let mut factories = Vec::with_capacity(nnodes);
        for (cell, spec) in cells.iter().zip(self.nodes) {
            names.push(spec.name);
            factories.push(spec.factory);
            // Queued ahead of any message, and control drains before
            // data: `on_start` runs first on whichever worker steps the
            // node.
            cell.push_control(ControlMsg::Install(spec.node));
        }

        // A disk's wake is a due timer on the node's control lane. It holds
        // the cells weakly: a write that lands after the deployment is
        // gone wakes nobody.
        let weak: Vec<_> = cells.iter().map(Arc::downgrade).collect();
        let fire: Fire = Arc::new(move |timer: Timer| {
            if let Some(cell) = weak[timer.node.index()].upgrade() {
                cell.push_control(ControlMsg::Fire(since(epoch), timer));
            }
        });
        let mut pool = WorkerPool { sched: sched.clone(), handles: Vec::with_capacity(nworkers) };
        for w in 0..nworkers {
            let worker = Worker::new(
                w,
                sched.clone(),
                cells.clone(),
                epoch,
                transport.clone(),
                self.metrics.shard(),
                self.trace.clone(),
            );
            match std::thread::Builder::new()
                .name(format!("rt-worker-{w}"))
                .spawn({
                    let fire = fire.clone();
                    move || {
                        storage::take_wakes(fire);
                        worker.run()
                    }
                })
            {
                Ok(handle) => pool.handles.push(handle),
                // Dropping `pool` here shuts down every spawned worker
                // and joins them, so a partial start never leaks
                // threads.
                Err(source) => return Err(RuntimeError::WorkerSpawn { worker: w, source }),
            }
        }

        Ok(Runtime {
            router,
            transport,
            cells,
            slots: (0..nnodes).map(|_| RtSlot::Running).collect(),
            names,
            factories,
            metrics: self.metrics,
            trace: self.trace,
            epoch,
            pool,
        })
    }
}

/// Owns the worker threads; dropping it (after [`Runtime::shutdown`]'s
/// orderly per-node stop, or on an abandoned runtime) tells every worker
/// to exit and joins it, so workers never outlive the deployment.
struct WorkerPool {
    sched: Arc<Scheduler>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.sched.shut_down();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

enum NodeSlot<M> {
    /// No instance under this id (not installed yet, or halted).
    Empty,
    /// A live instance.
    Live(Box<dyn RtNode<M>>),
    /// A handler panicked; the message is held for kill/stop replies.
    Poisoned(String),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "node handler panicked (non-string payload)".into())
}

/// Runs `f` (a node's handler, through the step rule) under
/// `catch_unwind`: a panic becomes its message.
fn guarded(f: impl FnOnce()) -> Result<(), String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(panic_message)
}

/// The live worker's [`Sink`]: where the step rule drains a handler's
/// effects. Owned by one worker and reused across steps.
struct Sinks<M> {
    /// Takes every send as its effect is applied.
    transport: Arc<dyn Transport<M>>,
    /// The index of the worker that owns this sink.
    worker: usize,
    /// Where a cancel of a timer another worker's calendar holds goes.
    sched: Arc<Scheduler>,
    /// The timers this worker's handlers armed, keyed by nanoseconds
    /// since `epoch_instant`. A cancel takes its timer out by handle,
    /// here or through the owning worker's disarm inbox, so the calendar
    /// holds only pending timers and never searches for one.
    timers: Calendar<Timer>,
    /// This worker's shard of the deployment's sink: no other worker
    /// records into it.
    metrics: MetricsSink,
    trace: Option<TraceBuffer>,
    epoch_instant: Instant,
    /// The running handler's one clock read, as wall time since
    /// `epoch_instant`: its node's local time, its timers' deadlines and
    /// its trace stamps all derive from it.
    now: SimTime,
    /// A test's stand-in for the wall clock.
    #[cfg(test)]
    scripted: Option<SimTime>,
}

impl<M> Sinks<M> {
    /// Reads the clock for the next handler.
    fn tick(&mut self) -> SimTime {
        #[cfg(test)]
        if let Some(at) = self.scripted {
            self.now = at;
            return at;
        }
        self.now = since(self.epoch_instant);
        self.now
    }
}

impl<M: Send + Sync + 'static> Sink<M> for Sinks<M> {
    fn send(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.transport.send(from, to, msg);
    }

    fn arm(&mut self, due: SimTime, timer: Timer) -> Option<Armed> {
        Some(Armed { queue: self.worker as u32, handle: self.timers.push(due, timer) })
    }

    fn disarm(&mut self, armed: Armed) {
        match armed.queue as usize {
            w if w == self.worker => {
                self.timers.cancel(armed.handle);
            }
            w => self.sched.post_disarm(w, armed.handle),
        }
    }

    fn note(&mut self, from: NodeId, text: Note) {
        if let Some(buffer) = &self.trace {
            buffer.push(LiveTraceEntry { at: self.now, node: from, text });
        }
    }

    fn incr(&mut self, name: MetricId) {
        self.metrics.incr(name);
    }

    fn observe(&mut self, name: MetricId, value: f64) {
        self.metrics.observe(name, value);
    }

    /// Audit text is built only for a consumer: without a capture
    /// buffer the node is told not to produce it.
    fn notes(&self) -> bool {
        self.trace.is_some()
    }
}

/// Wall time since `epoch` as a [`SimTime`]: the clock of the timer
/// queues, the trace buffer, the nodes' local clocks and the chaos
/// transport's fault windows.
pub(crate) fn since(epoch: Instant) -> SimTime {
    SimTime::from_nanos(Instant::now().saturating_duration_since(epoch).as_nanos() as u64)
}

struct Worker<M> {
    index: usize,
    sched: Arc<Scheduler>,
    cells: Vec<Arc<NodeCell<M>>>,
    sinks: Sinks<M>,
    /// Reusable buffers: the step rule's effects scratch, the two lanes
    /// a step drains its cell into, and the cancels taken from this
    /// worker's disarm inbox.
    effects: Vec<Effect<M>>,
    ctls: Vec<ControlMsg<M>>,
    data: Vec<(NodeId, M)>,
    disarms: Vec<Handle>,
}

impl<M: Send + Sync + Clone + std::fmt::Debug + 'static> Worker<M> {
    /// Worker `index` of the pool `sched` runs, stepping `cells`.
    fn new(
        index: usize,
        sched: Arc<Scheduler>,
        cells: Vec<Arc<NodeCell<M>>>,
        epoch: Instant,
        transport: Arc<dyn Transport<M>>,
        metrics: MetricsSink,
        trace: Option<TraceBuffer>,
    ) -> Self {
        let sinks = Sinks {
            transport,
            worker: index,
            sched: sched.clone(),
            timers: Calendar::new(),
            metrics,
            trace,
            epoch_instant: epoch,
            now: SimTime::ZERO,
            #[cfg(test)]
            scripted: None,
        };
        Worker {
            index,
            sched,
            cells,
            sinks,
            effects: Vec::new(),
            ctls: Vec::new(),
            data: Vec::new(),
            disarms: Vec::new(),
        }
    }

    fn run(mut self) {
        self.sched.enter(self.index);
        // Shutdown comes after every node was stopped (or the whole
        // deployment was abandoned), so returning on it is safe.
        while !self.sched.is_shut_down() {
            self.queue_due_timers(since(self.sinks.epoch_instant));
            // One bounded batch for one node, then re-check timers —
            // round-robin fairness under floods.
            if let Some(idx) = self.sched.pop(self.index) {
                self.step(idx);
                continue;
            }
            // Idle, and no sibling had work to steal: park until the
            // next timer deadline or a wake.
            let epoch = self.sinks.epoch_instant;
            let deadline = self.sinks.timers.next_time().and_then(|due| {
                epoch.checked_add(Duration::from_nanos(due.as_nanos()))
            });
            self.sched.park(self.index, deadline);
        }
    }

    /// Takes out the timers other workers cancelled, then moves every
    /// timer due by `now` onto its node's control lane; the step that
    /// drains it fires it or finds it void. A void timer of a node that
    /// no worker is stepping is dropped here instead, and costs no step;
    /// the step judges the rest, so this look does not fire.
    fn queue_due_timers(&mut self, now: SimTime) {
        self.sched.take_disarms(self.index, &mut self.disarms);
        for handle in self.disarms.drain(..) {
            self.sinks.timers.cancel(handle);
        }
        while let Some((due, timer)) = self.sinks.timers.pop_due(now) {
            let cell = &self.cells[timer.node.index()];
            if cell.node.try_lock().is_ok_and(|node| !node.life.would_fire(&timer)) {
                continue;
            }
            cell.push_control(ControlMsg::Fire(due, timer));
        }
    }

    /// Steps one queued node: drains its control lane (lifecycle and
    /// due timers are never shed), then up to [`MAX_STEP_BATCH`] data
    /// envelopes, and runs their handlers. A node left with queued work
    /// goes to the back of this worker's queue; otherwise the step ends
    /// its scheduling, and the next push queues it wherever that push
    /// runs.
    fn step(&mut self, idx: u32) {
        let cell = &*self.cells[idx as usize];
        {
            let mut node = cell.node.lock().unwrap_or_else(|e| e.into_inner());
            cell.drain(MAX_STEP_BATCH, &mut self.ctls, &mut self.data);
            node.step(cell, idx, &mut self.sinks, &mut self.effects, &mut self.ctls, &mut self.data);
        }
        if cell.finish_step() {
            self.sched.push(self.index, idx);
        }
    }
}

impl<M: Send + Sync + Clone + std::fmt::Debug + 'static> NodeState<M> {
    /// Runs the handlers for one drained batch through the step rule.
    /// Whatever a halt, a panic or a down node leaves in the buffers is
    /// void and cleared.
    fn step(
        &mut self,
        cell: &NodeCell<M>,
        idx: u32,
        sinks: &mut Sinks<M>,
        effects: &mut Vec<Effect<M>>,
        ctls: &mut Vec<ControlMsg<M>>,
        data: &mut Vec<(NodeId, M)>,
    ) {
        let id = NodeId::from_index(idx as usize);
        for ctl in ctls.drain(..) {
            let mut step = Step { id, life: &mut self.life, rng: &mut self.rng, clock: &self.clock };
            let result = match ctl {
                ControlMsg::Crash => match &mut self.slot {
                    NodeSlot::Live(node) => guarded(|| {
                        step.crash(&mut **node, sinks);
                    }),
                    _ => Ok(()),
                },
                ControlMsg::Recover => match &mut self.slot {
                    NodeSlot::Live(node) if step.recover(sinks) => {
                        run(&mut step, &mut **node, sinks, effects, |node, ctx| node.on_recover(ctx))
                    }
                    _ => Ok(()),
                },
                ControlMsg::Halt(exit, reply) => {
                    let result = match std::mem::replace(&mut self.slot, NodeSlot::Empty) {
                        NodeSlot::Live(node) => Ok((exit, node)),
                        NodeSlot::Poisoned(msg) => Err(msg),
                        NodeSlot::Empty => Err(format!("node {idx} has no live instance")),
                    };
                    cell.clear_dead();
                    match exit {
                        NodeExit::Killed => step.kill(sinks),
                        NodeExit::Stopped => {
                            step.life.down();
                        }
                    }
                    let _ = reply.send(result);
                    // The node is off the pool: the rest of the batch
                    // is void.
                    data.clear();
                    return;
                }
                ControlMsg::Install(node) => {
                    // A fresh instance in a new incarnation: old timers
                    // are dead, and `on_start` replays durable state.
                    step.restart(sinks);
                    self.slot = NodeSlot::Live(node);
                    let NodeSlot::Live(node) = &mut self.slot else { unreachable!("just installed") };
                    run(&mut step, &mut **node, sinks, effects, |node, ctx| node.on_start(ctx))
                }
                ControlMsg::Fire(due, timer) => match &mut self.slot {
                    NodeSlot::Live(node) if step.life.fires(&timer) => {
                        let at = sinks.tick();
                        let drift = at.saturating_since(due);
                        sinks.metrics.observe(MetricId::RT_TIMER_DRIFT_NS, drift.as_nanos() as f64);
                        run(&mut step, &mut **node, sinks, effects, |node, ctx| node.on_timer(ctx, timer.tag))
                    }
                    _ => Ok(()),
                },
            };
            if let Err(msg) = result {
                self.poison(cell, sinks, msg);
            }
        }

        let mut result = Ok(());
        if let NodeSlot::Live(node) = &mut self.slot {
            // A crashed (down) node hears nothing: the batch is consumed
            // and dropped, and counted as `World` counts it.
            if !self.life.is_up() && !data.is_empty() {
                sinks.metrics.add(MetricId::NET_DROP_DESTINATION_DOWN, data.len() as u64);
            } else if !data.is_empty() {
                sinks.metrics.observe(MetricId::RT_BATCH_SIZE, data.len() as f64);
                let mut step = Step { id, life: &mut self.life, rng: &mut self.rng, clock: &self.clock };
                for (from, msg) in data.drain(..) {
                    result = run(&mut step, &mut **node, sinks, effects, |node, ctx| {
                        node.on_message(ctx, from, msg)
                    });
                    if result.is_err() {
                        break;
                    }
                }
            }
        }
        if let Err(msg) = result {
            self.poison(cell, sinks, msg);
        }
        data.clear();
    }

    /// Marks a node's remains after a handler panic: the cell goes
    /// dead (traffic to it silently vanishes, like a crashed process),
    /// the node dies like a killed one (its timers void), and the
    /// message is held for the kill/stop reply.
    fn poison(&mut self, cell: &NodeCell<M>, sinks: &mut Sinks<M>, msg: String) {
        cell.clear_dead();
        let id = NodeId::from_index(cell.index as usize);
        Step { id, life: &mut self.life, rng: &mut self.rng, clock: &self.clock }.kill(sinks);
        self.slot = NodeSlot::Poisoned(msg);
    }
}

/// Runs one handler of `node` through the step rule at a fresh clock
/// read, under `catch_unwind`. A panicking handler's effects are
/// dropped, and its message returned. A disk write the handler hands
/// over may go in flight: the disk wakes the node in this incarnation.
fn run<M: Send + Sync + Clone + std::fmt::Debug + 'static>(
    step: &mut Step<'_>,
    node: &mut dyn RtNode<M>,
    sinks: &mut Sinks<M>,
    effects: &mut Vec<Effect<M>>,
    call: impl FnOnce(&mut dyn RtNode<M>, &mut Context<'_, M>),
) -> Result<(), String> {
    let at = sinks.tick();
    let (id, incarnation) = (step.id, step.life.incarnation());
    let result =
        guarded(|| storage::in_step(id, incarnation, || step.run(at, effects, sinks, |ctx| call(node, ctx))));
    effects.clear();
    result
}

/// Runtime-side view of one node slot.
enum RtSlot<M> {
    /// The node is (presumed) live on its worker.
    Running,
    /// The node was stopped or killed; the outcome is held for
    /// [`Runtime::shutdown`].
    Finished(NodeResult<M>),
}

/// A running pooled deployment.
pub struct Runtime<M> {
    router: Arc<Router<M>>,
    transport: Arc<dyn Transport<M>>,
    cells: Vec<Arc<NodeCell<M>>>,
    slots: Vec<RtSlot<M>>,
    names: Vec<String>,
    factories: Vec<Option<NodeFactory<M>>>,
    metrics: MetricsSink,
    trace: Option<TraceBuffer>,
    epoch: Instant,
    pool: WorkerPool,
}

impl<M> std::fmt::Debug for Runtime<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("nodes", &self.cells.len())
            .field("workers", &self.pool.handles.len())
            .finish()
    }
}

impl<M: Send + Sync + Clone + std::fmt::Debug + 'static> Runtime<M> {
    /// The router (for installing link policies and reading traffic
    /// stats).
    pub fn router(&self) -> &Arc<Router<M>> {
        &self.router
    }

    /// The transport nodes send through (the router itself, or the
    /// decorator installed via [`RuntimeBuilder::wrap_transport`]).
    pub fn transport(&self) -> &Arc<dyn Transport<M>> {
        &self.transport
    }

    /// The deployment-wide metrics sink fed by every worker.
    /// `metrics().snapshot()` gives a point-in-time
    /// [`wanacl_sim::metrics::Metrics`] for the exporters in
    /// [`wanacl_sim::obs`].
    pub fn metrics(&self) -> &MetricsSink {
        &self.metrics
    }

    /// The live trace buffer, when capture was enabled at build time.
    pub fn trace(&self) -> Option<&TraceBuffer> {
        self.trace.as_ref()
    }

    /// Number of worker threads serving the deployment.
    pub fn workers(&self) -> usize {
        self.pool.handles.len()
    }

    /// The instant the deployment started — the zero point of every
    /// [`LiveTraceEntry::at`].
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Injects a message as the environment. Goes through the base
    /// router, bypassing any chaos decorator: the test driver's control
    /// traffic is not subject to injected faults.
    pub fn send_from_env(&self, to: NodeId, msg: M) {
        self.router.send(NodeId::ENV, to, msg);
    }

    /// Crashes a node: it drops volatile state (`Node::on_crash`) and
    /// ignores all traffic until [`Runtime::recover`].
    pub fn crash(&self, node: NodeId) {
        if matches!(self.slots.get(node.index()), Some(RtSlot::Running)) {
            self.cells[node.index()].push_control(ControlMsg::Crash);
        }
    }

    /// Recovers a crashed node (`Node::on_recover`).
    pub fn recover(&self, node: NodeId) {
        if matches!(self.slots.get(node.index()), Some(RtSlot::Running)) {
            self.cells[node.index()].push_control(ControlMsg::Recover);
        }
    }

    /// Kills a node like a process death: no `on_crash` hook runs, its
    /// inbox goes dead (in-flight traffic to it is lost, as to a down
    /// host), and the stale node object is parked for
    /// [`Runtime::shutdown`]. Blocks until the worker that steps the
    /// kill confirms.
    /// Returns how the node ended, or the panic message if it was
    /// already down from a panic.
    pub fn kill(&mut self, node: NodeId) -> Result<NodeExit, String> {
        let index = node.index();
        let Some(slot) = self.slots.get_mut(index) else {
            return Err(format!("unknown node {index}"));
        };
        if matches!(slot, RtSlot::Finished(_)) {
            return Err(format!("node {index} ({}) is not running", self.names[index]));
        }
        let (reply_tx, reply_rx) = unbounded();
        self.cells[index].push_control(ControlMsg::Halt(NodeExit::Killed, reply_tx));
        match reply_rx.recv() {
            Ok(Ok((exit, stale))) => {
                self.metrics.incr(MetricId::RT_NODE_KILLED);
                self.slots[index] = RtSlot::Finished(Ok((exit, stale)));
                Ok(exit)
            }
            Ok(Err(msg)) => {
                self.slots[index] = RtSlot::Finished(Err(msg.clone()));
                Err(msg)
            }
            Err(_) => Err(format!("worker serving node {index} is gone")),
        }
    }

    /// Respawns a killed node from its registered factory (see
    /// [`RuntimeBuilder::add_node_with_factory`]): a fresh node instance
    /// under the same id, with its inbox cell revived in place. Durable
    /// state comes back through whatever the factory rebinds — for
    /// managers, the `FileStorage` WAL + snapshot recovery in
    /// `on_start`. A factory that fails leaves the node down and its
    /// error is returned.
    pub fn restart(&mut self, node: NodeId) -> Result<(), String> {
        let index = node.index();
        if !matches!(self.slots.get(index), Some(RtSlot::Finished(_))) {
            return Err(format!("node {index} is still running (kill it first)"));
        }
        let Some(Some(factory)) = self.factories.get(index) else {
            return Err(format!("node {index} has no restart factory"));
        };
        let fresh = factory()?;
        // The killed instance goes before the fresh one starts, and with
        // it its disk, once the write it left in flight lands: `on_start`
        // reads a quiet log.
        self.slots[index] = RtSlot::Running;
        // Revive before queueing the install so traffic arriving from
        // now on sits behind `on_start`, like packets reaching a
        // booting process.
        self.cells[index].revive();
        self.cells[index].push_control(ControlMsg::Install(fresh));
        self.metrics.incr(MetricId::RT_NODE_RESTARTED);
        Ok(())
    }

    /// Stops every running node and returns the per-node outcomes, in
    /// id order: the exit status and node object, or the panic message
    /// for a node whose handler panicked. A single crashed node never
    /// aborts the whole teardown. Worker threads exit after the last
    /// reply.
    pub fn shutdown(self) -> Vec<NodeResult<M>> {
        let mut pending: Vec<Option<Receiver<NodeResult<M>>>> = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if matches!(slot, RtSlot::Running) {
                let (tx, rx) = unbounded();
                self.cells[i].push_control(ControlMsg::Halt(NodeExit::Stopped, tx));
                pending.push(Some(rx));
            } else {
                pending.push(None);
            }
        }
        self.slots
            .into_iter()
            .zip(pending)
            .enumerate()
            .map(|(i, (slot, rx))| match slot {
                RtSlot::Finished(outcome) => outcome,
                RtSlot::Running => rx
                    .and_then(|rx| rx.recv().ok())
                    .unwrap_or_else(|| Err(format!("worker serving node {i} is gone"))),
            })
            .collect()
        // `self.pool` drops here: the exit sentinel goes to each worker
        // and they are joined.
    }

    /// Convenience teardown for tests and examples that expect every
    /// node to come back: unwraps each outcome, panicking with the
    /// node's panic message otherwise.
    pub fn shutdown_nodes(self) -> Vec<Box<dyn RtNode<M>>> {
        self.shutdown()
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| match outcome {
                Ok((_, node)) => node,
                Err(msg) => panic!("node {i} panicked: {msg}"),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[derive(Debug, Default)]
    struct Counter {
        seen: u64,
        timer_fired: bool,
    }

    impl Node for Counter {
        type Msg = u64;
        fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
            ctx.set_timer(wanacl_sim::time::SimDuration::from_millis(20), 7);
        }
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
            self.seen += 1;
            if from != NodeId::ENV && msg < 3 {
                ctx.send(from, msg + 1);
            }
        }
        fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, tag: u64) {
            assert_eq!(tag, 7);
            self.timer_fired = true;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[derive(Debug)]
    struct Opener {
        target: NodeId,
        replies: u64,
    }

    impl Node for Opener {
        type Msg = u64;
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
            if from == NodeId::ENV {
                ctx.send(self.target, 0);
            } else {
                self.replies += 1;
                if msg < 3 {
                    ctx.send(from, msg + 1);
                }
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
    fn threads_exchange_messages_and_fire_timers() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(1);
        let counter_id = b.add_node("counter", Box::new(Counter::default()));
        let opener_id = b.add_node("opener", Box::new(Opener { target: counter_id, replies: 0 }));
        let rt = b.start();
        rt.send_from_env(opener_id, 0);
        std::thread::sleep(Duration::from_millis(200));
        let nodes = rt.shutdown_nodes();
        let counter = nodes[0].as_any().downcast_ref::<Counter>().expect("counter");
        let opener = nodes[1].as_any().downcast_ref::<Opener>().expect("opener");
        // Ping-pong 0->1->2->3 gives the counter messages 0 and 2.
        assert_eq!(counter.seen, 2);
        assert!(counter.timer_fired);
        assert_eq!(opener.replies, 2);
    }

    #[derive(Debug, Default)]
    struct Emitter;

    impl Node for Emitter {
        type Msg = u64;
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
            ctx.metric_incr(MetricId::HOST_INVOKES);
            ctx.metric_observe(MetricId::HOST_CHECK_LATENCY_S, msg as f64);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn metric_effects_reach_the_shared_sink() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(3);
        let a = b.add_node("a", Box::new(Emitter));
        let c = b.add_node("b", Box::new(Emitter));
        let rt = b.start();
        rt.send_from_env(a, 10);
        rt.send_from_env(c, 30);
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.metrics().counter("host.invokes") < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = rt.metrics().snapshot();
        rt.shutdown();
        assert_eq!(snap.counter("host.invokes"), 2);
        let summary = snap.histogram("host.check_latency_s").and_then(|h| h.summary()).expect("samples");
        assert_eq!(summary.count, 2);
        assert_eq!(summary.sum, 40.0);
    }

    #[test]
    fn shutdown_returns_nodes_in_id_order() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(2);
        let a = b.add_node("a", Box::new(Counter::default()));
        let c = b.add_node("b", Box::new(Counter::default()));
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
        let rt = b.start();
        let nodes = rt.shutdown();
        assert_eq!(nodes.len(), 2);
        for (i, outcome) in nodes.into_iter().enumerate() {
            let (exit, _) = outcome.unwrap_or_else(|e| panic!("node {i}: {e}"));
            assert_eq!(exit, NodeExit::Stopped);
        }
    }

    /// On any message, dies the way a buggy node would.
    #[derive(Debug)]
    struct Panicker;

    impl Node for Panicker {
        type Msg = u64;
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {
            panic!("injected node bug");
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn one_panicking_node_is_reported_not_cascaded() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(5);
        // One worker: both nodes share it, proving a panic is contained
        // per node, not per thread.
        b.workers(1);
        let bad = b.add_node("bad", Box::new(Panicker));
        let good = b.add_node("good", Box::new(Counter::default()));
        let rt = b.start();
        rt.send_from_env(bad, 1);
        rt.send_from_env(good, 1);
        std::thread::sleep(Duration::from_millis(100));
        let outcomes = rt.shutdown();
        let Err(err) = outcomes[bad.index()].as_ref() else {
            panic!("panic must surface as Err");
        };
        assert!(err.contains("injected node bug"), "{err}");
        let (exit, node) = outcomes[good.index()].as_ref().expect("good node survives");
        assert_eq!(*exit, NodeExit::Stopped);
        assert_eq!(node.as_any().downcast_ref::<Counter>().expect("counter").seen, 1);
    }

    #[test]
    fn kill_then_restart_respawns_from_the_factory() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(9);
        let a = b
            .add_node_with_factory("replayable", Arc::new(|| Ok(Box::new(Counter::default()))))
            .expect("the first instance builds");
        let mut rt = b.start();
        rt.send_from_env(a, 1);
        std::thread::sleep(Duration::from_millis(50));

        assert_eq!(rt.kill(a), Ok(NodeExit::Killed));
        assert!(rt.kill(a).is_err(), "double kill is an error");
        // Traffic to a killed node vanishes silently, like a down host.
        rt.send_from_env(a, 2);
        std::thread::sleep(Duration::from_millis(20));

        rt.restart(a).expect("factory registered");
        rt.send_from_env(a, 3);
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(rt.metrics().counter("rt.node_killed"), 1);
        assert_eq!(rt.metrics().counter("rt.node_restarted"), 1);

        let outcomes = rt.shutdown();
        let (exit, node) = outcomes[a.index()].as_ref().expect("restarted node");
        assert_eq!(*exit, NodeExit::Stopped);
        // The fresh instance saw only the post-restart message.
        assert_eq!(node.as_any().downcast_ref::<Counter>().expect("counter").seen, 1);
    }

    /// A factory that cannot rebuild its node (its storage is gone) makes
    /// `restart` fail with the factory's reason: the node stays down, no
    /// worker panics, and the other nodes keep serving.
    #[test]
    fn a_failing_factory_fails_the_restart_not_the_runtime() {
        use std::sync::atomic::AtomicUsize;
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(9);
        let calls = Arc::new(AtomicUsize::new(0));
        let factory: NodeFactory<u64> = Arc::new(move || match calls.fetch_add(1, Ordering::Relaxed) {
            0 => Ok(Box::new(Counter::default())),
            _ => Err("storage directory is gone".to_owned()),
        });
        let a = b.add_node_with_factory("doomed", factory).expect("the first instance builds");
        let other = b.add_node("other", Box::new(Counter::default()));
        let mut rt = b.start();
        rt.kill(a).expect("kill");
        let err = rt.restart(a).expect_err("the factory fails");
        assert!(err.contains("storage directory is gone"), "{err}");
        assert_eq!(rt.metrics().counter("rt.node_restarted"), 0);
        rt.send_from_env(other, 1);
        std::thread::sleep(Duration::from_millis(50));
        let outcomes = rt.shutdown();
        let (exit, _) = outcomes[a.index()].as_ref().expect("no panic");
        assert_eq!(*exit, NodeExit::Killed, "the node stays down");
        let (exit, node) = outcomes[other.index()].as_ref().expect("no panic");
        assert_eq!(*exit, NodeExit::Stopped);
        assert_eq!(node.as_any().downcast_ref::<Counter>().expect("counter").seen, 1);
    }

    #[test]
    fn restart_without_factory_is_an_error() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(9);
        let a = b.add_node("fixed", Box::new(Counter::default()));
        let mut rt = b.start();
        rt.kill(a).expect("kill");
        let err = rt.restart(a).expect_err("no factory");
        assert!(err.contains("factory"), "{err}");
        rt.shutdown();
    }

    #[derive(Debug)]
    struct Tracer;

    impl Node for Tracer {
        type Msg = u64;
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
            ctx.trace(format!("audit=test msg={msg}"));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn trace_capture_collects_notes_with_a_shared_clock() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(11);
        let buffer = b.capture_traces();
        let a = b.add_node("tracer", Box::new(Tracer));
        let rt = b.start();
        rt.send_from_env(a, 42);
        let deadline = Instant::now() + Duration::from_secs(5);
        while buffer.is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        rt.shutdown();
        let entries = buffer.drain_sorted();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].node, a);
        assert_eq!(entries[0].text, Note::from("audit=test msg=42"));
        assert!(buffer.is_empty(), "drain takes everything");
    }

    #[test]
    fn timer_firings_record_bounded_drift() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(13);
        b.add_node("ticker", Box::new(Counter::default()));
        let rt = b.start();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let snap = rt.metrics().snapshot();
            if snap.histogram("rt.timer_drift_ns").and_then(|h| h.summary()).is_some() {
                break;
            }
            assert!(Instant::now() < deadline, "timer never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        let snap = rt.metrics().snapshot();
        rt.shutdown();
        let drift =
            snap.histogram("rt.timer_drift_ns").and_then(|h| h.summary()).expect("drift sample");
        assert!(drift.count >= 1);
        // Absolute-deadline firing keeps drift far below the old
        // stale-`recv_timeout` loop's worst case; 100ms is generous
        // slack for a loaded CI machine.
        assert!(drift.max < 100_000_000.0, "drift {:?}ns", drift.max);
    }

    /// On each trigger message, sprays `base..base + n` at one peer.
    #[derive(Debug)]
    struct Sprayer {
        target: NodeId,
        base: u64,
        n: u64,
    }

    impl Node for Sprayer {
        type Msg = u64;
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, _msg: u64) {
            if from == NodeId::ENV {
                for i in self.base..self.base + self.n {
                    ctx.send(self.target, i);
                }
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Hands everything it hears to the test, in arrival order.
    #[derive(Debug)]
    struct Forwarder(Sender<u64>);

    impl Node for Forwarder {
        type Msg = u64;
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, msg: u64) {
            let _ = self.0.send(msg);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts the sends nodes hand it on their way to the router.
    struct CountingTransport {
        inner: Arc<Router<u64>>,
        sends: Arc<AtomicU64>,
    }

    impl Transport<u64> for CountingTransport {
        fn send(&self, from: NodeId, to: NodeId, msg: u64) {
            self.sends.fetch_add(1, Ordering::SeqCst);
            self.inner.send(from, to, msg);
        }
    }

    /// Four sprayers with four different home workers spray one sink
    /// through a counting decorator. Wherever each sprayer's steps run —
    /// a woken node runs where its waker ran, and idle workers steal —
    /// the decorator sees every send singly and the sink hears each
    /// sprayer's stream in emission order.
    #[test]
    fn every_send_passes_the_transport_once_and_arrives_in_emission_order() {
        const SPRAYERS: u64 = 4;
        const PER_SPRAYER: u64 = 512;
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(17);
        b.workers(4);
        let sends = Arc::new(AtomicU64::new(0));
        let counted = sends.clone();
        b.wrap_transport(move |inner| Ok(Arc::new(CountingTransport { inner, sends: counted })));
        let sink = NodeId::from_index(SPRAYERS as usize);
        let sprayers: Vec<NodeId> = (0..SPRAYERS)
            .map(|s| {
                let sprayer = Sprayer { target: sink, base: s << 32, n: PER_SPRAYER };
                b.add_node(format!("sprayer{s}"), Box::new(sprayer))
            })
            .collect();
        let (heard_tx, heard_rx) = unbounded();
        assert_eq!(b.add_node("sink", Box::new(Forwarder(heard_tx))), sink);
        let rt = b.start();
        assert_eq!(rt.workers(), 4);
        for &s in &sprayers {
            rt.send_from_env(s, 0);
        }
        let wait = Duration::from_secs(10);
        let heard: Vec<u64> =
            (0..SPRAYERS * PER_SPRAYER).map_while(|_| heard_rx.recv_timeout(wait).ok()).collect();
        rt.shutdown();
        assert_eq!(heard.len() as u64, SPRAYERS * PER_SPRAYER, "nothing lost");
        for s in 0..SPRAYERS {
            let stream: Vec<u64> =
                heard.iter().filter(|m| **m >> 32 == s).map(|m| m & 0xffff_ffff).collect();
            assert_eq!(stream, (0..PER_SPRAYER).collect::<Vec<u64>>(), "sprayer {s} out of order");
        }
        // The env triggers go to the base router, past the decorator.
        assert_eq!(
            sends.load(Ordering::SeqCst),
            SPRAYERS * PER_SPRAYER,
            "a decorator sees every node send singly"
        );
    }

    /// Records a slow `on_start` and fails any message that beats it.
    #[derive(Debug)]
    struct StartFirst {
        started: bool,
        heard: Arc<AtomicU64>,
    }

    impl Node for StartFirst {
        type Msg = u64;
        fn on_start(&mut self, _ctx: &mut Context<'_, u64>) {
            // Slow enough that most nodes are still waiting for theirs
            // when the messages arrive, and idle workers steal them.
            std::thread::sleep(Duration::from_millis(1));
            self.started = true;
        }
        fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {
            assert!(self.started, "a message reached the node before its on_start");
            self.heard.fetch_add(1, Ordering::SeqCst);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Env sends issued the moment `start` returns meet nodes that no
    /// worker has installed yet; a sibling may steal any of them. Every
    /// node still runs `on_start` before its first message.
    #[test]
    fn on_start_precedes_every_message_on_every_worker() {
        const NODES: usize = 64;
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(31);
        b.workers(4);
        let heard = Arc::new(AtomicU64::new(0));
        let ids: Vec<NodeId> = (0..NODES)
            .map(|i| {
                let node = StartFirst { started: false, heard: heard.clone() };
                b.add_node(format!("n{i}"), Box::new(node))
            })
            .collect();
        let rt = b.start();
        for &id in &ids {
            rt.send_from_env(id, 1);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while heard.load(Ordering::SeqCst) < NODES as u64 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        for (i, outcome) in rt.shutdown().into_iter().enumerate() {
            let (exit, _) = outcome.unwrap_or_else(|e| panic!("node {i}: {e}"));
            assert_eq!(exit, NodeExit::Stopped);
        }
        assert_eq!(heard.load(Ordering::SeqCst), NODES as u64, "every node heard its message");
    }

    /// Runs `f` on a fresh thread that counts as worker `w` of `sched`.
    fn as_worker(sched: &Arc<Scheduler>, w: usize, f: impl FnOnce(&Scheduler) + Send + 'static) {
        let sched = sched.clone();
        std::thread::spawn(move || {
            sched.enter(w);
            f(&sched);
        })
        .join()
        .expect("worker thread");
    }

    #[test]
    fn a_wake_from_a_worker_lands_on_that_workers_queue() {
        let sched = Scheduler::new(3);
        // Node 0's home is worker 0, but worker 2's handler woke it.
        as_worker(&sched, 2, |s| s.wake(0, 0));
        assert_eq!((sched.queued(0), sched.queued(1), sched.queued(2)), (0, 0, 1));
        // A worker of another pool is an outside thread here.
        let other = Scheduler::new(3);
        let here = sched.clone();
        as_worker(&other, 2, move |_| here.wake(4, 1));
        assert_eq!((sched.queued(0), sched.queued(1), sched.queued(2)), (0, 1, 1));
    }

    #[test]
    fn a_wake_from_outside_the_pool_lands_on_the_home_workers_queue() {
        let sched = Scheduler::new(2);
        sched.wake(3, 1);
        assert_eq!((sched.queued(0), sched.queued(1)), (0, 1));
        assert_eq!(sched.pop(1), Some(3));
        // A parked home worker is woken for it.
        let (popped_tx, popped_rx) = unbounded();
        let home = {
            let sched = sched.clone();
            std::thread::spawn(move || {
                sched.enter(1);
                loop {
                    if let Some(idx) = sched.pop(1) {
                        let _ = popped_tx.send(idx);
                        return;
                    }
                    sched.park(1, None);
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while sched.sleepers.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the home worker never parked");
            std::thread::yield_now();
        }
        sched.wake(4, 1);
        assert_eq!(popped_rx.recv_timeout(Duration::from_secs(10)), Ok(4));
        home.join().expect("home worker");
    }

    #[test]
    fn an_idle_worker_steals_the_back_of_a_siblings_queue() {
        let sched = Scheduler::new(2);
        for idx in [7, 8, 9] {
            sched.wake(idx, 0);
        }
        assert_eq!(sched.pop(1), Some(9), "the thief takes the newest");
        assert_eq!(sched.pop(0), Some(7), "the owner keeps its order");
        assert_eq!(sched.pop(1), Some(8));
        assert_eq!(sched.pop(0), None);
    }

    #[test]
    fn a_backlog_wakes_a_parked_sibling() {
        let sched = Scheduler::new(2);
        let (stole_tx, stole_rx) = unbounded();
        let thief = {
            let sched = sched.clone();
            std::thread::spawn(move || {
                sched.enter(1);
                loop {
                    if let Some(idx) = sched.pop(1) {
                        let _ = stole_tx.send(idx);
                        return;
                    }
                    sched.park(1, None);
                }
            })
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while sched.sleepers.load(Ordering::SeqCst) == 0 {
            assert!(Instant::now() < deadline, "the thief never parked");
            std::thread::yield_now();
        }
        // Worker 0 is busy running a handler that wakes two nodes: the
        // second is a backlog on its own queue.
        as_worker(&sched, 0, |s| {
            s.wake(5, 0);
            s.wake(6, 0);
        });
        assert_eq!(stole_rx.recv_timeout(Duration::from_secs(10)), Ok(6));
        thief.join().expect("thief");
    }

    /// Producers outside the pool wake nodes as fast as they can while
    /// two workers pop, steal and park; each producer's last few wakes
    /// are paced so that they meet parked workers. Every wake is popped:
    /// a lost one sits on a queue behind parked workers, and the
    /// watchdog sees the count stop short.
    #[test]
    fn no_wake_is_lost_under_four_producers() {
        const PRODUCERS: u32 = 4;
        const WAKES: u32 = 100_000;
        let sched = Scheduler::new(2);
        let popped = Arc::new(AtomicU64::new(0));
        let consumers: Vec<_> = (0..2)
            .map(|w| {
                let (sched, popped) = (sched.clone(), popped.clone());
                std::thread::spawn(move || {
                    sched.enter(w);
                    while !sched.is_shut_down() {
                        match sched.pop(w) {
                            Some(_) => {
                                popped.fetch_add(1, Ordering::Relaxed);
                            }
                            None => sched.park(w, None),
                        }
                    }
                })
            })
            .collect();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let sched = sched.clone();
                std::thread::spawn(move || {
                    for i in 0..WAKES {
                        sched.wake(p * WAKES + i, (i % 2) as usize);
                        if i + 16 >= WAKES {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().expect("producer");
        }
        let want = u64::from(PRODUCERS * WAKES);
        let deadline = Instant::now() + Duration::from_secs(10);
        while popped.load(Ordering::Relaxed) < want && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let got = popped.load(Ordering::Relaxed);
        sched.shut_down();
        for consumer in consumers {
            consumer.join().expect("consumer");
        }
        assert_eq!(got, want, "stalled with {} wakes queued", sched.queued(0) + sched.queued(1));
    }

    use crate::router::Envelope;
    use wanacl_core::prelude::{
        AppHost, AppId, CountingApp, HostNode, InvokeOutcome, ManagerDirectory, Policy, ProtoMsg,
        QueryVerdict, ReqId, UserId,
    };

    /// A host stepped by hand on a pool of workers (their run queues,
    /// `step` and `queue_due_timers`, no thread), so its armed timers and
    /// the calendars can be read and the clock skipped. Ids 1 and 2 are
    /// channel taps: the one manager and the client.
    struct HandHost {
        workers: Vec<Worker<ProtoMsg>>,
        router: Arc<Router<ProtoMsg>>,
        manager: Receiver<Envelope<ProtoMsg>>,
        client: Receiver<Envelope<ProtoMsg>>,
    }

    impl HandHost {
        const APP: AppId = AppId(0);

        /// A host whose checks try `attempts` times under a 100 ms query
        /// timeout, on a pool of `workers` hand-driven workers.
        fn new(workers: usize, attempts: u32) -> Self {
            use wanacl_sim::time::SimDuration;
            let manager = NodeId::from_index(1);
            let host = HostNode::new(
                vec![AppHost {
                    app: Self::APP,
                    policy: Policy::builder(1)
                        .revocation_bound(SimDuration::from_secs(10))
                        .query_timeout(SimDuration::from_millis(100))
                        .max_attempts(attempts)
                        .build(),
                    directory: ManagerDirectory::Static(vec![manager].into()),
                    application: Box::new(CountingApp::new()),
                }],
                None,
            );
            let router: Arc<Router<ProtoMsg>> = Router::new();
            let sched = Scheduler::new(workers);
            let cell = NodeCell::new(0, INBOX_CAPACITY, sched.clone(), Streams::new(23).0.node("host", ClockSpec::Perfect));
            router.freeze_cells(vec![cell.clone()]);
            let (manager_tx, manager_rx) = unbounded();
            let (client_tx, client_rx) = unbounded();
            assert_eq!(router.register(manager_tx), manager);
            assert_eq!(router.register(client_tx), NodeId::from_index(2));
            let epoch = Instant::now();
            let workers = (0..workers)
                .map(|w| Worker::new(w, sched.clone(), vec![cell.clone()], epoch, router.clone(), MetricsSink::new(), None))
                .collect();
            cell.push_control(ControlMsg::Install(Box::new(host)));
            let mut hand = HandHost { workers, router, manager: manager_rx, client: client_rx };
            hand.run_queued(0);
            hand
        }

        fn host(&self) -> NodeId {
            NodeId::from_index(0)
        }

        /// Steps the host on worker `w` until no run queue holds it.
        fn run_queued(&mut self, w: usize) {
            let worker = &mut self.workers[w];
            while let Some(idx) = worker.sched.pop(w) {
                worker.step(idx);
            }
        }

        /// The host's armed timers.
        fn armed(&self) -> usize {
            self.workers[0].cells[0].node.lock().expect("node lock").life.armed()
        }

        /// Timers worker `w`'s calendar holds.
        fn queued(&self, w: usize) -> usize {
            self.workers[w].sinks.timers.len()
        }

        /// A check of user `n` from the client, stepped on worker `w`.
        fn invoke(&mut self, w: usize, n: u64) {
            let msg = ProtoMsg::Invoke { app: Self::APP, user: UserId(n), req: ReqId(n), payload: "".into(), signature: None };
            self.router.send(NodeId::from_index(2), self.host(), msg);
            self.run_queued(w);
        }

        /// The manager grants the query it got, stepped on worker `w`.
        fn grant(&mut self, w: usize) {
            use wanacl_sim::time::SimDuration;
            let Envelope::Msg { msg: query, .. } = self.manager.try_recv().expect("a query");
            let ProtoMsg::Query { req, user, .. } = query else { panic!("manager got {query:?}") };
            let verdict = QueryVerdict::Grant { te: SimDuration::from_secs(5) };
            let grant = ProtoMsg::QueryReply { req, app: Self::APP, user, verdict, mac: None };
            self.router.send(NodeId::from_index(1), self.host(), grant);
            self.run_queued(w);
        }

        /// The outcomes the client got; there must be `n`.
        fn outcomes(&self, n: usize) -> Vec<InvokeOutcome> {
            let got: Vec<InvokeOutcome> = self
                .client
                .try_iter()
                .map(|Envelope::Msg { msg, .. }| match msg {
                    ProtoMsg::InvokeReply { outcome, .. } => outcome,
                    other => panic!("client got {other:?}"),
                })
                .collect();
            assert_eq!(got.len(), n);
            got
        }
    }

    /// A partitioned host's retry storm leaves no timer behind, and the
    /// checks a healed manager answers leave the calendar holding only
    /// the pending timers: a cancel takes its timer out at once.
    #[test]
    fn timed_out_attempts_leave_no_cancelled_timer_ids_behind() {
        const ATTEMPTS: u32 = 3;
        const STORM: u64 = 20;
        let mut hand = HandHost::new(1, ATTEMPTS);
        let pending = hand.armed();
        assert_eq!(hand.queued(0), pending, "the host's own timers");

        // Partitioned: the manager tap swallows every query, so each
        // attempt of each check runs into its query timer. A due timer
        // is only looked at while its node is unlocked: the step fires
        // it.
        for n in 0..STORM {
            hand.invoke(0, n);
        }
        let checks = pending + STORM as usize;
        assert_eq!((hand.armed(), hand.queued(0)), (checks, checks));
        assert_eq!(hand.manager.try_iter().count() as u64, STORM);
        for attempt in 1..=ATTEMPTS {
            hand.workers[0].queue_due_timers(SimTime::MAX);
            assert_eq!((hand.armed(), hand.queued(0)), (checks, 0), "looked at, not fired");
            hand.run_queued(0);
            let retries = if attempt < ATTEMPTS { STORM } else { 0 };
            assert_eq!(hand.manager.try_iter().count() as u64, retries, "attempt {attempt}'s timers fired");
        }
        assert!(hand.outcomes(STORM as usize).iter().all(|o| *o == InvokeOutcome::Unavailable));
        assert_eq!((hand.armed(), hand.queued(0)), (pending, pending), "a timer that fired is gone");

        // Healed: the manager answers, so the host cancels each query
        // timer while it is queued, and the calendar lets it go at once.
        for n in STORM..2 * STORM {
            hand.invoke(0, n);
            hand.grant(0);
        }
        assert!(hand.outcomes(STORM as usize).iter().all(|o| matches!(o, InvokeOutcome::Allowed { .. })));
        assert_eq!(hand.armed(), hand.queued(0), "the calendar holds only pending timers");
        assert!(hand.armed() <= pending + STORM as usize, "no query timer is pending");
    }

    /// A check that ran on one worker and whose reply runs on another:
    /// the cancel is posted to the worker whose calendar holds the
    /// timer, which takes it out at its next loop.
    #[test]
    fn a_cross_worker_cancel_frees_the_owners_slot_at_its_next_loop() {
        let mut hand = HandHost::new(2, 1);
        let pending = hand.armed();
        hand.invoke(0, 1);
        assert_eq!((hand.armed(), hand.queued(0)), (pending + 1, pending + 1));
        hand.grant(1);
        assert!(matches!(hand.outcomes(1)[0], InvokeOutcome::Allowed { .. }));
        let refreshes = hand.queued(1);
        assert_eq!(hand.armed(), pending + refreshes, "the query timer is disarmed");
        assert_eq!(hand.queued(0), pending + 1, "the owner has not looked yet");
        hand.workers[0].queue_due_timers(SimTime::ZERO);
        assert_eq!(hand.queued(0), pending, "the owner's next loop takes it out");
        hand.workers[0].queue_due_timers(SimTime::ZERO);
        assert_eq!(hand.queued(0), pending, "a cancel is taken once");
    }

    /// A disk's wake is a timer no handler armed: the node's lifecycle
    /// alone decides it, and it fires.
    #[test]
    fn a_disk_wake_fires_though_it_was_never_armed() {
        use wanacl_sim::storage::{Barrier, FileStorage, Storage};
        /// Hands a write in flight per message, under the message as tag,
        /// and reports each wake.
        struct Writer {
            storage: FileStorage,
            woken: Sender<u64>,
        }
        impl Node for Writer {
            type Msg = u64;
            fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, tag: u64) {
                self.storage.append(b"record").expect("an append");
                assert_eq!(self.storage.barrier(tag), Barrier::Started, "a live step's write goes in flight");
            }
            fn on_timer(&mut self, _ctx: &mut Context<'_, u64>, tag: u64) {
                assert_eq!(self.storage.barrier(tag), Barrier::Landed(Ok(())));
                self.woken.send(tag).expect("the test waits");
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let dir = std::env::temp_dir().join(format!("wanacl-rt-wake-{}", std::process::id()));
        let (woken, wakes) = unbounded();
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(29);
        let storage = FileStorage::open(&dir).expect("a WAL directory");
        let writer = b.add_node("writer", Box::new(Writer { storage, woken }));
        let rt = b.start();
        for tag in [7, 8] {
            rt.send_from_env(writer, tag);
            assert_eq!(wakes.recv_timeout(Duration::from_secs(5)), Ok(tag), "the wake fires");
        }
        rt.shutdown_nodes();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_count_is_clamped_and_reported() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(19);
        b.workers(64);
        for i in 0..3 {
            b.add_node(format!("n{i}"), Box::new(Counter::default()));
        }
        let rt = b.start();
        assert_eq!(rt.workers(), 3, "64 workers clamp to the 3 nodes");
        rt.shutdown();
    }

    #[test]
    fn runtime_error_is_reportable() {
        let err = RuntimeError::WorkerSpawn {
            worker: 2,
            source: std::io::Error::new(std::io::ErrorKind::OutOfMemory, "no threads left"),
        };
        let text = err.to_string();
        assert!(text.contains("worker 2"), "{text}");
        assert!(text.contains("no threads left"), "{text}");
        assert!(std::error::Error::source(&err).is_some());
    }
}

#[cfg(test)]
#[path = "step_tests.rs"]
mod step_tests;
