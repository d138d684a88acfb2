//! The event-driven worker-pool runtime.
//!
//! A small fixed pool of workers (N ≈ cores by default) multiplexes
//! every logical node, replacing the old one-OS-thread-per-node design.
//! Each node owns an inbox *cell* — a control queue (unbounded, for
//! lifecycle commands that must never be lost) and a bounded data queue
//! with drop-newest overflow (`rt.inbox_overflow`). A push to an idle
//! cell sends one wake token to the owning worker; further pushes ride
//! the already-scheduled wake for free.
//!
//! Workers drain-the-inbox-then-step: each wake processes control
//! first, then up to a fixed batch of data envelopes. A message is
//! moved, never shared: each send a handler emits goes to the transport
//! as its effect is applied, one mailbox push per message. Each worker
//! keeps its timers in a [`Calendar`] — the simulator's event queue —
//! keyed by nanoseconds since the runtime epoch, fires what is due and
//! parks until the next deadline; the gap between a timer's deadline
//! and its firing is recorded in the `rt.timer_drift_ns` histogram.
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

use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId;
use wanacl_sim::node::{Context, Effect, Node, NodeId, Note};
use wanacl_sim::obs::MetricsSink;
use wanacl_sim::queue::Calendar;
use wanacl_sim::rng::SimRng;
use wanacl_sim::time::SimTime;
use wanacl_sim::trace::TraceEvent;
use wanacl_sim::world::Observer;

use crate::router::{Router, Transport};

/// Bound on every node's data queue. Large enough that a healthy node
/// never sees it; small enough that a wedged node sheds load instead of
/// growing a queue without limit. Overflow is drop-newest and counted
/// as `rt.inbox_overflow`; the control lane is exempt.
const INBOX_CAPACITY: usize = 4096;

/// Data envelopes one node may consume per wake before yielding the
/// worker — bounds per-step latency for its siblings.
const MAX_STEP_BATCH: usize = 64;

/// Wake-channel sentinel telling a worker to exit. Never collides with
/// a node index (that value is `NodeId::ENV`, which owns no cell).
const WAKE_SHUTDOWN: u32 = u32::MAX;

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
    /// Wall-clock time since [`Runtime`] start, as the sim time type the
    /// oracle consumes.
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

/// A lifecycle command on a node's control lane. Control is unbounded
/// and drained before data, so a kill or stop can never be shed by a
/// flash crowd.
pub(crate) enum ControlMsg<M> {
    /// Soft crash: drop volatile state, ignore traffic until `Recover`.
    Crash,
    /// Recover from a soft crash.
    Recover,
    /// Takes the node off the pool — a clean stop or a process-death
    /// kill, told apart only by the exit it reports — and replies with
    /// the node object.
    Halt(NodeExit, Sender<NodeResult<M>>),
    /// Install a fresh node instance under this id (restart path).
    Install(Box<dyn RtNode<M>>),
}

/// The result of pushing one data message into a [`NodeCell`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CellPush {
    /// Queued (and the worker woken if it wasn't already scheduled).
    Delivered,
    /// The bounded data queue was full; the message was shed.
    Full,
    /// The node is dead (killed, stopped, or panicked); the network
    /// silently loses the message, like traffic to a down host.
    Dead,
}

struct CellState<M> {
    control: VecDeque<ControlMsg<M>>,
    data: VecDeque<(NodeId, M)>,
    /// True while a wake token for this cell is outstanding (in the
    /// worker's channel or local run queue). Pushes to a scheduled cell
    /// ride the existing wake for free.
    scheduled: bool,
    alive: bool,
}

/// One logical node's inbox, shared between the router (producers) and
/// the owning worker (consumer).
pub(crate) struct NodeCell<M> {
    index: u32,
    capacity: usize,
    wake: Sender<u32>,
    state: parking_lot::Mutex<CellState<M>>,
}

impl<M> NodeCell<M> {
    pub(crate) fn new(index: u32, capacity: usize, wake: Sender<u32>) -> Arc<Self> {
        Arc::new(NodeCell {
            index,
            capacity,
            wake,
            state: parking_lot::Mutex::new(CellState {
                control: VecDeque::new(),
                data: VecDeque::new(),
                scheduled: false,
                alive: true,
            }),
        })
    }

    pub(crate) fn push_data(&self, from: NodeId, msg: M) -> CellPush {
        let wake = {
            let mut s = self.state.lock();
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
            let _ = self.wake.send(self.index);
        }
        CellPush::Delivered
    }

    /// Control always enqueues — the lane is unbounded and ignores
    /// `alive` so a queued `Halt` can still reach a poisoned node's
    /// worker for its reply.
    fn push_control(&self, ctl: ControlMsg<M>) {
        let wake = {
            let mut s = self.state.lock();
            s.control.push_back(ctl);
            !std::mem::replace(&mut s.scheduled, true)
        };
        if wake {
            let _ = self.wake.send(self.index);
        }
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
    /// into the worker's buffers. Returns whether data remains (the
    /// worker requeues itself); when nothing remains the cell becomes
    /// schedulable again.
    pub(crate) fn drain(
        &self,
        max_data: usize,
        ctls: &mut Vec<ControlMsg<M>>,
        data: &mut Vec<(NodeId, M)>,
    ) -> bool {
        let mut s = self.state.lock();
        ctls.extend(s.control.drain(..));
        let take = s.data.len().min(max_data);
        data.extend(s.data.drain(..take));
        let more = !s.data.is_empty();
        if !more {
            s.scheduled = false;
        }
        more
    }
}

/// A worker's share of the deployment at start: `(node index, node)`.
type WorkerNodes<M> = Vec<(u32, Box<dyn RtNode<M>>)>;

struct NodeSpec<M> {
    name: String,
    node: Box<dyn RtNode<M>>,
    factory: Option<NodeFactory<M>>,
}

/// Decorates the base router into the transport nodes send through
/// (see [`RuntimeBuilder::wrap_transport`]).
type TransportWrap<M> =
    Box<dyn FnOnce(Arc<Router<M>>) -> std::io::Result<Arc<dyn Transport<M>>>>;

/// Builds a pooled deployment.
pub struct RuntimeBuilder<M> {
    nodes: Vec<NodeSpec<M>>,
    seed: u64,
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
    /// Starts a builder; `seed` feeds each node's RNG stream.
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
    /// `ctx.metric_incr`/`ctx.metric_observe` effects of its nodes into
    /// a shard of it — the same named counters and latency histograms
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

    /// Adds a node; returns the id it will run under. Ids are assigned
    /// densely in add order, exactly like the simulator.
    pub fn add_node(&mut self, name: impl Into<String>, node: Box<dyn RtNode<M>>) -> NodeId {
        self.nodes.push(NodeSpec { name: name.into(), node, factory: None });
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
        self.nodes.push(NodeSpec { name: name.into(), node, factory: Some(factory) });
        Ok(NodeId::from_index(self.nodes.len() - 1))
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

        let mut wake_txs: Vec<Sender<u32>> = Vec::with_capacity(nworkers);
        let mut wake_rxs: Vec<Receiver<u32>> = Vec::with_capacity(nworkers);
        for _ in 0..nworkers {
            let (tx, rx) = unbounded();
            wake_txs.push(tx);
            wake_rxs.push(rx);
        }

        // Freeze the routing table before any worker runs; node `i`
        // belongs to worker `i % nworkers`.
        let cells: Vec<Arc<NodeCell<M>>> = (0..nnodes)
            .map(|i| NodeCell::new(i as u32, INBOX_CAPACITY, wake_txs[i % nworkers].clone()))
            .collect();
        router.freeze_cells(cells.clone());

        let mut names = Vec::with_capacity(nnodes);
        let mut factories = Vec::with_capacity(nnodes);
        let mut initial: Vec<WorkerNodes<M>> = (0..nworkers).map(|_| Vec::new()).collect();
        for (i, spec) in self.nodes.into_iter().enumerate() {
            names.push(spec.name);
            factories.push(spec.factory);
            initial[i % nworkers].push((i as u32, spec.node));
        }

        let mut pool = WorkerPool { wakes: wake_txs, handles: Vec::with_capacity(nworkers) };
        for (w, (wake_rx, nodes)) in wake_rxs.into_iter().zip(initial).enumerate() {
            let worker = Worker {
                seed: self.seed,
                wake_rx,
                cells: cells.clone(),
                slots: (0..nnodes).map(|_| WorkerSlot::Empty).collect(),
                epochs: vec![0; nnodes],
                sinks: Sinks::new(
                    epoch,
                    transport.clone(),
                    self.metrics.shard(),
                    self.trace.clone(),
                ),
                ctls: Vec::new(),
                data: Vec::new(),
            };
            match std::thread::Builder::new()
                .name(format!("rt-worker-{w}"))
                .spawn(move || worker.run(nodes))
            {
                Ok(handle) => pool.handles.push(handle),
                // Dropping `pool` here sends the shutdown sentinel to
                // every spawned worker and joins them, so a partial
                // start never leaks threads.
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
/// orderly per-node stop, or on an abandoned runtime) sends each worker
/// the exit sentinel and joins it, so workers never outlive the
/// deployment.
struct WorkerPool {
    wakes: Vec<Sender<u32>>,
    handles: Vec<JoinHandle<()>>,
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for wake in &self.wakes {
            let _ = wake.send(WAKE_SHUTDOWN);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A node as the owning worker sees it.
struct WorkerNode<M> {
    node: Box<dyn RtNode<M>>,
    rng: SimRng,
    next_timer: u64,
    cancelled: HashSet<u64>,
    up: bool,
    /// This incarnation's local-clock zero (`LocalTime` = elapsed).
    started: Instant,
}

impl<M> WorkerNode<M> {
    fn new(node: Box<dyn RtNode<M>>, deployment_seed: u64, idx: u32) -> Self {
        let seed = deployment_seed ^ (idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        WorkerNode {
            node,
            rng: SimRng::seed_from(seed),
            next_timer: 0,
            cancelled: HashSet::new(),
            up: true,
            started: Instant::now(),
        }
    }
}

enum WorkerSlot<M> {
    /// No instance under this id (not this worker's node, or killed).
    Empty,
    /// A live instance.
    Live(WorkerNode<M>),
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

/// One armed timer, queued at its deadline: the owning node's index,
/// its timer epoch at arm time (a mismatch at fire time means the node
/// crashed or restarted since), the timer id (for the cancelled set)
/// and the tag passed back to `on_timer`.
#[derive(Debug, Clone, Copy)]
struct TimerEntry {
    node: u32,
    epoch: u32,
    id: u64,
    tag: u64,
}

/// Where a handler's effects land. Owned by one worker and reused
/// across steps, the way `World::with_node_ctx` reuses its effects
/// scratch: once the buffers have grown, a step allocates nothing here.
struct Sinks<M> {
    /// What the handler's [`Context`] collects into; empty between
    /// handlers.
    effects: Vec<Effect<M>>,
    /// Takes every send as its effect is applied.
    transport: Arc<dyn Transport<M>>,
    /// This worker's armed timers, keyed by nanoseconds since
    /// `epoch_instant`. Cancellation happens at fire time (stale epoch
    /// or cancelled id), so arming never searches the queue.
    timers: Calendar<TimerEntry>,
    /// This worker's shard of the deployment's sink: no other worker
    /// records into it.
    metrics: MetricsSink,
    trace: Option<TraceBuffer>,
    epoch_instant: Instant,
}

impl<M> Sinks<M> {
    fn new(
        epoch: Instant,
        transport: Arc<dyn Transport<M>>,
        metrics: MetricsSink,
        trace: Option<TraceBuffer>,
    ) -> Self {
        Sinks {
            effects: Vec::new(),
            transport,
            timers: Calendar::new(),
            metrics,
            trace,
            epoch_instant: epoch,
        }
    }
}

/// Wall time since `epoch` as a [`SimTime`]: the clock of the timer
/// queues, the trace buffer and the chaos transport's fault windows.
pub(crate) fn since(epoch: Instant) -> SimTime {
    SimTime::from_nanos(epoch.elapsed().as_nanos() as u64)
}

/// Runs one handler invocation under `catch_unwind`, hands its sends
/// to the transport and folds the rest of its effects into the timer
/// queue and the worker's metrics shard. Returns the panic message if the
/// handler blew up.
fn invoke<M, F>(
    wn: &mut WorkerNode<M>,
    idx: u32,
    tepoch: u32,
    sinks: &mut Sinks<M>,
    call: F,
) -> Result<(), String>
where
    M: Send + Sync + Clone + std::fmt::Debug + 'static,
    F: FnOnce(&mut dyn RtNode<M>, &mut Context<'_, M>),
{
    let id = NodeId::from_index(idx as usize);
    let local = LocalTime::from_nanos(wn.started.elapsed().as_nanos() as u64);
    // Audit text is built only for a consumer: without a capture
    // buffer the node is told not to produce it.
    let notes = sinks.trace.is_some();
    {
        let node = &mut wn.node;
        let rng = &mut wn.rng;
        let next_timer = &mut wn.next_timer;
        let fx = &mut sinks.effects;
        if let Err(payload) = catch_unwind(AssertUnwindSafe(move || {
            let mut ctx = Context::new(id, local, fx, rng, next_timer).with_notes(notes);
            call(&mut **node, &mut ctx);
        })) {
            sinks.effects.clear();
            return Err(panic_message(payload));
        }
    }
    for effect in sinks.effects.drain(..) {
        match effect {
            Effect::Send { to, msg } => sinks.transport.send(id, to, msg),
            Effect::SetTimer { id: timer_id, local_delay, tag } => {
                let due = since(sinks.epoch_instant) + local_delay;
                let entry = TimerEntry { node: idx, epoch: tepoch, id: timer_id.into_raw(), tag };
                sinks.timers.push(due, entry);
            }
            Effect::CancelTimer { id: timer_id } => {
                wn.cancelled.insert(timer_id.into_raw());
            }
            Effect::MetricIncr { name } => sinks.metrics.incr(name),
            Effect::MetricObserve { name, value } => sinks.metrics.observe(name, value),
            // Traces (audit notes) feed the live oracle; a node emits
            // them only when told a capture buffer is listening.
            Effect::Trace { text } => {
                if let Some(buffer) = &sinks.trace {
                    buffer.push(LiveTraceEntry { at: since(sinks.epoch_instant), node: id, text });
                }
            }
        }
    }
    Ok(())
}

struct Worker<M> {
    seed: u64,
    wake_rx: Receiver<u32>,
    cells: Vec<Arc<NodeCell<M>>>,
    slots: Vec<WorkerSlot<M>>,
    epochs: Vec<u32>,
    sinks: Sinks<M>,
    /// Reusable buffers a step drains its cell's two lanes into.
    ctls: Vec<ControlMsg<M>>,
    data: Vec<(NodeId, M)>,
}

impl<M: Send + Sync + Clone + std::fmt::Debug + 'static> Worker<M> {
    fn run(mut self, initial: WorkerNodes<M>) {
        for (idx, node) in initial {
            self.slots[idx as usize] = self.make_node(idx, node);
        }
        let mut run_queue: VecDeque<u32> = VecDeque::new();
        loop {
            // Drain wake tokens without blocking. The shutdown sentinel
            // only arrives after every node was stopped (or the whole
            // deployment was abandoned), so returning on it is safe.
            loop {
                match self.wake_rx.try_recv() {
                    Ok(WAKE_SHUTDOWN) => return,
                    Ok(idx) => run_queue.push_back(idx),
                    Err(_) => break,
                }
            }
            // Fire everything due, by absolute deadline.
            let now = since(self.sinks.epoch_instant);
            while let Some((due, entry)) = self.sinks.timers.pop_due(now) {
                self.fire(due, entry);
            }
            // One bounded batch for one node, then re-check wakes and
            // timers — round-robin fairness under floods.
            if let Some(idx) = run_queue.pop_front() {
                if self.step(idx) {
                    run_queue.push_back(idx);
                }
                continue;
            }
            // Idle: park until the next timer deadline or a wake.
            let epoch = self.sinks.epoch_instant;
            let deadline = self.sinks.timers.next_time().and_then(|due| {
                epoch.checked_add(Duration::from_nanos(due.as_nanos()))
            });
            let wake = &self.wake_rx;
            match deadline.map_or_else(|| wake.recv(), |d| wake.recv_deadline(d)) {
                Ok(WAKE_SHUTDOWN) => return,
                Ok(idx) => run_queue.push_back(idx),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }

    /// Builds a [`WorkerNode`] and runs its `on_start` under the
    /// current timer epoch.
    fn make_node(&mut self, idx: u32, node: Box<dyn RtNode<M>>) -> WorkerSlot<M> {
        let mut wn = WorkerNode::new(node, self.seed, idx);
        let tepoch = self.epochs[idx as usize];
        match invoke(&mut wn, idx, tepoch, &mut self.sinks, |node, ctx| node.on_start(ctx)) {
            Ok(()) => WorkerSlot::Live(wn),
            Err(msg) => self.poison(idx as usize, msg),
        }
    }

    /// Marks a node's remains after a handler panic: the cell goes
    /// dead (traffic to it silently vanishes, like a crashed process),
    /// pending timers die via the epoch bump, and the message is held
    /// for the kill/stop reply.
    fn poison(&mut self, i: usize, msg: String) -> WorkerSlot<M> {
        self.cells[i].clear_dead();
        self.epochs[i] = self.epochs[i].wrapping_add(1);
        WorkerSlot::Poisoned(msg)
    }

    /// Fires one timer that fell due at `due`, discarding it if its
    /// epoch is stale (crash/kill/restart since arming) or it was
    /// cancelled.
    fn fire(&mut self, due: SimTime, entry: TimerEntry) {
        let i = entry.node as usize;
        if self.epochs[i] != entry.epoch {
            return;
        }
        let mut slot = std::mem::replace(&mut self.slots[i], WorkerSlot::Empty);
        let mut poisoned = None;
        if let WorkerSlot::Live(wn) = &mut slot {
            if wn.up && !wn.cancelled.remove(&entry.id) {
                let drift = since(self.sinks.epoch_instant).saturating_since(due);
                self.sinks.metrics.observe(MetricId::RT_TIMER_DRIFT_NS, drift.as_nanos() as f64);
                if let Err(msg) =
                    invoke(wn, entry.node, entry.epoch, &mut self.sinks, |node, ctx| {
                        node.on_timer(ctx, entry.tag)
                    })
                {
                    poisoned = Some(msg);
                }
            }
        }
        if let Some(msg) = poisoned {
            slot = self.poison(i, msg);
        }
        self.slots[i] = slot;
    }

    /// Drains one node's cell and steps it: control first (lifecycle
    /// can never be shed), then up to [`MAX_STEP_BATCH`] data
    /// envelopes. Returns whether data remains queued (the caller
    /// requeues the node).
    fn step(&mut self, idx: u32) -> bool {
        let i = idx as usize;
        let more = self.cells[i].drain(MAX_STEP_BATCH, &mut self.ctls, &mut self.data);
        if self.ctls.is_empty() && self.data.is_empty() {
            return more;
        }
        let mut ctls = std::mem::take(&mut self.ctls);
        let mut data = std::mem::take(&mut self.data);
        let mut slot = std::mem::replace(&mut self.slots[i], WorkerSlot::Empty);
        // Set when a Halt consumed the node: remaining queued work is
        // void and the slot has already been settled.
        let mut halted = false;

        for ctl in ctls.drain(..) {
            if halted {
                break;
            }
            match ctl {
                ControlMsg::Crash => {
                    let mut poisoned = None;
                    if let WorkerSlot::Live(wn) = &mut slot {
                        if wn.up {
                            wn.up = false;
                            // Pending timers die with the volatile state.
                            self.epochs[i] = self.epochs[i].wrapping_add(1);
                            wn.cancelled.clear();
                            if let Err(payload) =
                                catch_unwind(AssertUnwindSafe(|| wn.node.on_crash()))
                            {
                                poisoned = Some(panic_message(payload));
                            }
                        }
                    }
                    if let Some(msg) = poisoned {
                        slot = self.poison(i, msg);
                    }
                }
                ControlMsg::Recover => {
                    let mut poisoned = None;
                    if let WorkerSlot::Live(wn) = &mut slot {
                        if !wn.up {
                            wn.up = true;
                            if let Err(msg) =
                                invoke(wn, idx, self.epochs[i], &mut self.sinks, |node, ctx| {
                                    node.on_recover(ctx)
                                })
                            {
                                poisoned = Some(msg);
                            }
                        }
                    }
                    if let Some(msg) = poisoned {
                        slot = self.poison(i, msg);
                    }
                }
                ControlMsg::Halt(_, reply) if matches!(slot, WorkerSlot::Empty) => {
                    let _ = reply.send(Err(format!("node {idx} has no live instance")));
                    halted = true;
                }
                ControlMsg::Halt(exit, reply) => {
                    let result = match std::mem::replace(&mut slot, WorkerSlot::Empty) {
                        WorkerSlot::Live(wn) => Ok((exit, wn.node)),
                        WorkerSlot::Poisoned(msg) => Err(msg),
                        WorkerSlot::Empty => unreachable!("guarded above"),
                    };
                    self.cells[i].clear_dead();
                    self.epochs[i] = self.epochs[i].wrapping_add(1);
                    let _ = reply.send(result);
                    halted = true;
                }
                ControlMsg::Install(node) => {
                    // A fresh incarnation: old timers are dead, the
                    // local clock and RNG restart, `on_start` replays
                    // durable state.
                    self.epochs[i] = self.epochs[i].wrapping_add(1);
                    slot = self.make_node(idx, node);
                }
            }
        }

        if !halted && !data.is_empty() {
            let mut poisoned = None;
            if let WorkerSlot::Live(wn) = &mut slot {
                if wn.up {
                    self.sinks.metrics.observe(MetricId::RT_BATCH_SIZE, data.len() as f64);
                    for (from, msg) in data.drain(..) {
                        if let Err(msg) =
                            invoke(wn, idx, self.epochs[i], &mut self.sinks, |node, ctx| {
                                node.on_message(ctx, from, msg)
                            })
                        {
                            poisoned = Some(msg);
                            break;
                        }
                    }
                }
                // A crashed (down) node hears nothing: the batch is
                // consumed and dropped, as the old runtime did.
            }
            if let Some(msg) = poisoned {
                slot = self.poison(i, msg);
            }
        }
        // Whatever a halt, a panic or a down node left behind is void.
        data.clear();
        self.ctls = ctls;
        self.data = data;

        self.slots[i] = slot;
        more && !halted
    }
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
    /// [`Runtime::shutdown`]. Blocks until the owning worker confirms.
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
        // Revive before queueing the install so traffic arriving from
        // now on sits behind `on_start`, like packets reaching a
        // booting process.
        self.cells[index].revive();
        self.cells[index].push_control(ControlMsg::Install(fresh));
        self.slots[index] = RtSlot::Running;
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

    /// On one trigger message, sprays `0..n` at one peer.
    #[derive(Debug)]
    struct Sprayer {
        target: NodeId,
        n: u64,
    }

    impl Node for Sprayer {
        type Msg = u64;
        fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, _msg: u64) {
            if from == NodeId::ENV {
                for i in 0..self.n {
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

    #[test]
    fn every_send_passes_the_transport_once_and_arrives_in_emission_order() {
        let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(17);
        let sends = Arc::new(AtomicU64::new(0));
        let counted = sends.clone();
        b.wrap_transport(move |inner| Ok(Arc::new(CountingTransport { inner, sends: counted })));
        let sink = NodeId::from_index(1);
        let sprayer = b.add_node("sprayer", Box::new(Sprayer { target: sink, n: 32 }));
        let (heard_tx, heard_rx) = unbounded();
        assert_eq!(b.add_node("sink", Box::new(Forwarder(heard_tx))), sink);
        let rt = b.start();
        rt.send_from_env(sprayer, 0);
        let wait = Duration::from_secs(5);
        let heard: Vec<u64> = (0..32).map_while(|_| heard_rx.recv_timeout(wait).ok()).collect();
        rt.shutdown();
        assert_eq!(heard, (0..32).collect::<Vec<u64>>(), "emission order is arrival order");
        // The env trigger goes to the base router, past the decorator.
        assert_eq!(sends.load(Ordering::SeqCst), 32, "a decorator sees every node send singly");
    }

    /// A partitioned host's retry storm must not leave timer ids behind.
    /// Drives a `Worker` by hand (its `step`/`fire`, no thread), so the
    /// cancelled set can be read and the clock skipped: `fire_due` pops
    /// the timer queue as of the end of time.
    #[test]
    fn timed_out_attempts_leave_no_cancelled_timer_ids_behind() {
        use crate::router::Envelope;
        use wanacl_core::prelude::{
            AppHost, AppId, CountingApp, HostNode, InvokeOutcome, ManagerDirectory, Policy,
            ProtoMsg, QueryVerdict, ReqId, UserId,
        };
        use wanacl_sim::time::SimDuration;

        const ATTEMPTS: u32 = 3;
        const STORM: u64 = 20;
        let app = AppId(0);
        let host_id = NodeId::from_index(0);
        // Ids 1 and 2 are channel taps: the one manager and the client.
        let (manager, client) = (NodeId::from_index(1), NodeId::from_index(2));
        let host = HostNode::new(
            vec![AppHost {
                app,
                policy: Policy::builder(1)
                    .revocation_bound(SimDuration::from_secs(10))
                    .query_timeout(SimDuration::from_millis(100))
                    .max_attempts(ATTEMPTS)
                    .build(),
                directory: ManagerDirectory::Static(vec![manager].into()),
                application: Box::new(CountingApp::new()),
            }],
            None,
        );

        let router: Arc<Router<ProtoMsg>> = Router::new();
        let (wake_tx, wake_rx) = unbounded();
        let cell = NodeCell::new(0, INBOX_CAPACITY, wake_tx);
        router.freeze_cells(vec![cell.clone()]);
        let (manager_tx, manager_rx) = unbounded();
        let (client_tx, client_rx) = unbounded();
        assert_eq!(router.register(manager_tx), manager);
        assert_eq!(router.register(client_tx), client);
        let epoch = Instant::now();
        let mut worker = Worker {
            seed: 23,
            wake_rx,
            cells: vec![cell],
            slots: vec![WorkerSlot::Empty],
            epochs: vec![0],
            sinks: Sinks::new(epoch, router.clone(), MetricsSink::new(), None),
            ctls: Vec::new(),
            data: Vec::new(),
        };
        worker.slots[0] = worker.make_node(0, Box::new(host));

        fn cancelled(worker: &Worker<ProtoMsg>) -> usize {
            match &worker.slots[0] {
                WorkerSlot::Live(wn) => wn.cancelled.len(),
                _ => panic!("host is live"),
            }
        }
        // Fires every timer armed so far (not the ones the firings arm).
        fn fire_due(worker: &mut Worker<ProtoMsg>) {
            let mut due = Vec::new();
            while let Some(timer) = worker.sinks.timers.pop_due(SimTime::MAX) {
                due.push(timer);
            }
            for (at, entry) in due {
                worker.fire(at, entry);
            }
        }
        let invoke_from_client = |worker: &mut Worker<ProtoMsg>, n: u64| {
            let msg = ProtoMsg::Invoke {
                app,
                user: UserId(n),
                req: ReqId(n),
                payload: "".into(),
                signature: None,
            };
            router.send(client, host_id, msg);
            while worker.step(0) {}
        };
        let outcomes = |n: usize| -> Vec<InvokeOutcome> {
            let got: Vec<InvokeOutcome> = client_rx
                .try_iter()
                .map(|Envelope::Msg { msg, .. }| match msg {
                    ProtoMsg::InvokeReply { outcome, .. } => outcome,
                    other => panic!("client got {other:?}"),
                })
                .collect();
            assert_eq!(got.len(), n);
            got
        };

        // Partitioned: the manager tap swallows every query, so each
        // attempt of each check runs into its query timer.
        for n in 0..STORM {
            invoke_from_client(&mut worker, n);
        }
        for _ in 0..ATTEMPTS {
            fire_due(&mut worker);
        }
        assert!(outcomes(STORM as usize).iter().all(|o| *o == InvokeOutcome::Unavailable));
        assert_eq!(manager_rx.try_iter().count() as u64, STORM * u64::from(ATTEMPTS));
        assert_eq!(cancelled(&worker), 0, "a timer that fired is not cancelled afterwards");

        // Healed: the manager answers, so the host cancels a query timer
        // that is still queued. That id is forgotten when the
        // entry matures — the set drains to empty.
        invoke_from_client(&mut worker, STORM);
        let Envelope::Msg { msg: query, .. } = manager_rx.try_recv().expect("query");
        let ProtoMsg::Query { req, user, .. } = query else { panic!("manager got {query:?}") };
        let grant = ProtoMsg::QueryReply {
            req,
            app,
            user,
            verdict: QueryVerdict::Grant { te: SimDuration::from_secs(5) },
            mac: None,
        };
        router.send(manager, host_id, grant);
        while worker.step(0) {}
        assert!(matches!(outcomes(1)[0], InvokeOutcome::Allowed { .. }));
        assert_eq!(cancelled(&worker), 1, "the live timer's id waits for its queue entry");
        fire_due(&mut worker);
        assert_eq!(cancelled(&worker), 0);
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
