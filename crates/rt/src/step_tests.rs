//! The step rule on both executors. One recorded input sequence — start,
//! messages, due timers, crash, recover and restart, at given instants —
//! is fed to each roster node kind on a `World` and on a live worker
//! stepped by hand under a scripted clock; both give the same sends,
//! notes and counts. And a restarted live node draws on from its stream
//! instead of replaying it.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use wanacl_core::campaign::{campaign_scenario, CampaignConfig};
use wanacl_core::msg::{ProtoMsg, ReqId};
use wanacl_core::scenario::{Layout, Roster, RosterNode};
use wanacl_core::types::UserId;
use wanacl_sim::metrics::Metrics;
use wanacl_sim::net::PerfectNet;
use wanacl_sim::time::SimDuration;
use wanacl_sim::world::World;

use super::*;

/// One input of the recorded sequence, applied to the node under test.
#[derive(Clone)]
enum Input {
    /// A message from a peer.
    Deliver(NodeId, ProtoMsg),
    Crash,
    Recover,
    /// A kill, then a fresh instance from the roster's recipe.
    Restart,
}

/// What one executor gave: the node's sends and notes, stamped with the
/// real instant they left, and its counts.
#[derive(Debug, PartialEq)]
struct Outputs {
    sends: Vec<(SimTime, String)>,
    notes: Vec<(SimTime, String)>,
    counts: Vec<(String, u64)>,
}

/// The counts both executors keep: everything but the simulated
/// network's and the live runtime's own, save the drop of a message to
/// a down node, which both count.
fn counts(metrics: &Metrics) -> Vec<(String, u64)> {
    let counters = metrics.counters().map(|(name, n)| (name.to_owned(), n));
    let samples = metrics.histograms().map(|(name, h)| (format!("{name} samples"), h.count() as u64));
    let own = |name: &str| (name.starts_with("net.") && name != "net.drop.destination_down") || name.starts_with("rt.");
    counters.chain(samples).filter(|(name, _)| !own(name)).collect()
}

fn roster(config: &CampaignConfig) -> Roster {
    campaign_scenario(config).roster()
}

fn instance(roster: Roster, index: usize) -> Box<dyn RtNode<ProtoMsg>> {
    match roster.entries.into_iter().nth(index).expect("a roster node").node {
        RosterNode::Manager(spec) => Box::new(spec.build()),
        RosterNode::Directory(node) => Box::new(node),
        RosterNode::Host(node) => Box::new(node),
        RosterNode::User(node) => Box::new(node),
        RosterNode::Admin(node) => Box::new(node),
    }
}

/// Stands in for every other roster node on the world: passes what the
/// environment hands it to the node under test.
struct Puppet(NodeId);

impl Node for Puppet {
    type Msg = ProtoMsg;
    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        if from == NodeId::ENV {
            ctx.send(self.0, msg);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records the node under test's sends and notes on the world.
struct Tap {
    node: NodeId,
    sends: Vec<(SimTime, String)>,
    notes: Vec<(SimTime, String)>,
}

impl Observer for Tap {
    fn on_event(&mut self, at: SimTime, _index: u64, event: &TraceEvent) {
        match event {
            TraceEvent::Sent { from, to, desc } if *from == self.node => self.sends.push((at, format!("{to} {desc}"))),
            TraceEvent::Note { node, text } if *node == self.node => self.notes.push((at, text.to_string())),
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

fn on_world(config: &CampaignConfig, k: NodeId, inputs: &[(SimTime, Input)], end: SimTime) -> Outputs {
    let roster = roster(config);
    let mut world: World<ProtoMsg> = World::new(roster.seed);
    world.set_net(Box::new(PerfectNet::new(SimDuration::ZERO)));
    let entries: Vec<(String, ClockSpec)> = roster.entries.iter().map(|e| (e.name.clone(), e.clock)).collect();
    let mut under_test = Some(instance(roster, k.index()));
    for (i, (name, clock)) in entries.into_iter().enumerate() {
        let node: Box<dyn Node<Msg = ProtoMsg>> = match i == k.index() {
            true => under_test.take().expect("one node under test"),
            false => Box::new(Puppet(k)),
        };
        world.add_node(name, node, clock);
    }
    let tap = world.add_observer(Box::new(Tap { node: k, sends: Vec::new(), notes: Vec::new() }));
    for (at, input) in inputs {
        match input {
            Input::Deliver(from, msg) => world.inject(*at, *from, msg.clone()),
            Input::Crash => world.schedule_crash(*at, k),
            Input::Recover => world.schedule_recover(*at, k),
            Input::Restart => {
                world.run_until(*at);
                world.restart(k, instance(self::roster(config), k.index()));
            }
        }
    }
    world.run_until(end);
    let tap = world.observer_as::<Tap>(tap);
    Outputs { sends: tap.sends.clone(), notes: tap.notes.clone(), counts: counts(world.metrics()) }
}

/// The live worker's transport for the test: records the node under
/// test's sends at the scripted instant, and routes every send on.
struct Tape {
    router: Arc<Router<ProtoMsg>>,
    node: NodeId,
    now: Arc<AtomicU64>,
    sends: Arc<Mutex<Vec<(SimTime, String)>>>,
}

impl Transport<ProtoMsg> for Tape {
    fn send(&self, from: NodeId, to: NodeId, msg: ProtoMsg) {
        if from == self.node {
            let at = SimTime::from_nanos(self.now.load(Ordering::SeqCst));
            self.sends.lock().expect("tape").push((at, format!("{to} {msg:?}")));
        }
        self.router.send(from, to, msg);
    }
}

/// A live worker stepped by hand on a scripted clock.
struct Driven {
    worker: Worker<ProtoMsg>,
    now: Arc<AtomicU64>,
}

impl Driven {
    fn set(&mut self, at: SimTime) {
        self.worker.sinks.scripted = Some(at);
        self.now.store(at.as_nanos(), Ordering::SeqCst);
    }

    fn run_queued(&mut self) {
        while let Some(idx) = self.worker.sched.pop(0) {
            self.worker.step(idx);
        }
    }

    /// Fires every timer due by `to` at its own deadline, as the world's
    /// queue does, and leaves the clock at `to`.
    fn advance(&mut self, to: SimTime) {
        while let Some(due) = self.worker.sinks.timers.next_time().filter(|due| *due <= to) {
            self.set(due);
            self.worker.queue_due_timers(due);
            self.run_queued();
        }
        self.set(to);
    }
}

fn on_live(config: &CampaignConfig, k: NodeId, inputs: &[(SimTime, Input)], end: SimTime) -> Outputs {
    let roster = roster(config);
    let router: Arc<Router<ProtoMsg>> = Router::new();
    let sched = Scheduler::new(1);
    let (mut streams, _net) = Streams::new(roster.seed);
    let cells: Vec<Arc<NodeCell<ProtoMsg>>> = roster
        .entries
        .iter()
        .enumerate()
        .map(|(i, e)| NodeCell::new(i as u32, INBOX_CAPACITY, sched.clone(), streams.node(&e.name, e.clock)))
        .collect();
    router.freeze_cells(cells.clone());
    let now = Arc::new(AtomicU64::new(0));
    let sends = Arc::new(Mutex::new(Vec::new()));
    let tape = Tape { router: router.clone(), node: k, now: now.clone(), sends: sends.clone() };
    let (metrics, notes) = (MetricsSink::new(), TraceBuffer::new());
    let worker = Worker::new(0, sched, cells, Instant::now(), Arc::new(tape), metrics.shard(), Some(notes.clone()));
    let mut live = Driven { worker, now };
    let cell = live.worker.cells[k.index()].clone();

    live.set(SimTime::ZERO);
    cell.push_control(ControlMsg::Install(instance(roster, k.index())));
    live.run_queued();
    for (at, input) in inputs {
        live.advance(*at);
        match input {
            Input::Deliver(from, msg) => router.send(*from, k, msg.clone()),
            Input::Crash => cell.push_control(ControlMsg::Crash),
            Input::Recover => cell.push_control(ControlMsg::Recover),
            Input::Restart => {
                let (tx, rx) = unbounded();
                cell.push_control(ControlMsg::Halt(NodeExit::Killed, tx));
                live.run_queued();
                rx.recv().expect("the halt's reply").expect("the node was live");
                cell.revive();
                cell.push_control(ControlMsg::Install(instance(self::roster(config), k.index())));
            }
        }
        live.run_queued();
    }
    live.advance(end);
    let notes = notes.drain_sorted().into_iter().filter(|e| e.node == k).map(|e| (e.at, e.text.to_string()));
    let sends = std::mem::take(&mut *sends.lock().expect("tape"));
    Outputs { sends, notes: notes.collect(), counts: counts(&metrics.snapshot()) }
}

/// The recorded sequence: a check, a query and a directory lookup from
/// peers, then a crash, a query to the crashed node, a recovery and a
/// restart, and the same three messages again; timers fall due all
/// along.
fn inputs(layout: &Layout, k: NodeId) -> Vec<(SimTime, Input)> {
    let host = *layout.hosts.iter().rev().find(|h| **h != k).expect("a peer host");
    let (user, agent) = *layout.users.iter().rev().find(|(_, a)| *a != k).expect("a peer agent");
    let messages = |req: u64| {
        [
            (agent, ProtoMsg::Invoke { app: layout.app, user, req: ReqId(req), payload: "p".into(), signature: None }),
            (host, ProtoMsg::Query { app: layout.app, user: UserId(0), req: ReqId(req + 1) }),
            (host, ProtoMsg::NsQuery { app: layout.app }),
        ]
    };
    let ms = |ms: u64| SimTime::from_nanos(ms * 1_000_000 + 1_234);
    let mut inputs = Vec::new();
    for (i, (from, msg)) in messages(1).into_iter().enumerate() {
        inputs.push((ms(500 + 200 * i as u64), Input::Deliver(from, msg)));
    }
    let [_, to_the_crashed, _] = messages(5);
    inputs.extend([
        (ms(2_000), Input::Crash),
        (ms(2_500), Input::Deliver(to_the_crashed.0, to_the_crashed.1)),
        (ms(3_000), Input::Recover),
        (ms(5_000), Input::Restart),
    ]);
    for (i, (from, msg)) in messages(10).into_iter().enumerate() {
        inputs.push((ms(6_000 + 200 * i as u64), Input::Deliver(from, msg)));
    }
    inputs
}

#[test]
fn every_roster_node_kind_steps_alike_on_both_executors() {
    let config = CampaignConfig { seed: 5, ns_replicas: 3, ..CampaignConfig::default() };
    let layout = roster(&config).layout;
    let kinds = [
        ("manager", layout.managers[0]),
        ("directory", layout.ns_replicas[0]),
        ("host", layout.hosts[0]),
        ("user", layout.users[0].1),
        ("admin", layout.admin),
    ];
    let end = SimTime::from_secs(9);
    for (kind, k) in kinds {
        let inputs = inputs(&layout, k);
        let (sim, live) = (on_world(&config, k, &inputs, end), on_live(&config, k, &inputs, end));
        assert!(!sim.sends.is_empty(), "the {kind} sent nothing: the sequence tests nothing");
        assert_eq!(sim, live, "the {kind} steps differently");
        let count = |name: &str| live.counts.iter().find(|(n, _)| n == name).map_or(0, |(_, n)| *n);
        let lifecycle = (count("node.crashes"), count("node.recoveries"), count("net.drop.destination_down"));
        assert_eq!(lifecycle, (2, 2, 1), "the {kind}'s lifecycle and down-node drop counts");
    }
}

/// Reports one draw of its stream in `on_start` and in `on_recover`.
struct Probe(Sender<u64>);

impl Node for Probe {
    type Msg = u64;
    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        let _ = self.0.send(ctx.rng().next_u64());
    }
    fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {}
    fn on_recover(&mut self, ctx: &mut Context<'_, u64>) {
        let _ = self.0.send(ctx.rng().next_u64());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A probe behind a quiet first node, on a 1-worker runtime across a
/// kill and a restart, and on a world across a crash and a recovery: the
/// same two draws, the second new.
#[test]
fn a_restarted_live_node_draws_on_from_its_stream() {
    const SEED: u64 = 77;
    let (tx, rx) = unbounded();
    let mut b: RuntimeBuilder<u64> = RuntimeBuilder::new(SEED);
    b.workers(1);
    b.add_node("quiet", Box::new(Probe(unbounded().0)));
    let probe_tx = tx.clone();
    let probe = b
        .add_node_with_factory("probe", Arc::new(move || Ok(Box::new(Probe(probe_tx.clone())))))
        .expect("the first instance builds");
    let mut rt = b.start();
    let wait = Duration::from_secs(10);
    let first = rx.recv_timeout(wait).expect("on_start's draw");
    rt.kill(probe).expect("kill");
    rt.restart(probe).expect("restart");
    let second = rx.recv_timeout(wait).expect("the restarted on_start's draw");
    rt.shutdown();

    let mut world: World<u64> = World::new(SEED);
    world.add_node("quiet", Box::new(Probe(unbounded().0)), ClockSpec::Perfect);
    let probe = world.add_node("probe", Box::new(Probe(tx)), ClockSpec::Perfect);
    world.schedule_crash(SimTime::from_secs(1), probe);
    world.schedule_recover(SimTime::from_secs(2), probe);
    world.run_until(SimTime::from_secs(3));
    let sim: Vec<u64> = rx.try_iter().collect();

    assert_eq!(sim, [first, second], "the live draws are the world's");
    assert_ne!(first, second, "a restart does not replay the first incarnation's draws");
}
