//! Audit events are built on demand: a driver that drops notes (a sink
//! whose `notes()` is false, the live runtime without
//! `capture_traces()`) must see exactly the effects a note-consuming
//! driver sees, minus the notes — and the line a consumer's event prints
//! must not move by a byte.

use std::fmt::Debug;

use wanacl_core::manager::{ManagerApp, ManagerConfig};
use wanacl_core::prelude::{
    Acl, AclOp, AppHost, AppId, CountingApp, ExhaustionBehavior, HostNode, ManagerDirectory,
    ManagerNode, OpId, Policy, ProtoMsg, QueryVerdict, ReqId, Right, UserId,
};
use wanacl_sim::clock::DriftClock;
use wanacl_sim::metrics::MetricId;
use wanacl_sim::node::{Armed, Context, Life, Node, NodeId, Note, Sink, Step, Timer};
use wanacl_sim::rng::SimRng;
use wanacl_sim::time::{SimDuration, SimTime};

const FAIL_CLOSED: AppId = AppId(0);
const FAIL_OPEN: AppId = AppId(1);
const HOST: usize = 3;
const CLIENT: usize = 9;
const ADMIN: usize = 8;

/// One call the step rule made on the recording sink. Most fields are
/// read only through `Debug`, in `without_notes`.
#[derive(Debug)]
#[allow(dead_code)]
enum Seen {
    Send { to: NodeId, msg: ProtoMsg },
    Arm { due: SimTime, timer: Timer },
    Note(Note),
    Incr(MetricId),
    Observe(MetricId, f64),
    /// Timers armed and not cancelled, read after each step: the step
    /// rule keeps them in [`Life`], and this sink queues nothing to
    /// disarm. No timer pops in these scripts, so a cancel is the only
    /// way down.
    Armed(usize),
}

/// The recording sink: its `notes()` is the on/off toggle under test.
/// Every call is logged as `(step, call)`.
struct Recorder {
    notes: bool,
    step: usize,
    log: Vec<(usize, Seen)>,
}

impl Sink<ProtoMsg> for Recorder {
    fn send(&mut self, _from: NodeId, to: NodeId, msg: ProtoMsg) {
        self.log.push((self.step, Seen::Send { to, msg }));
    }
    fn arm(&mut self, due: SimTime, timer: Timer) -> Option<Armed> {
        self.log.push((self.step, Seen::Arm { due, timer }));
        None
    }
    fn note(&mut self, _from: NodeId, text: Note) {
        self.log.push((self.step, Seen::Note(text)));
    }
    fn incr(&mut self, name: MetricId) {
        self.log.push((self.step, Seen::Incr(name)));
    }
    fn observe(&mut self, name: MetricId, value: f64) {
        self.log.push((self.step, Seen::Observe(name, value)));
    }
    fn notes(&self) -> bool {
        self.notes
    }
}

/// One node stepped by hand through [`Step::run`] into a [`Recorder`].
struct Driven<N> {
    node: N,
    id: NodeId,
    life: Life,
    rng: SimRng,
    sink: Recorder,
}

impl<N: Node<Msg = ProtoMsg>> Driven<N> {
    fn new(node: N, id: usize, notes: bool) -> Self {
        Driven {
            node,
            id: NodeId::from_index(id),
            life: Life::default(),
            rng: SimRng::seed_from(7),
            sink: Recorder { notes, step: 0, log: Vec::new() },
        }
    }

    /// Runs one handler at `ms` on a perfect clock; returns its calls'
    /// index range in the log.
    fn call(
        &mut self,
        ms: u64,
        handler: impl FnOnce(&mut N, &mut Context<'_, ProtoMsg>),
    ) -> std::ops::Range<usize> {
        let start = self.sink.log.len();
        let clock = DriftClock::perfect();
        let mut step = Step { id: self.id, life: &mut self.life, rng: &mut self.rng, clock: &clock };
        let node = &mut self.node;
        step.run(SimTime::from_nanos(ms * 1_000_000), &mut Vec::new(), &mut self.sink, |ctx| handler(node, ctx));
        self.sink.log.push((self.sink.step, Seen::Armed(self.life.armed())));
        self.sink.step += 1;
        start..self.sink.log.len()
    }

    fn deliver(&mut self, ms: u64, from: usize, msg: ProtoMsg) -> std::ops::Range<usize> {
        self.call(ms, |node, ctx| node.on_message(ctx, NodeId::from_index(from), msg))
    }

    fn notes(&self) -> Vec<String> {
        self.sink
            .log
            .iter()
            .filter_map(|(_, seen)| match seen {
                Seen::Note(text) => Some(text.to_string()),
                _ => None,
            })
            .collect()
    }

    /// The log without its notes, rendered for comparison (`ProtoMsg` is
    /// `Debug`, not `PartialEq`).
    fn without_notes(&self) -> Vec<String> {
        self.sink
            .log
            .iter()
            .filter(|(_, seen)| !matches!(seen, Seen::Note(_)))
            .map(|(step, seen)| format!("{step}: {seen:?}"))
            .collect()
    }
}

fn invoke(app: AppId, user: u64, req: u64) -> ProtoMsg {
    ProtoMsg::Invoke { app, user: UserId(user), req: ReqId(req), payload: "q".into(), signature: None }
}

/// The query id and timer tag the host's last step produced.
fn query_of(host: &Driven<HostNode>, step: std::ops::Range<usize>) -> (ReqId, u64) {
    let mut found = (None, None);
    for (_, seen) in &host.sink.log[step] {
        match seen {
            Seen::Send { msg: ProtoMsg::Query { req, .. }, .. } => found.0 = Some(*req),
            Seen::Arm { timer, .. } => found.1 = Some(timer.tag),
            _ => {}
        }
    }
    (found.0.expect("a query went out"), found.1.expect("its timer was armed"))
}

fn reply(req: ReqId, app: AppId, user: u64, verdict: QueryVerdict) -> ProtoMsg {
    ProtoMsg::QueryReply { req, app, user: UserId(user), verdict, mac: None }
}

/// Cache miss → quorum grant, cache hit, deny, fail-open, revoke notice.
fn host_script(notes: bool) -> Driven<HostNode> {
    let managers: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
    let policy = |exhaustion| {
        Policy::builder(2)
            .revocation_bound(SimDuration::from_secs(10))
            .query_timeout(SimDuration::from_millis(100))
            .max_attempts(1)
            .exhaustion(exhaustion)
            .build()
    };
    let app = |app, exhaustion| AppHost {
        app,
        policy: policy(exhaustion),
        directory: ManagerDirectory::Static(managers.clone().into()),
        application: Box::new(CountingApp::new()),
    };
    let node = HostNode::new(
        vec![app(FAIL_CLOSED, ExhaustionBehavior::FailClosed), app(FAIL_OPEN, ExhaustionBehavior::FailOpen)],
        None,
    );
    let mut host = Driven::new(node, HOST, notes);
    host.call(0, |node, ctx| node.on_start(ctx));
    let grant = QueryVerdict::Grant { te: SimDuration::from_secs(5) };

    // Miss, then two grants make the check quorum.
    let step = host.deliver(1, CLIENT, invoke(FAIL_CLOSED, 1, 1));
    let (req, _) = query_of(&host, step);
    host.deliver(2, 0, reply(req, FAIL_CLOSED, 1, grant));
    host.deliver(3, 2, reply(req, FAIL_CLOSED, 1, grant));
    // Hit.
    host.deliver(4, CLIENT, invoke(FAIL_CLOSED, 1, 2));
    // Miss, one deny vetoes.
    let step = host.deliver(5, CLIENT, invoke(FAIL_CLOSED, 2, 3));
    let (req, _) = query_of(&host, step);
    host.deliver(6, 1, reply(req, FAIL_CLOSED, 2, QueryVerdict::Deny));
    // Miss, nobody answers, the only attempt times out: fail open.
    let step = host.deliver(7, CLIENT, invoke(FAIL_OPEN, 3, 4));
    let (_, tag) = query_of(&host, step);
    host.call(107, |node, ctx| node.on_timer(ctx, tag));
    // A revoke notice flushes the lease; the next invoke misses again.
    host.deliver(108, 0, ProtoMsg::RevokeNotice { app: FAIL_CLOSED, user: UserId(1), mac: None });
    host.deliver(109, CLIENT, invoke(FAIL_CLOSED, 1, 5));
    host
}

/// A query granted, then a revoke applied and made stable.
fn manager_script(notes: bool) -> Driven<ManagerNode> {
    let mut acl = Acl::new();
    acl.add(UserId(1), Right::Use);
    let node = ManagerNode::new(ManagerConfig {
        peers: vec![NodeId::from_index(1), NodeId::from_index(2)],
        apps: vec![ManagerApp {
            app: FAIL_CLOSED,
            policy: Policy::builder(2).revocation_bound(SimDuration::from_secs(10)).build(),
            initial_acl: acl,
        }],
        ..ManagerConfig::default()
    });
    let mut manager = Driven::new(node, 0, notes);
    manager.call(0, |node, ctx| node.on_start(ctx));
    manager.deliver(
        1,
        HOST,
        ProtoMsg::Query { app: FAIL_CLOSED, user: UserId(1), req: ReqId(40) },
    );
    let op = AclOp::Revoke { app: FAIL_CLOSED, user: UserId(1), right: Right::Use };
    let step = manager
        .deliver(2, ADMIN, ProtoMsg::Admin { op, req: ReqId(1), issuer: UserId(0), signature: None });
    let id: OpId = manager.sink.log[step]
        .iter()
        .find_map(|(_, seen)| match seen {
            Seen::Send { msg: ProtoMsg::Update { id, .. }, .. } => Some(*id),
            _ => None,
        })
        .expect("the revoke is disseminated");
    manager.deliver(3, 1, ProtoMsg::UpdateAck { id });
    manager.deliver(4, 2, ProtoMsg::UpdateAck { id });
    manager
}

fn assert_notes_cost_nothing_else<N: Node<Msg = ProtoMsg> + Debug>(
    on: &Driven<N>,
    off: &Driven<N>,
) {
    assert!(off.notes().is_empty(), "a driver that drops notes is sent none");
    assert_eq!(on.without_notes(), off.without_notes());
    assert_eq!(format!("{:?}", on.node), format!("{:?}", off.node), "same state either way");
}

#[test]
fn host_effects_are_the_same_with_notes_off_minus_the_notes() {
    let (on, off) = (host_script(true), host_script(false));
    assert_notes_cost_nothing_else(&on, &off);
    // Pinned from 816563d, where every note was formatted eagerly.
    assert_eq!(
        on.notes(),
        [
            "audit=cache-store app=0 user=1 started=1000000 limit=5001000000 te=5000000000",
            "audit=allow app=0 user=1 mode=quorum confirms=2 c=2 mgrs=0;2 started=1000000 \
             limit=5001000000",
            "audit=allow app=0 user=1 mode=cache now=4000000 limit=5001000000",
            "audit=deny app=0 user=2",
            "audit=allow app=1 user=3 mode=failopen",
        ]
    );
}

#[test]
fn manager_effects_are_the_same_with_notes_off_minus_the_notes() {
    let (on, off) = (manager_script(true), manager_script(false));
    assert_notes_cost_nothing_else(&on, &off);
    // Pinned from 816563d.
    assert_eq!(
        on.notes(),
        [
            "audit=grant app=0 user=1 te=9900000000",
            "audit=apply kind=revoke app=0 user=1 seq=1 origin=0",
            "audit=revoke-stable app=0 user=1 seq=1 origin=0",
        ]
    );
}
