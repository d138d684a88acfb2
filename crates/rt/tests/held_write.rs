//! A manager's disk write that has not landed holds only that write's
//! promises: on a one-worker pool the manager keeps answering queries,
//! other nodes keep exchanging messages, and the op it logged is acked
//! only once the write lands.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use wanacl_core::prelude::*;
use wanacl_rt::{NodeFactory, Runtime, RuntimeBuilder};
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::storage::{DirDisk, Disk, FileStorage, Storage, Wal, Waker};

/// Where the test holds a write: closed until it opens it.
#[derive(Default)]
struct Gate {
    state: Mutex<(bool, Option<Waker>)>,
    opened: Condvar,
}

impl Gate {
    /// Blocks until the gate is open.
    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        while !state.0 {
            state = self.opened.wait(state).unwrap();
        }
    }

    /// Opens the gate and wakes the node whose write waited at it.
    fn open(&self) {
        let waker = {
            let mut state = self.state.lock().unwrap();
            state.0 = true;
            state.1.take()
        };
        self.opened.notify_all();
        if let Some(waker) = waker {
            waker.wake();
        }
    }

    fn holds_a_write(&self) -> bool {
        self.state.lock().unwrap().1.is_some()
    }
}

/// Opens the gate however the test ends, so no worker waits at it
/// forever.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A directory disk whose appends wait at the gate: one handed over in
/// flight is held there, and a blocking one blocks there.
#[derive(Debug)]
struct HeldDisk {
    disk: DirDisk,
    gate: Arc<Gate>,
    held: Option<Vec<u8>>,
}

impl std::fmt::Debug for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Gate")
    }
}

impl Disk for HeldDisk {
    fn read_wal(&mut self) -> io::Result<Vec<u8>> {
        self.disk.read_wal()
    }

    fn append_wal(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.gate.pass();
        self.disk.append_wal(bytes)
    }

    fn truncate_wal(&mut self, len: u64) -> io::Result<()> {
        self.disk.truncate_wal(len)
    }

    fn read_snapshot(&mut self) -> Option<Vec<u8>> {
        self.disk.read_snapshot()
    }

    fn replace_snapshot(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.disk.replace_snapshot(bytes)
    }

    fn hand_over(&mut self, bytes: &[u8], wake: Option<Waker>) -> Option<io::Result<()>> {
        let mut state = self.gate.state.lock().unwrap();
        match wake {
            Some(wake) if !state.0 => {
                state.1 = Some(wake);
                self.held = Some(bytes.to_vec());
                None
            }
            wake => {
                drop(state);
                self.gate.pass();
                self.disk.hand_over(bytes, wake)
            }
        }
    }

    fn landed(&mut self, wait: bool) -> Option<io::Result<()>> {
        let Some(bytes) = self.held.take() else { return self.disk.landed(wait) };
        if wait {
            self.gate.pass();
        } else if !self.gate.state.lock().unwrap().0 {
            self.held = Some(bytes);
            return None;
        }
        Some(self.disk.append_wal(&bytes))
    }
}

/// Forwards what the environment sends it to the manager, and reports
/// what comes back.
struct Probe {
    manager: NodeId,
    replies: Mutex<Sender<ProtoMsg>>,
}

impl Node for Probe {
    type Msg = ProtoMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        if from == NodeId::ENV {
            ctx.send(self.manager, msg);
        } else {
            let _ = self.replies.lock().unwrap().send(msg);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Bounces a heartbeat with its partner, counting each one.
struct Bouncer {
    partner: NodeId,
    bounces: Arc<AtomicU64>,
}

impl Node for Bouncer {
    type Msg = ProtoMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, _from: NodeId, _msg: ProtoMsg) {
        self.bounces.fetch_add(1, Ordering::Relaxed);
        ctx.send(self.partner, ProtoMsg::Heartbeat);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The next reply that `keep` keeps, within a few seconds.
fn next_reply<T>(replies: &Receiver<ProtoMsg>, mut keep: impl FnMut(ProtoMsg) -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let msg = replies.recv_timeout(left).expect("a reply before the deadline");
        if let Some(kept) = keep(msg) {
            return kept;
        }
    }
}

/// Polls `done` for a few seconds.
fn eventually(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The only manager of app 0, on `storage`; user 1 holds `Use`.
fn manager(storage: Box<dyn Storage>) -> ManagerNode {
    let mut acl = Acl::new();
    acl.add(UserId(1), Right::Use);
    let mut manager = ManagerNode::new(ManagerConfig {
        apps: vec![ManagerApp { app: AppId(0), policy: Policy::builder(1).build(), initial_acl: acl }],
        ..ManagerConfig::default()
    });
    manager.set_storage(storage);
    manager
}

/// Asks the manager, through the probe, whether user 1 holds `Use`.
fn query(rt: &Runtime<ProtoMsg>, probe: NodeId, replies: &Receiver<ProtoMsg>, req: u64) -> QueryVerdict {
    rt.send_from_env(probe, ProtoMsg::Query { app: AppId(0), user: UserId(1), req: ReqId(req) });
    next_reply(replies, |msg| match msg {
        ProtoMsg::QueryReply { req: answered, verdict, .. } if answered == ReqId(req) => Some(verdict),
        ProtoMsg::AdminReply { status, .. } => panic!("{status:?} while the op's write is held"),
        _ => None,
    })
}

#[test]
fn a_held_disk_write_does_not_hold_the_pool() {
    let dir = std::env::temp_dir().join(format!("wanacl-held-write-{}", std::process::id()));
    let gate = Arc::new(Gate::default());
    let disk = HeldDisk { disk: DirDisk::open(&dir).expect("a WAL directory"), gate: gate.clone(), held: None };
    let manager = manager(Box::new(Wal::on(disk)));

    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(3);
    b.workers(1);
    let manager_id = b.add_node("manager", Box::new(manager));
    let (replies_tx, replies) = channel();
    let probe = b.add_node("probe", Box::new(Probe { manager: manager_id, replies: Mutex::new(replies_tx) }));
    let bounces = Arc::new(AtomicU64::new(0));
    let (ping, pong) = (NodeId::from_index(2), NodeId::from_index(3));
    for (me, partner) in [(ping, pong), (pong, ping)] {
        let node = Bouncer { partner, bounces: bounces.clone() };
        assert_eq!(b.add_node(format!("bouncer{}", me.index()), Box::new(node)), me);
    }
    let rt = b.start();
    // Dropped before the runtime, whose drop joins the worker.
    let _open = OpenOnDrop(gate.clone());

    let revoke = AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use };
    rt.send_from_env(probe, ProtoMsg::Admin { op: revoke, req: ReqId(1), issuer: UserId(0), signature: None });
    let applied = next_reply(&replies, |msg| match msg {
        ProtoMsg::AdminReply { status, .. } => Some(status),
        _ => None,
    });
    assert_eq!(applied, AdminStatus::Applied);
    eventually("the manager's write to reach the gate", || gate.holds_a_write());

    // The write is held: the lone worker still serves the manager and
    // everyone else.
    rt.send_from_env(ping, ProtoMsg::Heartbeat);
    for req in 2..22 {
        assert_eq!(query(&rt, probe, &replies, req), QueryVerdict::Deny, "the revoke applied before its write");
    }
    eventually("messages between two other nodes", || bounces.load(Ordering::Relaxed) >= 100);
    assert!(gate.holds_a_write());

    // Once the write lands, the op is durable at its only manager: stable.
    gate.open();
    let stable = next_reply(&replies, |msg| match msg {
        ProtoMsg::AdminReply { status, .. } => Some(status),
        _ => None,
    });
    assert_eq!(stable, AdminStatus::Stable);
    rt.shutdown_nodes();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A manager killed while its write is held, then restarted on the same
/// directory: the fresh instance recovers without the record that never
/// landed, and the killed instance's wake, arriving later, acks nothing.
#[test]
fn a_manager_killed_with_its_write_held_restarts_on_a_quiet_log() {
    let dir = std::env::temp_dir().join(format!("wanacl-held-kill-{}", std::process::id()));
    let gate = Arc::new(Gate::default());
    let built = AtomicU64::new(0);
    let factory: NodeFactory<ProtoMsg> = {
        let (dir, gate) = (dir.clone(), gate.clone());
        Arc::new(move || {
            let storage: Box<dyn Storage> = match built.fetch_add(1, Ordering::Relaxed) {
                0 => {
                    let disk = DirDisk::open(&dir).map_err(|e| e.to_string())?;
                    Box::new(Wal::on(HeldDisk { disk, gate: gate.clone(), held: None }))
                }
                _ => Box::new(FileStorage::open(&dir).map_err(|e| e.to_string())?),
            };
            Ok(Box::new(manager(storage)))
        })
    };
    let mut b: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(5);
    b.workers(1);
    let manager_id = b.add_node_with_factory("manager", factory).expect("the first instance builds");
    let (replies_tx, replies) = channel();
    let probe = b.add_node("probe", Box::new(Probe { manager: manager_id, replies: Mutex::new(replies_tx) }));
    let mut rt = b.start();
    let _open = OpenOnDrop(gate.clone());

    let revoke = AclOp::Revoke { app: AppId(0), user: UserId(1), right: Right::Use };
    rt.send_from_env(probe, ProtoMsg::Admin { op: revoke, req: ReqId(1), issuer: UserId(0), signature: None });
    let applied = next_reply(&replies, |msg| match msg {
        ProtoMsg::AdminReply { status, .. } => Some(status),
        _ => None,
    });
    assert_eq!(applied, AdminStatus::Applied);
    eventually("the manager's write to reach the gate", || gate.holds_a_write());
    assert_eq!(query(&rt, probe, &replies, 2), QueryVerdict::Deny);

    rt.kill(manager_id).expect("kill");
    rt.restart(manager_id).expect("restart");
    assert!(matches!(query(&rt, probe, &replies, 3), QueryVerdict::Grant { .. }), "the held revoke never landed");
    gate.open();
    // The killed instance's wake finds a fresh incarnation: nothing
    // answers the admin, and the manager keeps serving.
    assert!(matches!(query(&rt, probe, &replies, 4), QueryVerdict::Grant { .. }));
    let stray = replies.recv_timeout(Duration::from_millis(200));
    assert!(stray.is_err(), "nothing after the wake: {stray:?}");
    rt.shutdown_nodes();
    let _ = std::fs::remove_dir_all(&dir);
}
