//! Micro-measurements: each calls one layer's public functions directly,
//! on inputs shaped like the workloads', for a fixed number of
//! iterations. They are per-layer figures only; none is judged.

use std::any::Any;
use std::hint::black_box;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::time::Instant;

use wanacl_analysis::empirical::{run_empirical, ScaleConfig};
use wanacl_core::auth::hmac::hmac_sha256;
use wanacl_core::auth::rsa::{self, Signature};
use wanacl_core::auth::sha256::Digest;
use wanacl_core::campaign::{run_campaigns_parallel, sample_plan};
use wanacl_core::msg::invoke_signing_bytes;
use wanacl_core::oracle::InvariantOracle;
use wanacl_core::prelude::*;
use wanacl_rt::router::Router;
use wanacl_rt::{FileStorage, MetricsSink, RuntimeBuilder};
use wanacl_sim::clock::LocalTime;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::storage::Storage;
use wanacl_sim::time::{SimDuration, SimTime};
use wanacl_sim::trace::TraceEvent;
use wanacl_sim::world::Observer;

use crate::gen::{self, InputSpec, UserDraw, APP, PAYLOAD};
use crate::live::out_dir;
use crate::simwl;

/// Nanoseconds per call of `op`, over `iters` calls.
fn ns_per(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        op(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn auth(out: &mut Vec<(&'static str, f64)>) {
    let spec = InputSpec {
        hosts: 2,
        clients: 1,
        users: 256,
        probes: 0,
        churn_users: 0,
        draw: UserDraw::Zipf(1.0),
        pool_per_client: 4096,
        prewarm: false,
    };
    let inputs = gen::generate(&spec, 1);
    let entries = &inputs.pools[0].entries;
    let mut ok = 0u64;
    let verify = ns_per(40_000, |i| {
        let e = &entries[i as usize % entries.len()];
        let pk = inputs
            .registry
            .public_key(UserId(e.user).into())
            .expect("enrolled");
        let bytes = invoke_signing_bytes(UserId(e.user), APP, ReqId(e.req), PAYLOAD);
        ok += rsa::verify(&pk, &bytes, &Signature(e.sig)) as u64;
    });
    assert_eq!(ok, 40_000, "generated signatures verify");
    out.push(("auth.rsa_verify_ns", verify));

    let block = vec![0xa5u8; 4096];
    let sha = ns_per(2_000, |_| {
        black_box(Digest::of(black_box(&block)));
    });
    out.push(("auth.sha256_ns_per_byte", sha / block.len() as f64));

    let keys = ChannelKeys::from_seed(7);
    let verdict = QueryVerdict::Grant {
        te: SimDuration::from_secs(1),
    };
    let (mgr, host) = (NodeId::from_index(0), NodeId::from_index(9));
    out.push((
        "auth.hmac_tag_ns",
        ns_per(20_000, |i| {
            black_box(keys.tag_query_reply(mgr, host, ReqId(i), APP, UserId(i & 1023), &verdict));
        }),
    ));
    black_box(hmac_sha256(b"k", b"m"));
}

fn cache(out: &mut Vec<(&'static str, f64)>) {
    // A host cache as live_warm leaves it: 1,024 live leases.
    let mut cache = AclCache::new();
    let far = LocalTime::from_nanos(u64::MAX / 2);
    for user in 1..=1024 {
        cache.insert(UserId(user), far);
    }
    let now = LocalTime::from_nanos(1_000);
    out.push((
        "cache.lookup_hit_ns",
        ns_per(400_000, |i| {
            black_box(cache.lookup(UserId(1 + (i * 7919) % 1024), now));
        }),
    ));
    // Inserts and sweeps as live_cold does them: leases of one second,
    // swept every half second at ~300 inserts per host per second.
    let mut cache = AclCache::new();
    let mut swept = 0usize;
    let mut sweep_ns = 0u128;
    let insert = ns_per(200_000, |i| {
        let now = i * 3_000_000;
        cache.insert(UserId(i), LocalTime::from_nanos(now + 1_000_000_000));
        if i % 170 == 169 {
            let start = Instant::now();
            swept += cache.sweep(LocalTime::from_nanos(now));
            sweep_ns += start.elapsed().as_nanos();
        }
    });
    out.push(("cache.insert_ns", insert - sweep_ns as f64 / 200_000.0));
    out.push((
        "cache.sweep_ns_per_entry",
        sweep_ns as f64 / swept.max(1) as f64,
    ));
}

fn messages(out: &mut Vec<(&'static str, f64)>) {
    let keys = ChannelKeys::from_seed(7);
    let verdict = QueryVerdict::Grant {
        te: SimDuration::from_secs(1),
    };
    let (mgr, host) = (NodeId::from_index(0), NodeId::from_index(9));
    let reply = ProtoMsg::QueryReply {
        req: ReqId(1),
        app: APP,
        user: UserId(5),
        verdict,
        mac: Some(keys.tag_query_reply(mgr, host, ReqId(1), APP, UserId(5), &verdict)),
    };
    out.push((
        "msg.clone_ns",
        ns_per(1_000_000, |_| {
            black_box(black_box(&reply).clone());
        }),
    ));
    out.push(("msg.size_bytes", std::mem::size_of::<ProtoMsg>() as f64));

    // Router sends into a channel mailbox, drained outside the timing.
    let router: Arc<Router<ProtoMsg>> = Router::new();
    let (tx, rx) = crossbeam::channel::unbounded();
    let to = router.register(tx);
    let query = ProtoMsg::Query {
        app: APP,
        user: UserId(5),
        req: ReqId(1),
    };
    let (mut single, mut batched) = (0.0, 0.0);
    const ROUNDS: u64 = 50;
    for _ in 0..ROUNDS {
        single += ns_per(4_096, |_| router.send(host, to, query.clone()));
        rx.try_iter().for_each(drop);
        let batches: Vec<Vec<Arc<ProtoMsg>>> = (0..128)
            .map(|_| (0..32).map(|_| Arc::new(query.clone())).collect())
            .collect();
        let start = Instant::now();
        for batch in batches {
            router.send_batch(host, to, batch);
        }
        batched += start.elapsed().as_nanos() as f64 / 4_096.0;
        rx.try_iter().for_each(drop);
    }
    out.push(("router.send_ns", single / ROUNDS as f64));
    out.push(("router.send_batch_ns_per_msg", batched / ROUNDS as f64));
}

/// Ping-pong: the node kicked from outside counts `left` round trips
/// and then reports; its peer echoes.
struct Bouncer {
    peer: NodeId,
    left: Option<u64>,
    done: Sender<Instant>,
}

impl Node for Bouncer {
    type Msg = ProtoMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        match (&mut self.left, msg) {
            (_, ProtoMsg::Query { req, .. }) if from == NodeId::ENV => {
                self.left = Some(req.0);
                ctx.send(self.peer, ProtoMsg::Heartbeat);
            }
            (None, _) => ctx.send(from, ProtoMsg::Heartbeat),
            (Some(0), _) => {
                let _ = self.done.send(Instant::now());
            }
            (Some(left), _) => {
                *left -= 1;
                ctx.send(self.peer, ProtoMsg::Heartbeat);
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

/// Arms `left` one-millisecond timers on a kick and reports when the
/// last has fired.
struct TimerStorm {
    left: u64,
    done: Sender<Instant>,
}

impl Node for TimerStorm {
    type Msg = ProtoMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, _from: NodeId, msg: ProtoMsg) {
        if let ProtoMsg::Query { req, .. } = msg {
            self.left = req.0;
            for tag in 0..req.0 {
                ctx.set_timer(SimDuration::from_millis(1), tag);
            }
        }
    }

    fn on_timer(&mut self, _ctx: &mut Context<'_, ProtoMsg>, _tag: u64) {
        self.left -= 1;
        if self.left == 0 {
            let _ = self.done.send(Instant::now());
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn runtime(out: &mut Vec<(&'static str, f64)>) {
    // Nodes 0 and 2 share worker 0 of two; node 1 sits on worker 1.
    const HOPS: u64 = 20_000;
    let kick = |count: u64| ProtoMsg::Query {
        app: APP,
        user: UserId(0),
        req: ReqId(count),
    };
    for (name, a, b) in [
        ("rt.pingpong_same_worker_ns", 0usize, 2usize),
        ("rt.pingpong_cross_worker_ns", 0, 1),
    ] {
        let (tx, rx) = channel();
        let mut builder: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(1);
        builder.workers(2);
        for i in 0..3usize {
            let peer = NodeId::from_index(if i == a { b } else { a });
            builder.add_node(
                format!("bouncer{i}"),
                Box::new(Bouncer {
                    peer,
                    left: None,
                    done: tx.clone(),
                }),
            );
        }
        let rt = builder.start();
        let start = Instant::now();
        rt.send_from_env(NodeId::from_index(a), kick(HOPS));
        let end = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .unwrap_or_else(|_| Instant::now());
        rt.shutdown();
        // Each round trip is two hops.
        out.push((name, (end - start).as_nanos() as f64 / (2 * HOPS) as f64));
    }

    // The wheel's entry type is private to the runtime, so timers are
    // armed and fired through it: per timer, one arm, one pop and one
    // handler call, less the millisecond they all wait.
    const TIMERS: u64 = 20_000;
    let (tx, rx) = channel();
    let mut builder: RuntimeBuilder<ProtoMsg> = RuntimeBuilder::new(1);
    builder.workers(1);
    let node = builder.add_node("storm", Box::new(TimerStorm { left: 0, done: tx }));
    let rt = builder.start();
    let start = Instant::now();
    rt.send_from_env(node, kick(TIMERS));
    let end = rx
        .recv_timeout(std::time::Duration::from_secs(30))
        .unwrap_or_else(|_| Instant::now());
    rt.shutdown();
    let ns = (end - start).as_nanos() as f64 - 1e6;
    out.push(("wheel.arm_fire_ns_per_timer", ns.max(0.0) / TIMERS as f64));
}

fn storage(out: &mut Vec<(&'static str, f64)>) {
    let dir = out_dir().join(format!("micro-wal-{}", std::process::id()));
    let mut wal = FileStorage::open(&dir).expect("open scratch WAL");
    let record = [0x5au8; 48];
    let ns = ns_per(200, |_| {
        wal.append(&record).expect("append");
        wal.sync().expect("fsync");
    });
    drop(wal);
    let _ = std::fs::remove_dir_all(dir);
    out.push(("storage.append_sync_ns", ns));
}

fn sink(out: &mut Vec<(&'static str, f64)>) {
    let sink = MetricsSink::new();
    out.push((
        "obs.sink_incr_ns",
        ns_per(500_000, |_| sink.incr("host.allowed")),
    ));
    out.push((
        "obs.sink_observe_ns",
        ns_per(500_000, |i| sink.observe("host.check_latency_s", i as f64)),
    ));
    let contended: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| scope.spawn(|| ns_per(500_000, |_| sink.incr("host.allowed"))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sink thread panicked"))
            .collect()
    });
    out.push((
        "obs.sink_incr_contended_ns",
        contended.iter().sum::<f64>() / 2.0,
    ));
}

fn simulator(out: &mut Vec<(&'static str, f64)>) {
    // The small world: 3 managers, 8 hosts, 8 users invoking every
    // 50 ms for 20 simulated seconds, trace on so the oracle below has
    // real notes to replay.
    let policy = Policy::builder(2)
        .revocation_bound(SimDuration::from_secs(60))
        .query_timeout(SimDuration::from_millis(400))
        .max_attempts(3)
        .build();
    let build = || {
        Scenario::builder(42)
            .managers(3)
            .hosts(8)
            .users(8)
            .policy(policy.clone())
            .all_users_granted()
            .workload(SimDuration::from_millis(50))
            .build()
    };
    let mut world = build();
    let start = Instant::now();
    world.run_for(SimDuration::from_secs(20));
    let ns = start.elapsed().as_nanos() as f64;
    let delivered = world.world.metrics().counter("net.delivered").max(1);
    out.push(("sim.event_ns_small_world", ns / delivered as f64));

    let mut traced = build();
    traced.world.enable_trace();
    traced.run_for(SimDuration::from_secs(5));
    let notes: Vec<(SimTime, TraceEvent)> = traced
        .world
        .trace()
        .entries()
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::Note { .. }))
        .map(|e| (e.at, e.event.clone()))
        .collect();
    let mut total_ns = 0.0;
    const REPLAYS: u64 = 20;
    for _ in 0..REPLAYS {
        let mut oracle = InvariantOracle::new(&policy, SimDuration::ZERO);
        let start = Instant::now();
        for (index, (at, event)) in notes.iter().enumerate() {
            oracle.on_event(*at, index as u64, event);
        }
        total_ns += start.elapsed().as_nanos() as f64;
        black_box(oracle.audit_digest());
    }
    out.push((
        "oracle.note_ns",
        total_ns / (REPLAYS as f64 * notes.len().max(1) as f64),
    ));

    // The planet-scale probe world: 10,000 hosts, 10 managers.
    let planet = ScaleConfig {
        horizon: SimDuration::from_secs(60),
        checks_per_host: 0.5,
        revoke_ops: 200,
        ..ScaleConfig::default()
    };
    let start = Instant::now();
    let outcome = run_empirical(&planet);
    let secs = start.elapsed().as_secs_f64();
    let delivered = outcome.metrics.counter("net.delivered").max(1);
    out.push(("sim.event_ns_10k_world", secs * 1e9 / delivered as f64));
    out.push(("sim.planet_checks_per_s", outcome.checks as f64 / secs));
}

fn campaigns(out: &mut Vec<(&'static str, f64)>) {
    let configs: Vec<CampaignConfig> = (9_000..9_008).map(simwl::campaign).collect();
    out.push((
        "campaign.plan_sample_us",
        ns_per(200, |i| {
            black_box(sample_plan(&configs[i as usize % configs.len()]));
        }) / 1e3,
    ));
    let timed = |jobs: usize| {
        let start = Instant::now();
        black_box(run_campaigns_parallel(&configs, jobs));
        start.elapsed().as_secs_f64()
    };
    let sequential = timed(1);
    let parallel = timed(2);
    out.push(("campaign.parallel_speedup", sequential / parallel));
}

/// Runs every micro-measurement and returns `(metric, value)` pairs.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    auth(&mut out);
    cache(&mut out);
    messages(&mut out);
    runtime(&mut out);
    storage(&mut out);
    sink(&mut out);
    simulator(&mut out);
    campaigns(&mut out);
    out
}
