//! Determinism properties of the world and the workload generators: a
//! world re-run from the same seed produces a **byte-identical** trace,
//! and every workload generator yields a fixed sequence for a fixed
//! seed no matter which thread runs it. The calendar queue's parity
//! with a naive heap is checked here under far-future pressure and at
//! queue level (`wanacl_sim::queue`'s tests).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use wanacl_sim::clock::ClockSpec;
use wanacl_sim::net::WanNet;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::queue::Calendar;
use wanacl_sim::trace::TraceEvent;
use wanacl_sim::rng::SimRng;
use wanacl_sim::time::{SimDuration, SimTime};
use wanacl_sim::workload::{arrivals, LoadCurve, RegionalTopology, ZipfPopularity};
use wanacl_sim::world::World;

/// A chatty node that exercises every event kind: timers reschedule
/// themselves, messages fan out to random peers, replies bounce back,
/// and the driver layers crashes/recoveries on top.
struct Gossip {
    peers: Vec<NodeId>,
    rounds: u32,
}

impl Node for Gossip {
    type Msg = u64;

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut Context<'_, u64>) {
        ctx.set_timer(SimDuration::from_millis(5), 0);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, u64>, tag: u64) {
        if self.rounds == 0 {
            return;
        }
        self.rounds -= 1;
        let n = self.peers.len() as u64;
        let peer = self.peers[ctx.rng().range(0, n - 1) as usize];
        ctx.send(peer, tag + 1);
        ctx.trace(format!("gossip round tag={tag}"));
        ctx.set_timer(SimDuration::from_millis(7 + (tag % 5)), tag + 1);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, u64>, from: NodeId, msg: u64) {
        // Bounce every third message back so simultaneous deliveries and
        // FIFO tie-breaking actually occur.
        if msg.is_multiple_of(3) {
            ctx.send(from, msg + 1);
        }
        ctx.trace(format!("got {msg}"));
    }
}

fn gossip_trace(seed: u64) -> String {
    let mut world: World<u64> = World::new(seed);
    world.enable_trace();
    world.set_net(Box::new(
        WanNet::builder()
            .uniform_delay(SimDuration::from_millis(3), SimDuration::from_millis(40))
            .build(),
    ));
    let ids: Vec<NodeId> = (0..6).map(NodeId::from_index).collect();
    for (i, &id) in ids.iter().enumerate() {
        let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
        let got = world.add_node(
            format!("g{i}"),
            Box::new(Gossip { peers, rounds: 40 }),
            ClockSpec::RandomRate { min_rate: 0.999 },
        );
        assert_eq!(got, id);
    }
    world.schedule_crash(SimTime::ZERO + SimDuration::from_millis(120), ids[1]);
    world.schedule_recover(SimTime::ZERO + SimDuration::from_millis(310), ids[1]);
    world.run_until(SimTime::ZERO + SimDuration::from_secs(2));
    world.trace().to_text()
}

#[test]
fn calendar_trace_is_stable_across_runs() {
    for seed in [3u64, 17, 4242] {
        let trace = gossip_trace(seed);
        assert!(!trace.is_empty(), "seed {seed} produced an empty trace");
        assert_eq!(trace, gossip_trace(seed), "seed {seed}: a re-run changed the trace");
    }
}

fn zipf_sequence(seed: u64, n: usize) -> Vec<usize> {
    let pop = ZipfPopularity::new(1_000, 1.1);
    let mut rng = SimRng::seed_from(seed);
    (0..n).map(|_| pop.sample_user(&mut rng)).collect()
}

fn arrival_sequence(seed: u64) -> Vec<SimTime> {
    let curve = LoadCurve::constant(50.0)
        .diurnal(0.6, SimDuration::from_secs(600))
        .flash_crowd(
            SimTime::ZERO + SimDuration::from_secs(100),
            SimDuration::from_secs(30),
            4.0,
        );
    let mut rng = SimRng::seed_from(seed);
    arrivals(&curve, SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(300), &mut rng)
}

fn delay_sequence(seed: u64, n: usize) -> Vec<SimDuration> {
    use wanacl_sim::net::delay::DelayModel;
    let mut topo = RegionalTopology::planet().jitter(0.15);
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|i| {
            topo.sample(NodeId::from_index(i % 7), NodeId::from_index((i * 3 + 1) % 11), &mut rng)
        })
        .collect()
}

#[test]
fn workload_generators_are_seed_deterministic() {
    assert_eq!(zipf_sequence(9, 500), zipf_sequence(9, 500));
    assert_ne!(zipf_sequence(9, 500), zipf_sequence(10, 500));

    let a = arrival_sequence(5);
    assert!(a.len() > 1_000, "expected a dense arrival schedule, got {}", a.len());
    assert_eq!(a, arrival_sequence(5));
    assert_ne!(a, arrival_sequence(6));

    assert_eq!(delay_sequence(2, 200), delay_sequence(2, 200));
}

#[test]
fn workload_generators_are_thread_stable() {
    // Generators draw only from the SimRng they are handed, so the same
    // seed must yield the same sequence from any thread (`--jobs N`
    // sweeps rely on this).
    let here = (zipf_sequence(77, 300), arrival_sequence(77), delay_sequence(77, 100));
    let there = std::thread::spawn(|| {
        (zipf_sequence(77, 300), arrival_sequence(77), delay_sequence(77, 100))
    })
    .join()
    .expect("worker thread");
    assert_eq!(here, there);
}

#[test]
fn schedulers_agree_under_far_future_and_rebase_pressure() {
    // Push the calendar through its overflow/rebase machinery: items far
    // beyond the bucket window (~4.3s), interleaved with near-term
    // chatter pushed as each item pops, and require the pop order of a
    // naive heap ordered by (time, push order).
    for seed in 0..5u64 {
        let mut rng = SimRng::seed_from(seed);
        let mut cal = Calendar::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut push = |cal: &mut Calendar<u64>, heap: &mut BinaryHeap<_>, at: SimTime| {
            cal.push(at, seq);
            heap.push(Reverse((at, seq)));
            seq += 1;
        };
        for k in 0..50u64 {
            push(&mut cal, &mut heap, SimTime::ZERO + SimDuration::from_secs(20 + k * 7));
        }
        for i in 0..200u64 {
            push(&mut cal, &mut heap, SimTime::ZERO + SimDuration::from_millis(i % 40));
        }
        let mut popped = 0;
        while let Some((at, item)) = cal.pop() {
            let Reverse(want) = heap.pop().expect("heap holds as many items");
            assert_eq!((at, item), want, "seed {seed}: calendar diverged from heap order");
            popped += 1;
            if popped < 2_000 {
                for _ in 0..rng.range(0, 2) {
                    let delay = SimDuration::from_millis(rng.range(0, 12));
                    push(&mut cal, &mut heap, at + delay);
                }
            }
        }
        assert!(heap.is_empty(), "seed {seed}: calendar drained before the heap");
        assert!(popped > 250, "seed {seed}: the chatter never ran");
    }

    // The same pressure on a world: every far-future injection is
    // delivered at its own time and in injection order, the trace never
    // runs backwards, and a re-run reproduces it byte for byte.
    for seed in 0..5u64 {
        let run = || {
            let mut world: World<u64> = World::new(seed);
            world.enable_trace();
            let ids: Vec<NodeId> = (0..3).map(NodeId::from_index).collect();
            for (i, &id) in ids.iter().enumerate() {
                let peers: Vec<NodeId> = ids.iter().copied().filter(|&p| p != id).collect();
                let got = world.add_node(
                    format!("n{i}"),
                    Box::new(Gossip { peers, rounds: 10 }),
                    ClockSpec::Perfect,
                );
                assert_eq!(got, id);
            }
            let mut injected = Vec::new();
            for k in 0..50u64 {
                let at = SimTime::ZERO + SimDuration::from_secs(20 + k * 7);
                let to = ids[(k % 3) as usize];
                world.inject(at, to, k);
                injected.push((at, to, format!("{k:?}")));
            }
            world.run_until(SimTime::ZERO + SimDuration::from_secs(400));
            let entries = world.trace().entries();
            assert!(
                entries.windows(2).all(|w| w[0].at <= w[1].at),
                "seed {seed}: the trace runs backwards"
            );
            let delivered: Vec<_> = entries
                .iter()
                .filter_map(|e| match &e.event {
                    TraceEvent::Delivered { from, to, desc } if *from == NodeId::ENV => {
                        Some((e.at, *to, desc.clone()))
                    }
                    _ => None,
                })
                .collect();
            assert_eq!(delivered, injected, "seed {seed}: far-future injections misdelivered");
            world.trace().to_text()
        };
        assert_eq!(run(), run(), "seed {seed}: a re-run changed the trace");
    }
}
