//! # wanacl-rt — event-driven live runtime
//!
//! The protocol nodes of `wanacl-core` are written against the
//! [`wanacl_sim::node::Node`] interface: they observe only incoming
//! messages, local-clock timers, and their RNG. This crate drives those
//! *same* node implementations on a small fixed worker pool over
//! wall-clock time — demonstrating that the logic is
//! substrate-independent and providing a live deployment vehicle that
//! scales to thousands of logical nodes.
//!
//! No worker owns a node: inbound envelopes land in per-node cells
//! (bounded data lane, unbounded control lane), a node woken by a
//! handler is queued on the worker that ran the handler, an idle worker
//! steals from a sibling's queue, and each step drains-then-steps one
//! node. Every outbound send is moved onto its destination's mailbox by
//! the in-process [`router`] (or first through [`chaos`]'s fault
//! decision), and timers fall due by absolute deadline from a
//! per-worker copy of the simulator's time queue,
//! [`wanacl_sim::queue::Calendar`], onto the node's control lane. [`live`] installs a
//! `wanacl-core` deployment roster on the pool and soaks it under a
//! nemesis plan.
//!
//! Unlike the simulator, a pooled run is *not* deterministic — worker
//! scheduling and wall-clock jitter are real. That is the point: the
//! protocol must tolerate it, and the tests in this crate check outcomes
//! rather than traces.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod chaos;
pub mod live;
pub mod router;
pub mod runtime;
pub mod storage;

pub use chaos::ChaosRouter;
pub use live::{install_roster, live_manager_tuning, live_policy, run_live_campaign, LiveReport};
pub use router::{LinkPolicy, Transport};
pub use runtime::{
    LiveTraceEntry, NodeExit, NodeFactory, NodeResult, Runtime, RuntimeBuilder, RuntimeError,
    TraceBuffer,
};
pub use storage::FileStorage;
pub use wanacl_sim::obs::{metrics_jsonl, prometheus_text, MetricsSink};

/// The workers' timer wheel is the simulator's calendar — a ring of
/// 1024 buckets of 2^22 ns with an overflow heap — keyed, as a worker
/// keys it, by nanoseconds since the runtime epoch. These tests hold it
/// to what a worker asks of a timer wheel.
#[cfg(test)]
mod wheel {
    mod tests {
        use std::time::{Duration, Instant};

        use wanacl_sim::queue::Calendar;
        use wanacl_sim::time::SimTime;

        /// The calendar's ring span: 1024 buckets of 2^22 ns.
        const RING: Duration = Duration::from_nanos(1024 << 22);

        /// A deadline `d` after the runtime epoch, as a worker stamps it.
        fn at(d: Duration) -> SimTime {
            SimTime::from_nanos(d.as_nanos() as u64)
        }

        /// The absolute `Instant` an idle worker parks until.
        fn park_until(q: &mut Calendar<u64>, epoch: Instant) -> Option<Instant> {
            q.next_time().and_then(|due| epoch.checked_add(Duration::from_nanos(due.as_nanos())))
        }

        fn pop_id(q: &mut Calendar<u64>, now: Duration) -> Option<u64> {
            q.pop_due(at(now)).map(|(_, id)| id)
        }

        #[test]
        fn fires_in_due_order_across_slots_and_overflow() {
            let mut q = Calendar::new();
            // Deliberately out of order: overflow, ring, the epoch itself.
            q.push(at(Duration::from_secs(9)), 1);
            q.push(at(Duration::from_millis(5)), 2);
            q.push(at(Duration::ZERO), 3);
            q.push(at(Duration::from_millis(5)), 4);

            let now = Duration::from_millis(10);
            assert_eq!(pop_id(&mut q, now), Some(3));
            assert_eq!(pop_id(&mut q, now), Some(2));
            // A timer armed at a clock read taken before the last fire
            // is already elapsed: it fires next, ahead of later ones.
            q.push(at(Duration::from_millis(1)), 5);
            assert_eq!(pop_id(&mut q, now), Some(5));
            assert_eq!(pop_id(&mut q, now), Some(4));
            assert_eq!(pop_id(&mut q, now), None, "the 9s timer is not due yet");
            assert!(q.next_time().is_some());

            let later = Duration::from_secs(10);
            assert_eq!(pop_id(&mut q, later), Some(1));
            assert_eq!(q.next_time(), None);
            assert_eq!(pop_id(&mut q, later), None);
        }

        #[test]
        fn next_deadline_tracks_the_earliest_timer() {
            let epoch = Instant::now();
            let mut q = Calendar::new();
            assert_eq!(park_until(&mut q, epoch), None);
            let far = Duration::from_secs(9);
            q.push(at(far), 1);
            assert_eq!(park_until(&mut q, epoch), Some(epoch + far), "overflow peeks through");
            let near = Duration::from_millis(7);
            q.push(at(near), 2);
            assert_eq!(park_until(&mut q, epoch), Some(epoch + near));
            // Consuming the near timer restores the far deadline.
            assert_eq!(pop_id(&mut q, Duration::from_millis(8)), Some(2));
            assert_eq!(park_until(&mut q, epoch), Some(epoch + far));
        }

        #[test]
        fn lap_wrap_does_not_fire_future_timers_early() {
            let mut q = Calendar::new();
            // Two timers that share a bucket index, one ring span apart.
            let near = Duration::from_millis(100);
            let lap = near + RING;
            q.push(at(near), 1);
            q.push(at(lap), 2);
            let mid = Duration::from_millis(200);
            assert_eq!(pop_id(&mut q, mid), Some(1));
            assert_eq!(pop_id(&mut q, mid), None, "the next-lap timer must wait");
            assert_eq!(pop_id(&mut q, lap - Duration::from_nanos(1)), None);
            assert_eq!(pop_id(&mut q, lap + Duration::from_millis(1)), Some(2));
        }

        #[test]
        fn thousands_of_timers_drain_completely() {
            let mut q = Calendar::new();
            for i in 0..5_000u64 {
                q.push(at(Duration::from_micros(i * 997)), i);
            }
            let mut fired = Vec::new();
            let mut now = Duration::ZERO;
            while q.next_time().is_some() {
                now += Duration::from_millis(50);
                while let Some((due, id)) = q.pop_due(at(now)) {
                    assert!(due <= at(now), "never fires early");
                    fired.push(id);
                }
            }
            assert_eq!(fired.len(), 5_000);
            let mut sorted = fired.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5_000, "every timer fires exactly once");
        }
    }
}
