//! # wanacl-sim — deterministic WAN simulation substrate
//!
//! A discrete-event simulator purpose-built for reproducing *Access Control
//! in Wide-Area Networks* (Hiltunen & Schlichting, ICDCS '97). It models
//! exactly the environment the paper assumes:
//!
//! * an **unreliable network** with point-to-point and multicast sends,
//!   per-link delay distributions and loss ([`net`]),
//! * **frequent temporary partitions** — scripted cuts, congestion bursts
//!   (Gilbert–Elliott), and the i.i.d. pairwise-inaccessibility model of
//!   the paper's §4.1 analysis ([`net::partition`]),
//! * **host crashes and recoveries**, scripted or sampled by the nemesis
//!   ([`nemesis`], [`world::World::schedule_crash`]),
//! * **unsynchronized, rate-bounded local clocks** — the foundation of the
//!   paper's time-bound revocation guarantee ([`clock`]),
//! * full **determinism**: every run is a pure function of its seed, so
//!   experiments replay exactly ([`rng`], [`world`]).
//!
//! Protocol code (see the `wanacl-core` crate) is written as [`node::Node`]
//! implementations that can observe *only* their local clock and incoming
//! messages, mirroring what a real WAN host can see.
//!
//! ## Example
//!
//! ```
//! use wanacl_sim::prelude::*;
//!
//! #[derive(Default)]
//! struct Counter {
//!     seen: u32,
//! }
//!
//! impl Node for Counter {
//!     type Msg = u64;
//!     fn on_message(&mut self, _ctx: &mut Context<'_, u64>, _from: NodeId, _msg: u64) {
//!         self.seen += 1;
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! let mut world: World<u64> = World::new(7);
//! let node = world.add_node("counter", Box::new(Counter::default()), ClockSpec::Perfect);
//! world.inject(SimTime::from_millis(1), node, 99);
//! world.run_until(SimTime::from_secs(1));
//! assert_eq!(world.node_as::<Counter>(node).seen, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod backoff;
pub mod clock;
pub mod hash;
pub mod metrics;
pub mod nemesis;
pub mod net;
pub mod node;
pub mod obs;
pub mod queue;
pub mod rng;
pub mod storage;
pub mod time;
pub mod trace;
pub mod workload;
pub mod world;

/// Convenient glob-import surface for simulator users.
pub mod prelude {
    pub use crate::backoff::Backoff;
    pub use crate::clock::{ClockSpec, DriftClock, LocalTime};
    pub use crate::metrics::{Histogram, HistogramSummary, Metrics};
    pub use crate::nemesis::{Fault, NemesisNet, NemesisPlan, NemesisTargets};
    pub use crate::net::{NetModel, PerfectNet, Verdict, WanNet};
    pub use crate::node::{Context, Node, NodeId, TimerId};
    pub use crate::obs::{metrics_jsonl, prometheus_text, MetricsSink};
    pub use crate::rng::{SimRng, Zipf};
    pub use crate::storage::{DiskFaultModel, Recovered, SimStorage, Storage, StorageStats};
    pub use crate::time::{SimDuration, SimTime};
    pub use crate::workload::{
        arrivals, next_arrival, FlashCrowd, LoadCurve, RegionalTopology, ZipfPopularity,
    };
    pub use crate::world::{Observer, ObserverId, World};
}
