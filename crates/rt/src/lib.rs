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
//! Each worker multiplexes its share of nodes: inbound envelopes land
//! in per-node inbox cells (bounded data lane, unbounded control lane),
//! each wake drains-then-steps one node, every outbound send is moved
//! onto its destination's mailbox by the in-process [`router`] (with
//! optional loss/partition policy), and timers fire from a per-worker
//! [`mod@wheel`] by absolute deadline. [`live`] installs a
//! `wanacl-core` deployment roster on the pool and soaks it under a
//! nemesis plan.
//!
//! Unlike the simulator, a pooled run is *not* deterministic — worker
//! scheduling and wall-clock jitter are real. That is the point: the
//! protocol must tolerate it, and the tests in this crate check outcomes
//! rather than traces.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod live;
pub mod router;
pub mod runtime;
pub mod storage;
pub mod wheel;

pub use chaos::ChaosRouter;
pub use live::{install_roster, live_manager_tuning, live_policy, run_live_campaign, LiveReport};
pub use router::{LinkPolicy, Transport};
pub use runtime::{
    LiveTraceEntry, NodeExit, NodeFactory, NodeResult, Runtime, RuntimeBuilder, RuntimeError,
    TraceBuffer,
};
pub use storage::FileStorage;
pub use wanacl_sim::obs::{metrics_jsonl, prometheus_text, MetricsSink};
