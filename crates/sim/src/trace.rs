//! Structured event tracing.
//!
//! The trace records what the world actually did — message deliveries,
//! drops, timers, crashes — and is the basis of the determinism invariant
//! (same seed ⇒ identical trace) as well as a debugging aid.

use crate::net::DropReason;
use crate::node::{NodeId, Note};
use crate::time::SimTime;

/// One recorded world event.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum TraceEvent {
    /// A message left a node.
    Sent { from: NodeId, to: NodeId, desc: String },
    /// A message arrived at a node.
    Delivered { from: NodeId, to: NodeId, desc: String },
    /// The network dropped a message.
    Dropped { from: NodeId, to: NodeId, reason: DropReason },
    /// A node's timer fired.
    TimerFired { node: NodeId, tag: u64 },
    /// A node crashed.
    Crashed { node: NodeId },
    /// A node recovered.
    Recovered { node: NodeId },
    /// A note emitted by a node via `Context::trace` or
    /// `Context::trace_record`.
    Note { node: NodeId, text: Note },
}

/// A trace entry: when plus what.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Real simulation time of the event.
    pub at: SimTime,
    /// The event.
    pub event: TraceEvent,
}

impl std::fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] ", self.at)?;
        match &self.event {
            TraceEvent::Sent { from, to, desc } => write!(f, "{from} -> {to}: sent {desc}"),
            TraceEvent::Delivered { from, to, desc } => {
                write!(f, "{from} -> {to}: delivered {desc}")
            }
            TraceEvent::Dropped { from, to, reason } => {
                write!(f, "{from} -> {to}: dropped ({reason})")
            }
            TraceEvent::TimerFired { node, tag } => write!(f, "{node}: timer {tag} fired"),
            TraceEvent::Crashed { node } => write!(f, "{node}: crashed"),
            TraceEvent::Recovered { node } => write!(f, "{node}: recovered"),
            TraceEvent::Note { node, text } => write!(f, "{node}: {text}"),
        }
    }
}

/// The world's trace buffer.
///
/// Disabled by default; experiments that need it opt in (tracing a long
/// run costs memory proportional to event count).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    entries: Vec<TraceEntry>,
}

impl Trace {
    /// Creates a disabled trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables recording.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an event (no-op when disabled).
    pub fn push(&mut self, at: SimTime, event: TraceEvent) {
        if self.enabled {
            self.entries.push(TraceEntry { at, event });
        }
    }

    /// The recorded entries, in order.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all recorded entries (recording state unchanged).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Renders the whole trace as text, one entry per line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, TraceEvent::Crashed { node: n(0) });
        assert!(t.is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::new();
        t.set_enabled(true);
        t.push(SimTime::ZERO, TraceEvent::Crashed { node: n(0) });
        t.push(SimTime::from_secs(1), TraceEvent::Recovered { node: n(0) });
        assert_eq!(t.len(), 2);
        assert_eq!(t.entries()[0].at, SimTime::ZERO);
        assert!(matches!(t.entries()[1].event, TraceEvent::Recovered { .. }));
    }

    #[test]
    fn clear_keeps_enabled_flag() {
        let mut t = Trace::new();
        t.set_enabled(true);
        t.push(SimTime::ZERO, TraceEvent::TimerFired { node: n(1), tag: 9 });
        t.clear();
        assert!(t.is_empty());
        assert!(t.is_enabled());
    }

    #[test]
    fn display_renders_every_variant() {
        let events = vec![
            TraceEvent::Sent { from: n(0), to: n(1), desc: "q".into() },
            TraceEvent::Delivered { from: n(0), to: n(1), desc: "q".into() },
            TraceEvent::Dropped { from: n(0), to: n(1), reason: DropReason::Loss },
            TraceEvent::TimerFired { node: n(0), tag: 3 },
            TraceEvent::Crashed { node: n(0) },
            TraceEvent::Recovered { node: n(0) },
            TraceEvent::Note { node: n(0), text: "hello".into() },
        ];
        for ev in events {
            let entry = TraceEntry { at: SimTime::from_secs(1), event: ev };
            assert!(!entry.to_string().is_empty());
        }
    }

    #[test]
    fn to_text_joins_lines() {
        let mut t = Trace::new();
        t.set_enabled(true);
        t.push(SimTime::ZERO, TraceEvent::Crashed { node: n(0) });
        t.push(SimTime::ZERO, TraceEvent::Recovered { node: n(0) });
        assert_eq!(t.to_text().lines().count(), 2);
    }
}
