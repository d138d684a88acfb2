//! Spans around every handler call of the nodes under test, recorded by
//! a decorator the benchmark owns, and the per-layer figures derived
//! from them.
//!
//! A span is one `on_message`/`on_timer` call. Its key is the
//! `(host, user)` pair of the check it serves; the traced run keeps at
//! most one check in flight per pair, so the key together with the
//! request's send and reply times identifies the request. A span's
//! parent is the span whose handler sent the message it handles; handlers
//! never nest, so a handler span has no children and its self time is its
//! duration, while a request's self time (its duration minus the handler
//! spans inside it) is the time the request spent waiting between
//! handlers.

use std::any::Any;
use std::time::Instant;

use wanacl_core::msg::{InvokeOutcome, ProtoMsg};
use wanacl_sim::node::{Context, Effect, Node, NodeId};

use crate::stats::LogHist;

/// What a span's handler was called for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    HostInvoke,
    HostQueryReply,
    HostRevokeNotice,
    HostTimer,
    HostOther,
    ManagerQuery,
    ManagerAdmin,
    ManagerUpdate,
    ManagerUpdateAck,
    ManagerTimer,
    ManagerOther,
    /// A benchmark client or admin node handling a reply or a timer.
    Client,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::HostInvoke => "host.Invoke",
            Kind::HostQueryReply => "host.QueryReply",
            Kind::HostRevokeNotice => "host.RevokeNotice",
            Kind::HostTimer => "host.timer",
            Kind::HostOther => "host.other",
            Kind::ManagerQuery => "manager.Query",
            Kind::ManagerAdmin => "manager.Admin",
            Kind::ManagerUpdate => "manager.Update",
            Kind::ManagerUpdateAck => "manager.UpdateAck",
            Kind::ManagerTimer => "manager.timer",
            Kind::ManagerOther => "manager.other",
            Kind::Client => "client",
        }
    }
}

/// Which of the two roles under test a [`Traced`] node plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Host,
    Manager,
}

/// One handler call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub node: u32,
    pub kind: Kind,
    /// Sender of the handled message (`u32::MAX` for timers).
    pub from: u32,
    /// Key: the host node and user the work is for (`0` user = none).
    pub host: u32,
    pub user: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Messages the handler sent.
    pub sends: u16,
    /// Metric emissions (`metric_incr` + `metric_observe`) it made.
    pub emits: u16,
    /// Timers it armed or cancelled.
    pub timer_ops: u16,
    /// Bytes of audit/trace text it formatted.
    pub trace_bytes: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One check as its client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub host: u32,
    pub user: u64,
    pub sent_ns: u64,
    /// End of the client handler that issued it: the moment the runtime
    /// could first flush it.
    pub issuer_end_ns: u64,
    /// Start of the client handler that received the reply.
    pub reply_ns: u64,
    pub allowed: bool,
}

fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// Decorates a host or manager node: every handler call runs against a
/// private effect buffer, so the decorator can time the call, count what
/// it asked the runtime to do, and then hand the effects on unchanged.
///
/// The inner node draws timer ids from the decorator's own counter.
/// Because every `set_timer` of this node passes through here and is
/// replayed in order, that counter stays equal to the runtime's, which
/// the replay asserts.
pub struct Traced<N> {
    inner: N,
    role: Role,
    epoch: Instant,
    effects: Vec<Effect<ProtoMsg>>,
    next_timer: u64,
    pub spans: Vec<Span>,
}

impl<N> std::fmt::Debug for Traced<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Traced")
            .field("role", &self.role)
            .field("spans", &self.spans.len())
            .finish()
    }
}

impl<N: Node<Msg = ProtoMsg>> Traced<N> {
    pub fn new(inner: N, role: Role, epoch: Instant, capacity: usize) -> Self {
        Traced {
            inner,
            role,
            epoch,
            effects: Vec::with_capacity(16),
            next_timer: 0,
            spans: Vec::with_capacity(capacity),
        }
    }

    pub fn inner(&self) -> &N {
        &self.inner
    }

    fn classify(&self, me: NodeId, from: NodeId, msg: &ProtoMsg) -> (Kind, u32, u64) {
        let me = me.index() as u32;
        let from = from.index() as u32;
        match (self.role, msg) {
            (Role::Host, ProtoMsg::Invoke { user, .. }) => (Kind::HostInvoke, me, user.0),
            (Role::Host, ProtoMsg::QueryReply { user, .. }) => (Kind::HostQueryReply, me, user.0),
            (Role::Host, ProtoMsg::RevokeNotice { user, .. }) => {
                (Kind::HostRevokeNotice, me, user.0)
            }
            (Role::Host, _) => (Kind::HostOther, me, 0),
            (Role::Manager, ProtoMsg::Query { user, .. }) => (Kind::ManagerQuery, from, user.0),
            (Role::Manager, ProtoMsg::Admin { op, .. }) => (Kind::ManagerAdmin, 0, op.user().0),
            (Role::Manager, ProtoMsg::Update { op, .. }) => (Kind::ManagerUpdate, 0, op.user().0),
            (Role::Manager, ProtoMsg::UpdateAck { .. }) => (Kind::ManagerUpdateAck, 0, 0),
            (Role::Manager, _) => (Kind::ManagerOther, 0, 0),
        }
    }

    /// Runs `call` on the inner node against a private context, replays
    /// its effects into `ctx`, and records the span.
    fn run(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        (kind, host, user): (Kind, u32, u64),
        from: u32,
        call: impl FnOnce(&mut N, &mut Context<'_, ProtoMsg>),
    ) {
        let id = ctx.id();
        let now = ctx.local_now();
        let start_ns = ns_since(self.epoch);
        {
            let mut inner_ctx =
                Context::new(id, now, &mut self.effects, ctx.rng(), &mut self.next_timer);
            call(&mut self.inner, &mut inner_ctx);
        }
        let end_ns = ns_since(self.epoch);
        let mut span = Span {
            node: id.index() as u32,
            kind,
            from,
            host,
            user,
            start_ns,
            end_ns,
            sends: 0,
            emits: 0,
            timer_ops: 0,
            trace_bytes: 0,
        };
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    span.sends += 1;
                    ctx.send(to, msg);
                }
                Effect::SetTimer {
                    id,
                    local_delay,
                    tag,
                } => {
                    span.timer_ops += 1;
                    let replayed = ctx.set_timer(local_delay, tag);
                    assert_eq!(replayed.into_raw(), id.into_raw(), "timer ids out of step");
                }
                Effect::CancelTimer { id } => {
                    span.timer_ops += 1;
                    ctx.cancel_timer(id);
                }
                Effect::Trace { text } => {
                    span.trace_bytes += text.len() as u32;
                    ctx.trace(text);
                }
                Effect::MetricIncr { name } => {
                    span.emits += 1;
                    ctx.metric_incr(name);
                }
                Effect::MetricObserve { name, value } => {
                    span.emits += 1;
                    ctx.metric_observe(name, value);
                }
            }
        }
        self.spans.push(span);
    }

    fn timer_kind(&self) -> Kind {
        match self.role {
            Role::Host => Kind::HostTimer,
            Role::Manager => Kind::ManagerTimer,
        }
    }
}

impl<N: Node<Msg = ProtoMsg> + 'static> Node for Traced<N> {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let key = (self.timer_kind(), 0, 0);
        self.run(ctx, key, u32::MAX, |n, c| n.on_start(c));
    }

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        let key = self.classify(ctx.id(), from, &msg);
        self.run(ctx, key, from.index() as u32, |n, c| {
            n.on_message(c, from, msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        let key = (self.timer_kind(), 0, 0);
        self.run(ctx, key, u32::MAX, |n, c| n.on_timer(c, tag));
    }

    fn on_crash(&mut self) {
        self.inner.on_crash();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let key = (self.timer_kind(), 0, 0);
        self.run(ctx, key, u32::MAX, |n, c| n.on_recover(c));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Whether a reply grants access.
pub fn is_allowed(outcome: &InvokeOutcome) -> bool {
    matches!(outcome, InvokeOutcome::Allowed { .. })
}

/// Time inside `[start, end)` not covered by any of `children`
/// (`(start, end)` intervals, in any order, possibly overlapping or
/// reaching outside the parent): the parent's self time.
pub fn self_time_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (end - start) - covered
}

/// What the spans of a traced run add up to.
#[derive(Debug, Default)]
pub struct TraceSummary {
    /// Mean self time per kind, ns, and how many spans of the kind.
    pub self_ns: std::collections::BTreeMap<Kind, (f64, u64)>,
    pub host_hit_self_ns: f64,
    pub host_miss_self_ns: f64,
    pub handler_calls_per_check: f64,
    pub host_calls_per_check: f64,
    pub manager_queries_per_check: f64,
    pub sends_per_check: f64,
    pub emits_per_check: f64,
    pub timer_ops_per_check: f64,
    pub trace_bytes_per_check: f64,
    pub hop_wait: LogHist,
    /// Handler time over `workers × wall`.
    pub busy_ns: u64,
    pub client_ns: u64,
    /// Median over requests of `1 − (handlers + hops on the blocking
    /// path) / latency`.
    pub unexplained_frac: f64,
    /// Median request self time: the part of a check's latency spent
    /// outside every handler.
    pub request_wait_ns: f64,
}

/// Derives the per-layer figures from a traced run's spans and requests.
///
/// `spans` must hold every host, manager and client span; `requests` the
/// clients' completed checks; `check_quorum` the policy's `C`.
pub fn summarise(spans: &mut [Span], requests: &[Request], check_quorum: usize) -> TraceSummary {
    use std::collections::{BTreeMap, HashMap};

    let mut out = TraceSummary::default();
    let checks = requests.len().max(1) as f64;

    let mut per_kind: BTreeMap<Kind, (u64, u64)> = BTreeMap::new();
    let (mut sends, mut emits, mut timer_ops, mut trace_bytes) = (0u64, 0u64, 0u64, 0u64);
    let (mut handler_calls, mut host_calls, mut manager_queries) = (0u64, 0u64, 0u64);
    for s in spans.iter() {
        let entry = per_kind.entry(s.kind).or_default();
        entry.0 += s.duration_ns();
        entry.1 += 1;
        out.busy_ns += s.duration_ns();
        if s.kind == Kind::Client {
            out.client_ns += s.duration_ns();
            continue;
        }
        handler_calls += 1;
        sends += s.sends as u64;
        emits += s.emits as u64;
        timer_ops += s.timer_ops as u64;
        trace_bytes += s.trace_bytes as u64;
        match s.kind {
            Kind::ManagerQuery => manager_queries += 1,
            Kind::HostInvoke | Kind::HostQueryReply | Kind::HostRevokeNotice => host_calls += 1,
            _ => {}
        }
    }
    out.self_ns = per_kind
        .into_iter()
        .map(|(k, (total, n))| (k, (total as f64 / n.max(1) as f64, n)))
        .collect();
    out.handler_calls_per_check = handler_calls as f64 / checks;
    out.host_calls_per_check = host_calls as f64 / checks;
    out.manager_queries_per_check = manager_queries as f64 / checks;
    // Each request is also one send by its client.
    out.sends_per_check = sends as f64 / checks + 1.0;
    out.emits_per_check = emits as f64 / checks;
    out.timer_ops_per_check = timer_ops as f64 / checks;
    out.trace_bytes_per_check = trace_bytes as f64 / checks;

    // Index the keyed spans so a request can find its own.
    spans.sort_unstable_by_key(|s| s.start_ns);
    let mut by_key: HashMap<(u32, u64), Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.user != 0 && s.kind != Kind::Client {
            by_key.entry((s.host, s.user)).or_default().push(i);
        }
    }

    let (mut hit_ns, mut hits, mut miss_ns, mut misses) = (0u64, 0u64, 0u64, 0u64);
    let mut unexplained = Vec::with_capacity(requests.len());
    let mut waits = Vec::with_capacity(requests.len());
    for r in requests {
        let Some(indexes) = by_key.get(&(r.host, r.user)) else {
            continue;
        };
        let lo = indexes.partition_point(|&i| spans[i].start_ns < r.sent_ns);
        let mine: Vec<&Span> = indexes[lo..]
            .iter()
            .map(|&i| &spans[i])
            .take_while(|s| s.start_ns < r.reply_ns)
            .collect();
        let Some(invoke) = mine.iter().find(|s| s.kind == Kind::HostInvoke) else {
            continue;
        };
        let children: Vec<(u64, u64)> = mine.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        waits.push(self_time_ns(r.sent_ns, r.reply_ns, &children) as f64);

        // The blocking path: client → host.Invoke, and on a miss →
        // the manager whose reply decided the check → that reply's
        // handler, → client. A grant needs `C` replies, a deny one.
        let replies: Vec<&&Span> = mine
            .iter()
            .filter(|s| s.kind == Kind::HostQueryReply)
            .collect();
        let mut path: Vec<&Span> = vec![invoke];
        if replies.is_empty() {
            hit_ns += invoke.duration_ns();
            hits += 1;
        } else {
            miss_ns += invoke.duration_ns();
            misses += 1;
            let need = if r.allowed { check_quorum } else { 1 };
            if let Some(decider) = replies.get(need - 1) {
                if let Some(query) = mine.iter().find(|s| {
                    s.kind == Kind::ManagerQuery
                        && s.node == decider.from
                        && s.end_ns <= decider.start_ns
                }) {
                    path.push(query);
                }
                path.push(decider);
            }
        }
        let mut explained = r.issuer_end_ns.saturating_sub(r.sent_ns);
        let mut last_end = r.issuer_end_ns;
        for s in &path {
            let hop = s.start_ns.saturating_sub(last_end);
            out.hop_wait.record(hop);
            explained += hop + s.duration_ns();
            last_end = s.end_ns;
        }
        let hop = r.reply_ns.saturating_sub(last_end);
        out.hop_wait.record(hop);
        explained += hop;
        let latency = (r.reply_ns - r.sent_ns).max(1) as f64;
        unexplained.push(1.0 - explained as f64 / latency);
    }
    out.host_hit_self_ns = hit_ns as f64 / hits.max(1) as f64;
    out.host_miss_self_ns = miss_ns as f64 / misses.max(1) as f64;
    if !unexplained.is_empty() {
        out.unexplained_frac = crate::stats::median(&unexplained);
        out.request_wait_ns = crate::stats::median(&waits);
    }
    out
}

/// Writes up to `limit` spans and requests as JSON, earliest first.
pub fn write_json(
    path: &std::path::Path,
    workload: &str,
    spans: &[Span],
    requests: &[Request],
    limit: usize,
) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        "{{\"workload\":\"{workload}\",\"spans_total\":{},\"requests_total\":{},\"spans\":[",
        spans.len(),
        requests.len()
    )?;
    for (i, s) in spans.iter().take(limit).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        writeln!(
            out,
            "{sep}{{\"name\":\"{}\",\"node\":{},\"from\":{},\"host\":{},\"user\":{},\
             \"start_ns\":{},\"end_ns\":{},\"sends\":{},\"emits\":{}}}",
            s.kind.name(),
            s.node,
            if s.from == u32::MAX {
                -1
            } else {
                i64::from(s.from)
            },
            s.host,
            s.user,
            s.start_ns,
            s.end_ns,
            s.sends,
            s.emits
        )?;
    }
    writeln!(out, "],\"requests\":[")?;
    for (i, r) in requests.iter().take(limit).enumerate() {
        let sep = if i == 0 { "" } else { "," };
        writeln!(
            out,
            "{sep}{{\"host\":{},\"user\":{},\"sent_ns\":{},\"reply_ns\":{},\"allowed\":{}}}",
            r.host, r.user, r.sent_ns, r.reply_ns, r.allowed
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // No children: all self.
        assert_eq!(self_time_ns(10, 110, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns(10, 110, &[(20, 30), (50, 70)]), 70);
        // Overlapping children count once; order does not matter.
        assert_eq!(self_time_ns(10, 110, &[(50, 70), (20, 60)]), 50);
        // Children reaching outside the parent are clipped.
        assert_eq!(self_time_ns(10, 110, &[(0, 20), (100, 200)]), 80);
        // A child covering everything leaves nothing.
        assert_eq!(self_time_ns(10, 110, &[(0, 500)]), 0);
        // A child wholly outside is ignored.
        assert_eq!(self_time_ns(10, 110, &[(200, 300)]), 100);
    }

    fn span(node: u32, kind: Kind, from: u32, host: u32, user: u64, start: u64, end: u64) -> Span {
        Span {
            node,
            kind,
            from,
            host,
            user,
            start_ns: start,
            end_ns: end,
            sends: 1,
            emits: 2,
            timer_ops: 0,
            trace_bytes: 0,
        }
    }

    #[test]
    fn summary_follows_the_blocking_path_of_hits_and_misses() {
        // Request A (host 9, user 1) is a cache hit; request B (host 9,
        // user 2) misses and is decided by the second of three replies.
        let mut spans = vec![
            span(9, Kind::HostInvoke, 3, 9, 1, 100, 150),
            span(9, Kind::HostInvoke, 3, 9, 2, 1_000, 1_100),
            span(0, Kind::ManagerQuery, 9, 9, 2, 1_200, 1_250),
            span(1, Kind::ManagerQuery, 9, 9, 2, 1_210, 1_280),
            span(2, Kind::ManagerQuery, 9, 9, 2, 1_220, 1_300),
            span(9, Kind::HostQueryReply, 0, 9, 2, 1_350, 1_400),
            span(9, Kind::HostQueryReply, 1, 9, 2, 1_400, 1_500),
            span(9, Kind::HostQueryReply, 2, 9, 2, 1_500, 1_520),
        ];
        let requests = [
            Request {
                host: 9,
                user: 1,
                sent_ns: 50,
                issuer_end_ns: 60,
                reply_ns: 250,
                allowed: true,
            },
            Request {
                host: 9,
                user: 2,
                sent_ns: 900,
                issuer_end_ns: 950,
                reply_ns: 1_600,
                allowed: true,
            },
        ];
        let s = summarise(&mut spans, &requests, 2);
        assert_eq!(s.host_hit_self_ns, 50.0);
        assert_eq!(s.host_miss_self_ns, 100.0);
        assert_eq!(s.manager_queries_per_check, 1.5);
        assert_eq!(s.handler_calls_per_check, 4.0);
        // Hops: A has 2; B has 4 (client→host, host→manager 1,
        // manager 1→host, host→client).
        assert_eq!(s.hop_wait.count(), 6);
        // The path tiles each request exactly.
        assert!(s.unexplained_frac.abs() < 1e-9, "{}", s.unexplained_frac);
        // A waits 200 − 50 outside handlers; B 700 − (100+100+170) = 330:
        // the three overlapping manager spans count once.
        assert_eq!(s.request_wait_ns, (150.0 + 330.0) / 2.0);
    }
}
