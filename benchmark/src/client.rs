//! The benchmark's own nodes: closed-loop clients that keep a fixed
//! window of signed invokes outstanding and judge every reply, and the
//! admin node that revokes and re-adds rights beside them.
//!
//! They run inside the runtime like any other node, so a reply reaches
//! them as an `InvokeReply` and is timestamped when its handler starts.
//! The hot path takes no lock and allocates nothing: slots, histogram and
//! the churn table are sized at construction.

use std::any::Any;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;

use wanacl_core::auth::rsa::Signature;
use wanacl_core::msg::{AdminStatus, InvokeOutcome, ProtoMsg, ReqId};
use wanacl_core::types::UserId;
use wanacl_sim::node::{Context, Node, NodeId};
use wanacl_sim::time::SimDuration;

use crate::gen::{AdminOps, ClientPool, Expect, PoolEntry, ADMIN_USER, APP, PAYLOAD};
use crate::stats::LogHist;
use crate::trace::{is_allowed, Kind, Request, Span};

/// A request unanswered this long is a failed operation. The data lane
/// drops on overflow, so a lost invoke or reply never completes; waiting
/// for it would hang the run.
pub const REQUEST_DEADLINE_NS: u64 = 1_000_000_000;
/// How often a node looks for requests past their deadline.
const SCAN_INTERVAL: SimDuration = SimDuration::from_millis(100);
const TAG_SCAN: u64 = 1;
const NO_SLOT: u8 = u8::MAX;

/// Why operations failed, counted per slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// No reply within the deadline.
    pub timeouts: u64,
    /// `Unavailable` or `BadSignature`: the deployment could not answer.
    pub unanswered: u64,
    /// A verdict that contradicts the harness's ACL model.
    pub wrong_verdicts: u64,
    /// An allow for a request sent later than `Te` after a stable revoke.
    pub late_allows: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.timeouts + self.unanswered + self.wrong_verdicts + self.late_allows
    }

    pub fn add(&mut self, other: &Failures) {
        self.timeouts += other.timeouts;
        self.unanswered += other.unanswered;
        self.wrong_verdicts += other.wrong_verdicts;
        self.late_allows += other.late_allows;
    }
}

/// The first reply a client could not accept, kept to be printed.
#[derive(Debug, Clone)]
pub struct Offence {
    pub entry: PoolEntry,
    pub got: String,
}

/// What a client tells the main thread when its slice is done.
#[derive(Debug)]
pub struct SliceReport {
    pub ended: Instant,
    pub attempted: u64,
    pub failures: Failures,
    /// Replies that arrived after their request had been given up on.
    pub strays: u64,
    pub latency: Box<LogHist>,
    pub offence: Option<Offence>,
}

/// Set by the main thread before it kicks a client: which part of the
/// pool to walk and how many requests to complete.
#[derive(Debug, Default)]
pub struct SliceCtl {
    pub quota: AtomicU64,
    pub lo: AtomicU64,
    pub hi: AtomicU64,
}

/// What clients and the admin node share about the users under churn.
/// All times are nanoseconds since the deployment's epoch; every field is
/// a plain statistic that publishes no other data, hence `Relaxed`.
#[derive(Debug)]
pub struct ChurnTable {
    /// When the user's latest revoke became stable; 0 while the user is
    /// granted or an add is under way.
    revoked_stable_ns: Vec<AtomicU64>,
    /// When a client last saw an allow for the user.
    last_allowed_ns: Vec<AtomicU64>,
    /// Allows for requests sent after a stable revoke but within `Te`:
    /// legal (a lease that outlived its revoke notice), and rare.
    pub allows_after_stable: AtomicU64,
    pub te_ns: u64,
}

impl ChurnTable {
    pub fn new(users: usize, te_ns: u64) -> Self {
        ChurnTable {
            revoked_stable_ns: (0..users).map(|_| AtomicU64::new(0)).collect(),
            last_allowed_ns: (0..users).map(|_| AtomicU64::new(0)).collect(),
            allows_after_stable: AtomicU64::new(0),
            te_ns,
        }
    }

    /// Records an allow and says whether the protocol's bound forbids it.
    fn allow_is_late(&self, churn_index: u8, sent_ns: u64, now_ns: u64) -> bool {
        let i = churn_index as usize;
        self.last_allowed_ns[i].store(now_ns, Ordering::Relaxed);
        let stable = self.revoked_stable_ns[i].load(Ordering::Relaxed);
        if stable == 0 || sent_ns <= stable {
            return false;
        }
        self.allows_after_stable.fetch_add(1, Ordering::Relaxed);
        sent_ns > stable + self.te_ns
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    entry: u32,
    sent_ns: u64,
    issuer_end_ns: u64,
}

/// Per-client trace state, present only in a traced run.
#[derive(Debug)]
pub struct ClientTrace {
    /// One bit per `(host, user)` pair of this client: set while a check
    /// for the pair is in flight, so a span's key names one request.
    busy: Vec<u64>,
    host_base: usize,
    users: usize,
    pub spans: Vec<Span>,
    pub requests: Vec<Request>,
    issued_now: Vec<u8>,
}

impl ClientTrace {
    pub fn new(host_base: usize, hosts: usize, users: usize, capacity: usize) -> Self {
        ClientTrace {
            busy: vec![0; (hosts * users).div_ceil(64)],
            host_base,
            users,
            spans: Vec::with_capacity(capacity),
            requests: Vec::with_capacity(capacity),
            issued_now: Vec::with_capacity(256),
        }
    }

    fn bit(&self, e: &PoolEntry) -> (usize, u64) {
        let i = (e.host as usize - self.host_base) * self.users + (e.user as usize - 1);
        (i / 64, 1 << (i % 64))
    }
}

/// A closed-loop client: holds `window` invokes outstanding until its
/// slice quota is answered or failed, then reports.
pub struct Client {
    hosts: Arc<[NodeId]>,
    pool: ClientPool,
    req_base: u64,
    payload: Arc<str>,
    ctl: Arc<SliceCtl>,
    churn: Option<Arc<ChurnTable>>,
    report: Sender<SliceReport>,
    epoch: Instant,
    window: usize,

    active: bool,
    scan_armed: bool,
    lo: usize,
    hi: usize,
    next: usize,
    to_issue: u64,
    attempted: u64,
    slots: Vec<Slot>,
    free: Vec<u8>,
    slot_of: Vec<u8>,
    latency: LogHist,
    failures: Failures,
    strays: u64,
    offence: Option<Offence>,
    pub trace: Option<ClientTrace>,
    ticks: Option<AdminTicks>,
    /// Requests completed and ticks sent since the node started.
    completed: u64,
    ticks_sent: u64,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("req_base", &self.req_base)
            .finish_non_exhaustive()
    }
}

/// What a [`Client`] is built from.
pub struct ClientConfig {
    pub hosts: Arc<[NodeId]>,
    pub pool: ClientPool,
    pub req_base: u64,
    pub window: usize,
    pub ctl: Arc<SliceCtl>,
    pub churn: Option<Arc<ChurnTable>>,
    pub report: Sender<SliceReport>,
    pub epoch: Instant,
    pub trace: Option<ClientTrace>,
    pub ticks: Option<AdminTicks>,
}

/// How a client paces the admin node: one tick to `admin` for every
/// `every` requests it completes, the first after `every - phase`.
#[derive(Debug, Clone, Copy)]
pub struct AdminTicks {
    pub admin: NodeId,
    pub every: u64,
    pub phase: u64,
}

impl Client {
    pub fn new(config: ClientConfig) -> Self {
        assert!(
            config.window < NO_SLOT as usize,
            "window must fit a slot byte"
        );
        let entries = config.pool.entries.len();
        Client {
            hosts: config.hosts,
            pool: config.pool,
            req_base: config.req_base,
            payload: PAYLOAD.into(),
            ctl: config.ctl,
            churn: config.churn,
            report: config.report,
            epoch: config.epoch,
            window: config.window,
            active: false,
            scan_armed: false,
            lo: 0,
            hi: 0,
            next: 0,
            to_issue: 0,
            attempted: 0,
            slots: vec![Slot::default(); config.window],
            free: Vec::with_capacity(config.window),
            slot_of: vec![NO_SLOT; entries],
            latency: LogHist::default(),
            failures: Failures::default(),
            strays: 0,
            offence: None,
            trace: config.trace,
            ticks: config.ticks,
            completed: 0,
            ticks_sent: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The pool index a request id was issued from, if it is ours.
    fn entry_of(&self, req: ReqId) -> Option<usize> {
        let index = self.pool.index_of(req.0.checked_sub(self.req_base)?);
        (self.pool.entries.get(index)?.req == req.0).then_some(index)
    }

    fn begin_slice(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.active {
            return;
        }
        self.active = true;
        self.lo = self.ctl.lo.load(Ordering::SeqCst) as usize;
        self.hi = self.ctl.hi.load(Ordering::SeqCst) as usize;
        self.to_issue = self.ctl.quota.load(Ordering::SeqCst);
        if !(self.lo..self.hi).contains(&self.next) {
            self.next = self.lo;
        }
        self.attempted = 0;
        self.failures = Failures::default();
        self.strays = 0;
        self.latency.clear();
        self.free.clear();
        self.free.extend((0..self.window as u8).rev());
        if !self.scan_armed {
            self.scan_armed = true;
            ctx.set_timer(SCAN_INTERVAL, TAG_SCAN);
        }
        self.fill(ctx);
    }

    /// Issues requests until the window is full or the quota is spent.
    fn fill(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        while self.to_issue > 0 && !self.free.is_empty() {
            // In a traced run skip entries whose pair is in flight; a
            // handful of tries always finds a free one unless the whole
            // window sits on them, in which case a reply will refill.
            let mut index = None;
            for _ in 0..16 {
                let candidate = self.next;
                self.next = if self.next + 1 >= self.hi {
                    self.lo
                } else {
                    self.next + 1
                };
                if self.slot_of[candidate] != NO_SLOT {
                    continue;
                }
                if let Some(trace) = &mut self.trace {
                    let (word, bit) = trace.bit(&self.pool.entries[candidate]);
                    if trace.busy[word] & bit != 0 {
                        continue;
                    }
                    trace.busy[word] |= bit;
                }
                index = Some(candidate);
                break;
            }
            let Some(index) = index else { break };
            let entry = self.pool.entries[index];
            let slot = self.free.pop().expect("checked non-empty");
            self.slot_of[index] = slot;
            self.slots[slot as usize] = Slot {
                entry: index as u32,
                sent_ns: self.now_ns(),
                issuer_end_ns: 0,
            };
            if let Some(trace) = &mut self.trace {
                trace.issued_now.push(slot);
            }
            self.to_issue -= 1;
            self.attempted += 1;
            ctx.send(
                self.hosts[entry.host as usize],
                ProtoMsg::Invoke {
                    app: APP,
                    user: UserId(entry.user),
                    req: ReqId(entry.req),
                    payload: self.payload.clone(),
                    signature: Some(Signature(entry.sig)),
                },
            );
        }
        if self.to_issue == 0 && self.free.len() == self.window {
            self.finish_slice();
        }
    }

    fn finish_slice(&mut self) {
        self.active = false;
        // The main thread may have gone (watchdog); nothing to do then.
        let _ = self.report.send(SliceReport {
            ended: Instant::now(),
            attempted: self.attempted,
            failures: self.failures,
            strays: self.strays,
            latency: Box::new(self.latency.clone()),
            offence: self.offence.take(),
        });
    }

    /// Frees a request's slot (and its pair, when traced).
    fn release(&mut self, slot: u8) -> (PoolEntry, Slot) {
        let state = self.slots[slot as usize];
        let entry = self.pool.entries[state.entry as usize];
        self.slot_of[state.entry as usize] = NO_SLOT;
        self.free.push(slot);
        self.completed += 1;
        if let Some(trace) = &mut self.trace {
            let (word, bit) = trace.bit(&entry);
            trace.busy[word] &= !bit;
        }
        (entry, state)
    }

    fn on_reply(&mut self, now_ns: u64, req: ReqId, outcome: &InvokeOutcome) {
        let slot = match self.entry_of(req).map(|i| self.slot_of[i]) {
            Some(slot) if slot != NO_SLOT => slot,
            _ => {
                self.strays += 1;
                return;
            }
        };
        let (entry, state) = self.release(slot);
        self.latency.record(now_ns - state.sent_ns);
        let allowed = is_allowed(outcome);
        let verdict_ok = match (entry.expect, outcome) {
            (_, InvokeOutcome::Unavailable | InvokeOutcome::BadSignature) => {
                self.failures.unanswered += 1;
                false
            }
            (Expect::Allow, InvokeOutcome::Denied)
            | (Expect::Deny, InvokeOutcome::Allowed { .. }) => {
                self.failures.wrong_verdicts += 1;
                false
            }
            (Expect::Churn(k), InvokeOutcome::Allowed { .. }) => {
                let late = self
                    .churn
                    .as_ref()
                    .is_some_and(|churn| churn.allow_is_late(k, state.sent_ns, now_ns));
                if late {
                    self.failures.late_allows += 1;
                }
                !late
            }
            _ => true,
        };
        if !verdict_ok && self.offence.is_none() {
            self.offence = Some(Offence {
                entry,
                got: format!("{outcome:?}"),
            });
        }
        if let Some(trace) = &mut self.trace {
            trace.requests.push(Request {
                host: self.hosts[entry.host as usize].index() as u32,
                user: entry.user,
                sent_ns: state.sent_ns,
                issuer_end_ns: state.issuer_end_ns,
                reply_ns: now_ns,
                allowed,
            });
        }
    }

    fn scan_deadlines(&mut self, now_ns: u64) {
        for slot in 0..self.window as u8 {
            let state = self.slots[slot as usize];
            let in_flight = self.slot_of.get(state.entry as usize) == Some(&slot);
            if in_flight && now_ns.saturating_sub(state.sent_ns) > REQUEST_DEADLINE_NS {
                let (entry, _) = self.release(slot);
                self.failures.timeouts += 1;
                if self.offence.is_none() {
                    self.offence = Some(Offence {
                        entry,
                        got: "no reply within 1 s".into(),
                    });
                }
            }
        }
    }

    /// Sends the admin node the ticks the completed requests have earned,
    /// then closes the handler's span in a traced run.
    fn end_handler(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, start_ns: u64) {
        if let Some(AdminTicks {
            admin,
            every,
            phase,
        }) = self.ticks
        {
            while self.ticks_sent < (self.completed + phase) / every {
                self.ticks_sent += 1;
                ctx.send(admin, ProtoMsg::Heartbeat);
            }
        }
        if self.trace.is_none() {
            return;
        }
        let me = ctx.id();
        let end_ns = self.now_ns();
        let Some(trace) = &mut self.trace else { return };
        for slot in trace.issued_now.drain(..) {
            self.slots[slot as usize].issuer_end_ns = end_ns;
        }
        trace.spans.push(Span {
            node: me.index() as u32,
            kind: Kind::Client,
            from: from.index() as u32,
            host: 0,
            user: 0,
            start_ns,
            end_ns,
            sends: 0,
            emits: 0,
            timer_ops: 0,
            trace_bytes: 0,
        });
    }
}

impl Node for Client {
    type Msg = ProtoMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        let now_ns = self.now_ns();
        match msg {
            ProtoMsg::InvokeReply { req, outcome } => {
                self.on_reply(now_ns, req, &outcome);
                if self.active {
                    self.fill(ctx);
                }
            }
            // The main thread's kick: start the slice it has described.
            ProtoMsg::Heartbeat if from == NodeId::ENV => self.begin_slice(ctx),
            _ => {}
        }
        self.end_handler(ctx, from, now_ns);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        if tag != TAG_SCAN {
            return;
        }
        let now_ns = self.now_ns();
        self.scan_armed = self.active;
        if self.active {
            ctx.set_timer(SCAN_INTERVAL, TAG_SCAN);
            self.scan_deadlines(now_ns);
            self.fill(ctx);
        }
        self.end_handler(ctx, NodeId::ENV, now_ns);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// What the admin node tells the main thread when it has paused.
#[derive(Debug)]
pub struct AdminReport {
    pub attempted: u64,
    pub failed: u64,
    /// `Revoke` sent → `Stable` received.
    pub revoke_stable: Box<LogHist>,
}

/// Whether the admin node should be working; cleared by the main thread
/// at the end of a slice, followed by a kick.
#[derive(Debug, Default)]
pub struct AdminCtl {
    pub run: AtomicBool,
}

/// The operation in flight, if any.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Idle,
    /// Waiting for `Stable` on a revoke of churn user `k`.
    Revoking(usize),
    /// Waiting for `Stable` on the re-add of churn user `k`.
    Adding(usize),
}

/// One admin principal at concurrency 1, paced by the readers: every
/// tick a client sends (one per [`LiveWorkload::reads_per_admin_op`]
/// reads, see `live.rs`) buys one operation, alternately the `Revoke` of
/// the next churn user and its re-`Add`. A slice of fixed reads therefore
/// holds a fixed number of admin operations however fast the machine or
/// its disk is; ticks that arrive while an operation is in flight are
/// served as soon as it is `Stable`, and all of them before the slice's
/// report.
///
/// One churn user, [`PARKED_USER`], is kept out of that cycle and on the
/// clock instead, because the bound it shows, `Te`, is wall time: it
/// stays revoked except for [`PARK_GRANTED_NS`] in every
/// [`PARK_PERIOD_NS`], so a standing revoke lasts well past `Te` and
/// every re-grant and revoke samples the revocation window. Revoked is
/// its normal state so that all but a twentieth of the slices see the
/// same mix of hits and denials.
pub struct Admin {
    managers: Vec<NodeId>,
    ops: Vec<AdminOps>,
    churn: Arc<ChurnTable>,
    ctl: Arc<AdminCtl>,
    report: Sender<AdminReport>,
    epoch: Instant,

    step: Step,
    scan_armed: bool,
    /// Whether a report is owed for the slice under way.
    in_slice: bool,
    /// Ticks not yet turned into operations.
    pending: u64,
    /// The cycle's user currently revoked, re-added by the next tick.
    revoked: Option<usize>,
    cycle: u64,
    next_req: u64,
    sent_ns: u64,
    /// When the parked user's standing revoke was sent, while it stands.
    parked_since_ns: Option<u64>,
    /// When the parked user next changes state.
    park_flip_ns: u64,
    attempted: u64,
    failed: u64,
    revoke_stable: LogHist,
    /// `Revoke` sent → last allow a client saw, one sample per standing
    /// revoke of the parked user, over the node's whole life: they come
    /// once in [`PARK_PERIOD_NS`], too rarely to report by slice.
    pub window: LogHist,
}

/// Churn-set index of the user whose revoke is left standing: the
/// eighth most popular, read often enough to sample the window finely.
pub const PARKED_USER: usize = 7;
/// The parked user's cycle, and the part of it spent granted.
pub const PARK_PERIOD_NS: u64 = 1_300_000_000;
pub const PARK_GRANTED_NS: u64 = 100_000_000;

impl std::fmt::Debug for Admin {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Admin")
            .field("cycle", &self.cycle)
            .finish_non_exhaustive()
    }
}

impl Admin {
    pub fn new(
        managers: Vec<NodeId>,
        ops: Vec<AdminOps>,
        churn: Arc<ChurnTable>,
        ctl: Arc<AdminCtl>,
        report: Sender<AdminReport>,
        epoch: Instant,
    ) -> Self {
        Admin {
            managers,
            ops,
            churn,
            ctl,
            report,
            epoch,
            step: Step::Idle,
            scan_armed: false,
            in_slice: false,
            pending: 0,
            revoked: None,
            cycle: 0,
            next_req: 0,
            sent_ns: 0,
            parked_since_ns: None,
            park_flip_ns: 0,
            attempted: 0,
            failed: 0,
            revoke_stable: LogHist::default(),
            window: LogHist::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Whether one user is kept parked (the churn set is large enough).
    fn parks(&self) -> bool {
        self.ops.len() > PARKED_USER + 1
    }

    fn send_op(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        (op, sig): (wanacl_core::msg::AclOp, u64),
    ) {
        self.next_req += 1;
        self.attempted += 1;
        self.sent_ns = self.now_ns();
        let manager = self.managers[(self.next_req % self.managers.len() as u64) as usize];
        ctx.send(
            manager,
            ProtoMsg::Admin {
                op,
                req: ReqId(self.next_req),
                issuer: ADMIN_USER,
                signature: Some(Signature(sig)),
            },
        );
    }

    fn send_revoke(&mut self, ctx: &mut Context<'_, ProtoMsg>, user: usize) {
        self.step = Step::Revoking(user);
        self.send_op(ctx, self.ops[user].revoke);
    }

    fn send_add(&mut self, ctx: &mut Context<'_, ProtoMsg>, user: usize) {
        // Cleared before the add leaves: from here on an allow is legal.
        self.churn.revoked_stable_ns[user].store(0, Ordering::Relaxed);
        self.step = Step::Adding(user);
        self.send_op(ctx, self.ops[user].add);
    }

    /// With nothing in flight: starts the next operation that is due, or
    /// waits for a tick, or — once the slice is over and every tick is
    /// served — reports. A tick that overtakes its slice's last report
    /// waits for the next slice, so nothing runs between slices.
    fn advance(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        debug_assert_eq!(self.step, Step::Idle);
        let running = self.ctl.run.load(Ordering::SeqCst);
        let now_ns = self.now_ns();
        if running && self.parks() && now_ns >= self.park_flip_ns {
            match self.parked_since_ns.take() {
                Some(revoke_sent_ns) => {
                    // No allow since the revoke left (the deployment's
                    // first, sent before any read) is no sample.
                    let last = self.churn.last_allowed_ns[PARKED_USER].load(Ordering::Relaxed);
                    if last > revoke_sent_ns {
                        self.window.record(last - revoke_sent_ns);
                    }
                    self.park_flip_ns = now_ns + PARK_GRANTED_NS;
                    self.send_add(ctx, PARKED_USER);
                }
                None => {
                    self.parked_since_ns = Some(now_ns);
                    self.park_flip_ns = now_ns + PARK_PERIOD_NS - PARK_GRANTED_NS;
                    self.send_revoke(ctx, PARKED_USER);
                }
            }
        } else if self.pending > 0 && self.in_slice {
            self.pending -= 1;
            match self.revoked.take() {
                Some(user) => self.send_add(ctx, user),
                None => {
                    self.cycle += 1;
                    let mut user = (self.cycle % self.ops.len() as u64) as usize;
                    if user == PARKED_USER && self.parks() {
                        self.cycle += 1;
                        user += 1;
                    }
                    self.send_revoke(ctx, user);
                }
            }
        } else if !running && self.in_slice {
            self.in_slice = false;
            // The main thread may have gone (watchdog); nothing to do then.
            let _ = self.report.send(AdminReport {
                attempted: std::mem::take(&mut self.attempted),
                failed: std::mem::take(&mut self.failed),
                revoke_stable: Box::new(std::mem::take(&mut self.revoke_stable)),
            });
        }
    }

    fn on_stable(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let now_ns = self.now_ns();
        match std::mem::replace(&mut self.step, Step::Idle) {
            Step::Revoking(user) => {
                self.revoke_stable.record(now_ns - self.sent_ns);
                self.churn.revoked_stable_ns[user].store(now_ns, Ordering::Relaxed);
                if !(user == PARKED_USER && self.parks()) {
                    self.revoked = Some(user);
                }
            }
            Step::Adding(_) => {}
            Step::Idle => return,
        }
        self.advance(ctx);
    }
}

impl Node for Admin {
    type Msg = ProtoMsg;

    fn on_message(&mut self, ctx: &mut Context<'_, ProtoMsg>, from: NodeId, msg: ProtoMsg) {
        match msg {
            // The main thread's kick, at the start and the end of a slice.
            ProtoMsg::Heartbeat if from == NodeId::ENV => {
                if self.ctl.run.load(Ordering::SeqCst) {
                    self.in_slice = true;
                    if !self.scan_armed {
                        self.scan_armed = true;
                        ctx.set_timer(SCAN_INTERVAL, TAG_SCAN);
                    }
                }
                if self.step == Step::Idle {
                    self.advance(ctx);
                }
            }
            // A client's tick.
            ProtoMsg::Heartbeat => {
                self.pending += 1;
                if self.step == Step::Idle {
                    self.advance(ctx);
                }
            }
            ProtoMsg::AdminReply { req, status } if req.0 == self.next_req => match status {
                AdminStatus::Applied => {}
                AdminStatus::Stable => self.on_stable(ctx),
                AdminStatus::Rejected { .. } => {
                    if self.step != Step::Idle {
                        self.failed += 1;
                        self.step = Step::Idle;
                        self.advance(ctx);
                    }
                }
            },
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, ProtoMsg>, tag: u64) {
        if tag != TAG_SCAN {
            return;
        }
        self.scan_armed = self.in_slice;
        if self.scan_armed {
            ctx.set_timer(SCAN_INTERVAL, TAG_SCAN);
        }
        if self.step != Step::Idle && self.now_ns() - self.sent_ns > REQUEST_DEADLINE_NS {
            // Give the operation up; its late `Stable` no longer matches
            // `next_req` once the next one is sent.
            self.failed += 1;
            self.step = Step::Idle;
            self.advance(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
