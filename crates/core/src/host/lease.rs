//! The host's leases (§3.2): each application's cache of granted rights,
//! held until `query_start + te` on the local clock, and the proactive
//! refresh of actively used ones (§2.3's "unless refreshed by a
//! manager").

use std::collections::BTreeMap;

use wanacl_sim::clock::LocalTime;
use wanacl_sim::metrics::MetricId as M;
use wanacl_sim::node::Context;
use wanacl_sim::time::SimDuration;

use crate::audit::AuditEvent;
use crate::cache::{AclCache, CacheDecision};
use crate::msg::ProtoMsg;
use crate::policy::Policy;
use crate::types::{AppId, UserId};

use super::check::PendingCheck;
use super::TAG_REFRESH;

#[derive(Debug)]
pub(super) struct Leases {
    caches: BTreeMap<AppId, AclCache>,
    /// Armed refresh timers: timer key → the lease it renews.
    refresh: BTreeMap<u64, (AppId, UserId)>,
    next_refresh: u64,
}

impl Leases {
    pub(super) fn new(apps: impl Iterator<Item = AppId>) -> Self {
        Leases { caches: apps.map(|app| (app, AclCache::new())).collect(), refresh: BTreeMap::new(), next_refresh: 0 }
    }

    /// Figure 3's lookup with expiry; `None` for an app not served here.
    pub(super) fn lookup(&mut self, app: AppId, user: UserId, now: LocalTime) -> Option<CacheDecision> {
        Some(self.caches.get_mut(&app)?.lookup(user, now))
    }

    pub(super) fn cache(&self, app: AppId) -> Option<&AclCache> {
        self.caches.get(&app)
    }

    pub(super) fn cache_mut(&mut self, app: AppId) -> Option<&mut AclCache> {
        self.caches.get_mut(&app)
    }

    /// Stores the lease `check`'s quorum granted: the smallest `te` among
    /// the grants, anchored at the attempt's start (the `δ` adjustment of
    /// §3.2). `touch` counts the grant as a use — a refresh renews
    /// without one, so idle leases stop being refreshed. Returns the
    /// limit; nothing is cached when no `te` is known.
    pub(super) fn store(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        policy: &Policy,
        check: &PendingCheck,
        touch: bool,
    ) -> Option<LocalTime> {
        let (app, user, started) = (check.app, check.user, check.attempt_started);
        let te = check.grants.values().copied().min().unwrap_or(SimDuration::ZERO);
        if te == SimDuration::ZERO {
            return None;
        }
        let limit = started.plus(te);
        ctx.trace_record(|| AuditEvent::CacheStore { app, user, started, limit, te });
        if let Some(cache) = self.caches.get_mut(&app) {
            cache.insert(user, limit);
            if touch {
                cache.touch(user, ctx.local_now());
            }
        }
        // A refresh `margin` before the limit, when the policy asks for
        // one and there is still time for it.
        let Some(margin) = policy.refresh_margin() else { return Some(limit) };
        let delay = limit.since(ctx.local_now()).saturating_sub(margin);
        if delay > SimDuration::ZERO {
            let key = self.next_refresh;
            self.next_refresh += 1;
            self.refresh.insert(key, (app, user));
            ctx.set_timer(delay, TAG_REFRESH | key);
        }
        Some(limit)
    }

    /// A refresh timer fired: the lease it renews, if that lease is still
    /// alive and its user was active during the lease term.
    pub(super) fn refresh_due(
        &mut self,
        ctx: &mut Context<'_, ProtoMsg>,
        key: u64,
        te_of: impl FnOnce(AppId) -> Option<SimDuration>,
    ) -> Option<(AppId, UserId)> {
        let (app, user) = self.refresh.remove(&key)?;
        let te = te_of(app)?;
        let cache = self.caches.get(&app)?;
        let now = ctx.local_now();
        if now >= cache.peek(user)? {
            return None; // already expired; a future request will re-check
        }
        if cache.last_used(user).is_none_or(|used| now.since(used) >= te) {
            ctx.metric_incr(M::HOST_REFRESH_SKIPPED_IDLE);
            return None;
        }
        ctx.metric_incr(M::HOST_REFRESH_STARTED);
        Some((app, user))
    }

    /// §3.4: the cache is volatile; recovery restarts from empty.
    pub(super) fn clear(&mut self) {
        self.caches.values_mut().for_each(AclCache::clear);
        self.refresh.clear();
    }
}
