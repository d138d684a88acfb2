//! The host-side ACL cache (`ACL_cache(A)` of Figures 2–3).
//!
//! Each entry is a `(user, limit)` tuple: the user's `use` right is
//! trusted until `limit` on the *host's local clock*. The limit is set to
//! `query_start + te` where `te = b·Te` came from a manager — the `δ`
//! adjustment of §3.2 (charging the whole round trip against the budget)
//! falls out of anchoring at query start rather than response receipt.

use std::collections::BTreeSet;

use wanacl_sim::clock::LocalTime;
use wanacl_sim::hash::FxHashMap;

use crate::types::UserId;

/// Result of a cache lookup at a given local time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheDecision {
    /// A live entry exists; valid until the contained limit.
    Fresh(LocalTime),
    /// An entry existed but its limit has passed; the lookup removed it
    /// (Figure 3: "the access control tuple is removed and the access is
    /// rechecked with a manager").
    Expired,
    /// No entry for this user.
    Missing,
}

/// One cached grant: the expiry limit plus when the entry last served a
/// request (drives the proactive-refresh policy: only leases that are
/// actually being used get renewed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    limit: LocalTime,
    last_used: LocalTime,
}

/// The per-application cache of granted rights held by a host.
///
/// # Examples
///
/// ```
/// use wanacl_core::cache::{AclCache, CacheDecision};
/// use wanacl_core::types::UserId;
/// use wanacl_sim::clock::LocalTime;
///
/// let mut cache = AclCache::new();
/// cache.insert(UserId(1), LocalTime::from_nanos(1_000));
/// assert!(matches!(
///     cache.lookup(UserId(1), LocalTime::from_nanos(500)),
///     CacheDecision::Fresh(_)
/// ));
/// assert_eq!(cache.lookup(UserId(1), LocalTime::from_nanos(1_000)), CacheDecision::Expired);
/// assert_eq!(cache.lookup(UserId(1), LocalTime::from_nanos(2_000)), CacheDecision::Missing);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AclCache {
    /// Point lookups only; the order `sweep` needs lives in `expiry`.
    entries: FxHashMap<UserId, Entry>,
    /// Expiry-ordered index of `(limit, user)` pairs. `sweep` pops only
    /// the pairs whose limit has passed instead of scanning every live
    /// entry. Pairs are invalidated lazily — an entry that was extended,
    /// removed, or re-created since its pair was written is re-validated
    /// against `entries` before removal — so the index never has to be
    /// updated on those paths.
    expiry: BTreeSet<(LocalTime, UserId)>,
    /// Fault-injection knob: when set, `lookup` treats expired entries as
    /// fresh and `sweep` drops nothing. This deliberately breaks the
    /// protocol's time-bound revocation guarantee so nemesis campaigns
    /// can prove the invariant oracle catches a real safety bug. Never
    /// set outside fault-injection harnesses.
    ignore_expiry: bool,
}

impl AclCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `user` at local time `now`, removing the entry if it has
    /// expired. A fresh hit also records `now` as the entry's last use.
    ///
    /// An entry whose limit equals `now` counts as expired: Figure 3
    /// grants only while `Time() < Rec.limit`.
    pub fn lookup(&mut self, user: UserId, now: LocalTime) -> CacheDecision {
        match self.entries.get_mut(&user) {
            Some(entry) if now < entry.limit || self.ignore_expiry => {
                entry.last_used = now;
                CacheDecision::Fresh(entry.limit)
            }
            Some(_) => {
                self.entries.remove(&user);
                CacheDecision::Expired
            }
            None => CacheDecision::Missing,
        }
    }

    /// Inserts (or refreshes) the entry for `user` valid until `limit`.
    ///
    /// A refresh never shortens an existing entry's life — a concurrent
    /// slower grant must not truncate a newer one.
    pub fn insert(&mut self, user: UserId, limit: LocalTime) {
        use std::collections::hash_map::Entry as Slot;
        match self.entries.entry(user) {
            Slot::Vacant(slot) => {
                slot.insert(Entry { limit, last_used: LocalTime::ZERO });
                self.expiry.insert((limit, user));
            }
            Slot::Occupied(mut slot) => {
                let entry = slot.get_mut();
                if limit > entry.limit {
                    // The old pair goes stale; sweep skips it because
                    // the entry's limit has moved past it.
                    entry.limit = limit;
                    self.expiry.insert((limit, user));
                }
            }
        }
    }

    /// Flushes the entry for `user` (the `Revoke` handler of Figures 2–3;
    /// removing a non-existent entry is a no-op).
    pub fn remove(&mut self, user: UserId) -> bool {
        self.entries.remove(&user).is_some()
    }

    /// Drops every entry (host recovery: §3.4 "ACL cache(A) can simply be
    /// initialized to null").
    pub fn clear(&mut self) {
        self.entries.clear();
        self.expiry.clear();
    }

    /// Removes all entries expired at `now`; returns how many were
    /// dropped. This is the §3.2 periodic check that "can save memory and
    /// processing overhead".
    ///
    /// Cost is proportional to the number of *due* index pairs, not the
    /// number of live entries: the expiry index orders entries by limit,
    /// so a sweep with nothing expired is one `BTreeSet` peek.
    pub fn sweep(&mut self, now: LocalTime) -> usize {
        if self.ignore_expiry {
            // Leave the index intact: if the injected bug is later
            // turned off, the overdue pairs are still there to sweep.
            return 0;
        }
        let mut dropped = 0;
        while let Some(&(limit, user)) = self.expiry.first() {
            if limit > now {
                break;
            }
            self.expiry.pop_first();
            // Re-validate: the entry may have been extended past this
            // pair, removed, or re-created since.
            if self.entries.get(&user).is_some_and(|e| now >= e.limit) {
                self.entries.remove(&user);
                dropped += 1;
            }
        }
        dropped
    }

    /// Number of live entries (including any that have expired but not
    /// yet been swept or looked up).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The stored limit for `user` without expiry side effects (for
    /// inspection in tests and experiments).
    pub fn peek(&self, user: UserId) -> Option<LocalTime> {
        self.entries.get(&user).map(|e| e.limit)
    }

    /// When the entry for `user` last served a request, if cached.
    pub fn last_used(&self, user: UserId) -> Option<LocalTime> {
        self.entries.get(&user).map(|e| e.last_used)
    }

    /// Enables (or disables) the deliberate ignore-expiry bug — a
    /// fault-injection hook for validating the invariant oracle. With it
    /// on, entries never expire from `lookup` or `sweep`, so a revoked
    /// right keeps being honoured far past the `Te` bound.
    pub fn set_ignore_expiry(&mut self, on: bool) {
        self.ignore_expiry = on;
    }

    /// Marks the entry as used at `now` without a lookup (the grant that
    /// creates an entry counts as a use; background refreshes do not).
    pub fn touch(&mut self, user: UserId, now: LocalTime) {
        if let Some(entry) = self.entries.get_mut(&user) {
            if now > entry.last_used {
                entry.last_used = now;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use proptest::prelude::*;

    use super::*;

    fn t(n: u64) -> LocalTime {
        LocalTime::from_nanos(n)
    }

    #[test]
    fn lookup_fresh_then_expired() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(100));
        assert_eq!(c.lookup(UserId(1), t(99)), CacheDecision::Fresh(t(100)));
        assert_eq!(c.lookup(UserId(1), t(100)), CacheDecision::Expired);
        // The expired lookup removed the entry.
        assert_eq!(c.lookup(UserId(1), t(100)), CacheDecision::Missing);
    }

    #[test]
    fn missing_user_is_missing() {
        let mut c = AclCache::new();
        assert_eq!(c.lookup(UserId(5), t(0)), CacheDecision::Missing);
    }

    #[test]
    fn insert_refresh_extends_but_never_shortens() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(100));
        c.insert(UserId(1), t(50));
        assert_eq!(c.peek(UserId(1)), Some(t(100)));
        c.insert(UserId(1), t(200));
        assert_eq!(c.peek(UserId(1)), Some(t(200)));
    }

    #[test]
    fn remove_is_noop_when_absent() {
        let mut c = AclCache::new();
        assert!(!c.remove(UserId(1)));
        c.insert(UserId(1), t(10));
        assert!(c.remove(UserId(1)));
        assert!(c.is_empty());
    }

    #[test]
    fn sweep_drops_only_expired() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(10));
        c.insert(UserId(2), t(20));
        c.insert(UserId(3), t(30));
        assert_eq!(c.sweep(t(20)), 2); // limits 10 and 20 are both dead at 20
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(UserId(3)), Some(t(30)));
    }

    #[test]
    fn clear_empties_cache() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(10));
        c.insert(UserId(2), t(10));
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn last_used_tracks_fresh_hits_only() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(100));
        assert_eq!(c.last_used(UserId(1)), Some(LocalTime::ZERO));
        c.lookup(UserId(1), t(40));
        assert_eq!(c.last_used(UserId(1)), Some(t(40)));
        // A refresh keeps the usage mark.
        c.insert(UserId(1), t(200));
        assert_eq!(c.last_used(UserId(1)), Some(t(40)));
        // Expired lookup removes the entry.
        c.lookup(UserId(1), t(300));
        assert_eq!(c.last_used(UserId(1)), None);
    }

    #[test]
    fn ignore_expiry_keeps_dead_entries_alive() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(100));
        c.set_ignore_expiry(true);
        assert_eq!(c.lookup(UserId(1), t(500)), CacheDecision::Fresh(t(100)));
        assert_eq!(c.sweep(t(500)), 0);
        c.set_ignore_expiry(false);
        assert_eq!(c.lookup(UserId(1), t(500)), CacheDecision::Expired);
    }

    #[test]
    fn sweep_skips_stale_buckets_from_extended_entries() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(10));
        c.insert(UserId(1), t(100)); // extension leaves a stale bucket at 10
        assert_eq!(c.sweep(t(50)), 0, "extended entry must survive its old bucket");
        assert_eq!(c.peek(UserId(1)), Some(t(100)));
        assert_eq!(c.sweep(t(100)), 1);
        assert!(c.is_empty());
    }

    #[test]
    fn sweep_skips_buckets_of_removed_and_recreated_entries() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(10));
        c.remove(UserId(1));
        assert_eq!(c.sweep(t(50)), 0, "removed entry leaves only a stale bucket");
        // Re-created with a later limit: the old bucket must not kill it.
        c.insert(UserId(2), t(20));
        c.lookup(UserId(2), t(30)); // expired lookup removes the entry
        c.insert(UserId(2), t(100));
        assert_eq!(c.sweep(t(40)), 0);
        assert_eq!(c.peek(UserId(2)), Some(t(100)));
    }

    #[test]
    fn sweep_drops_every_user_sharing_a_limit() {
        let mut c = AclCache::new();
        for user in 0..50 {
            c.insert(UserId(user), t(10));
        }
        c.insert(UserId(99), t(11));
        assert_eq!(c.sweep(t(9)), 0);
        assert_eq!(c.sweep(t(10)), 50, "all fifty leases end at the same instant");
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(UserId(99)), Some(t(11)));
        assert_eq!(c.sweep(t(10)), 0, "their index pairs went with them");
    }

    #[test]
    fn extended_entry_leaves_a_stale_index_pair_that_sweep_discards() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(10));
        c.insert(UserId(2), t(10));
        c.insert(UserId(1), t(100));
        c.insert(UserId(1), t(100)); // same limit again: no second pair
        c.insert(UserId(1), t(50)); // shorter: ignored, no pair
        assert_eq!(c.expiry.len(), 3, "(10,1) stale, (10,2), (100,1)");
        // The stale pair is due but its entry is not: only user 2 goes.
        assert_eq!(c.sweep(t(10)), 1);
        assert_eq!(c.peek(UserId(1)), Some(t(100)));
        assert_eq!(c.expiry.len(), 1, "the stale pair was popped, not kept");
        assert_eq!(c.sweep(t(100)), 1);
        assert!(c.is_empty() && c.expiry.is_empty());
    }

    #[test]
    fn sweep_after_ignore_expiry_disabled_still_drops_overdue_entries() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(10));
        c.set_ignore_expiry(true);
        assert_eq!(c.sweep(t(50)), 0);
        c.set_ignore_expiry(false);
        assert_eq!(c.sweep(t(50)), 1, "the overdue bucket must still be indexed");
    }

    #[test]
    fn entries_are_per_user() {
        let mut c = AclCache::new();
        c.insert(UserId(1), t(10));
        c.insert(UserId(2), t(100));
        assert_eq!(c.lookup(UserId(1), t(50)), CacheDecision::Expired);
        assert_eq!(c.lookup(UserId(2), t(50)), CacheDecision::Fresh(t(100)));
    }

    /// The cache as one B-tree from user id to `(limit, last_used)` that
    /// `sweep` scans whole: the reference the hashed table and its expiry
    /// index must match.
    #[derive(Default)]
    struct Model(BTreeMap<u64, (LocalTime, LocalTime)>);

    impl Model {
        fn lookup(&mut self, user: u64, now: LocalTime) -> CacheDecision {
            match self.0.get_mut(&user) {
                Some((limit, used)) if now < *limit => {
                    *used = now;
                    CacheDecision::Fresh(*limit)
                }
                Some(_) => {
                    self.0.remove(&user);
                    CacheDecision::Expired
                }
                None => CacheDecision::Missing,
            }
        }

        fn insert(&mut self, user: u64, limit: LocalTime) {
            let entry = self.0.entry(user).or_insert((limit, LocalTime::ZERO));
            entry.0 = entry.0.max(limit);
        }

        fn sweep(&mut self, now: LocalTime) -> usize {
            let before = self.0.len();
            self.0.retain(|_, (limit, _)| now < *limit);
            before - self.0.len()
        }
    }

    proptest! {
        #[test]
        fn cache_agrees_with_a_scanned_btree(
            ops in prop::collection::vec((0u8..6, 0u64..8, 0u64..60), 0..120),
        ) {
            let (mut cache, mut model) = (AclCache::new(), Model::default());
            for (kind, user, nanos) in ops {
                let (id, at) = (UserId(user), t(nanos));
                match kind {
                    0 | 1 => {
                        cache.insert(id, at);
                        model.insert(user, at);
                    }
                    2 => prop_assert_eq!(cache.lookup(id, at), model.lookup(user, at)),
                    3 => prop_assert_eq!(cache.remove(id), model.0.remove(&user).is_some()),
                    4 => {
                        cache.touch(id, at);
                        if let Some((_, used)) = model.0.get_mut(&user) {
                            *used = (*used).max(at);
                        }
                    }
                    _ => prop_assert_eq!(cache.sweep(at), model.sweep(at)),
                }
                prop_assert_eq!(cache.len(), model.0.len());
                for u in 0..8 {
                    let want = model.0.get(&u);
                    prop_assert_eq!(cache.peek(UserId(u)), want.map(|e| e.0));
                    prop_assert_eq!(cache.last_used(UserId(u)), want.map(|e| e.1));
                }
            }
        }
    }
}
