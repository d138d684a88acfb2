//! Domain types: applications, users, rights, and the authoritative ACL.
//!
//! §2.1 of the paper: each distributed application `A` has `Hosts(A)`,
//! `Users(A)` (holders of the *use* right), and `Managers(A)` (holders of
//! the *manage* right). Only two right kinds exist: `use` and `manage`.

use wanacl_auth::signed::{AuthEncode, AuthSink};
use wanacl_sim::hash::FxHashMap;
use wanacl_sim::metrics::MetricId;

/// Identifies a distributed application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AppId(pub u32);

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "app{}", self.0)
    }
}

impl AuthEncode for AppId {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(&self.0.to_be_bytes());
    }
}

/// Identifies a user. Doubles as the user's
/// [`wanacl_auth::signed::PrincipalId`] in the key registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u64);

impl std::fmt::Display for UserId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "u{}", self.0)
    }
}

impl AuthEncode for UserId {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(&self.0.to_be_bytes());
    }
}

impl From<UserId> for wanacl_auth::signed::PrincipalId {
    fn from(u: UserId) -> Self {
        wanacl_auth::signed::PrincipalId(u.0)
    }
}

/// Identifies one shard of the partitioned ACL keyspace. Shard ids are
/// global across applications (assigned by the scenario builder), so a
/// manager can own shards of several tenants without ambiguity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl ShardId {
    /// This shard's row of a per-shard metric family: ids 0–7 have a
    /// handle each, larger ones share the table's last (`shard.other.*`).
    pub(crate) fn metric(self, family: &[MetricId; 9]) -> MetricId {
        family[(self.0 as usize).min(8)]
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// A running 64-bit FNV-1a digest, as a sink for canonical bytes: each
/// byte is folded in with one multiply, in order. `Default` is the
/// offset basis, the digest of no bytes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv1a(pub(crate) u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl AuthSink for Fnv1a {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Hashes a user into the 256-slot bucket space shards partition.
///
/// FNV-1a over the big-endian user id, folded to the low byte. The
/// function is pure (no per-run salt): a user's bucket — and therefore
/// its owning shard under a given map — is the same in every world, so
/// replayed counterexamples route identically.
pub fn user_bucket(user: UserId) -> u8 {
    let mut hash = Fnv1a::default();
    user.auth_encode(&mut hash);
    (hash.0 & 0xff) as u8
}

/// The two access-right kinds of §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Right {
    /// May send messages to (invoke) the application.
    Use,
    /// May change the access rights associated with the application.
    Manage,
}

impl std::fmt::Display for Right {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Right::Use => write!(f, "use"),
            Right::Manage => write!(f, "manage"),
        }
    }
}

impl AuthEncode for Right {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(&[match self {
            Right::Use => 0,
            Right::Manage => 1,
        }]);
    }
}

/// The rights one user holds on one application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RightsSet {
    use_right: bool,
    manage_right: bool,
}

impl RightsSet {
    /// No rights at all.
    pub const EMPTY: RightsSet = RightsSet { use_right: false, manage_right: false };

    /// Whether the given right is held.
    pub fn has(&self, right: Right) -> bool {
        match right {
            Right::Use => self.use_right,
            Right::Manage => self.manage_right,
        }
    }

    /// Adds a right (idempotent).
    pub fn grant(&mut self, right: Right) {
        match right {
            Right::Use => self.use_right = true,
            Right::Manage => self.manage_right = true,
        }
    }

    /// Removes a right (idempotent).
    pub fn revoke(&mut self, right: Right) {
        match right {
            Right::Use => self.use_right = false,
            Right::Manage => self.manage_right = false,
        }
    }

    /// Whether no rights remain.
    pub fn is_empty(&self) -> bool {
        !self.use_right && !self.manage_right
    }
}

/// The authoritative access-control list for one application, as held by a
/// manager (§3.1: "only the managers of a given application maintain
/// complete access control information").
///
/// # Examples
///
/// ```
/// use wanacl_core::types::{Acl, Right, UserId};
///
/// let mut acl = Acl::new();
/// acl.add(UserId(1), Right::Use);
/// assert!(acl.has(UserId(1), Right::Use));
/// assert!(!acl.has(UserId(1), Right::Manage));
/// acl.revoke(UserId(1), Right::Use);
/// assert!(!acl.has(UserId(1), Right::Use));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Acl {
    /// Point lookups only: nothing walks the list, so it has no order.
    entries: FxHashMap<UserId, RightsSet>,
}

impl Acl {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grants `right` to `user` (idempotent).
    pub fn add(&mut self, user: UserId, right: Right) {
        self.entries.entry(user).or_default().grant(right);
    }

    /// Revokes `right` from `user`; removing a non-existent right is a
    /// no-op, as §2.3 specifies.
    pub fn revoke(&mut self, user: UserId, right: Right) {
        if let Some(set) = self.entries.get_mut(&user) {
            set.revoke(right);
            if set.is_empty() {
                self.entries.remove(&user);
            }
        }
    }

    /// Whether `user` currently holds `right`.
    pub fn has(&self, user: UserId, right: Right) -> bool {
        self.entries.get(&user).map(|s| s.has(right)).unwrap_or(false)
    }

    /// Number of users holding any right.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no user holds any right.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(UserId, Right)> for Acl {
    fn from_iter<I: IntoIterator<Item = (UserId, Right)>>(iter: I) -> Self {
        let mut acl = Acl::new();
        for (u, r) in iter {
            acl.add(u, r);
        }
        acl
    }
}

impl Extend<(UserId, Right)> for Acl {
    fn extend<I: IntoIterator<Item = (UserId, Right)>>(&mut self, iter: I) {
        for (u, r) in iter {
            self.add(u, r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rights_set_grant_revoke() {
        let mut s = RightsSet::EMPTY;
        assert!(s.is_empty());
        s.grant(Right::Use);
        assert!(s.has(Right::Use));
        assert!(!s.has(Right::Manage));
        s.grant(Right::Manage);
        s.revoke(Right::Use);
        assert!(!s.has(Right::Use));
        assert!(s.has(Right::Manage));
        s.revoke(Right::Manage);
        assert!(s.is_empty());
    }

    #[test]
    fn acl_add_is_idempotent() {
        let mut acl = Acl::new();
        acl.add(UserId(1), Right::Use);
        acl.add(UserId(1), Right::Use);
        assert_eq!(acl.len(), 1);
        assert!(acl.has(UserId(1), Right::Use));
    }

    #[test]
    fn revoking_missing_right_is_noop() {
        let mut acl = Acl::new();
        acl.revoke(UserId(9), Right::Use);
        assert!(acl.is_empty());
        acl.add(UserId(9), Right::Manage);
        acl.revoke(UserId(9), Right::Use);
        assert!(acl.has(UserId(9), Right::Manage));
    }

    #[test]
    fn empty_entries_are_garbage_collected() {
        let mut acl = Acl::new();
        acl.add(UserId(1), Right::Use);
        acl.revoke(UserId(1), Right::Use);
        assert!(acl.is_empty());
    }

    #[test]
    fn collect_grants_each_pair_and_no_other_right() {
        let acl: Acl = [
            (UserId(1), Right::Use),
            (UserId(2), Right::Manage),
            (UserId(3), Right::Use),
        ]
        .into_iter()
        .collect();
        assert_eq!(acl.len(), 3);
        assert!(acl.has(UserId(1), Right::Use) && !acl.has(UserId(1), Right::Manage));
        assert!(acl.has(UserId(2), Right::Manage) && !acl.has(UserId(2), Right::Use));
        assert!(acl.has(UserId(3), Right::Use) && !acl.has(UserId(3), Right::Manage));
        assert!(!acl.has(UserId(4), Right::Use));
    }

    #[test]
    fn extend_merges_entries() {
        let mut acl = Acl::new();
        acl.extend([(UserId(1), Right::Use), (UserId(1), Right::Manage)]);
        assert!(acl.has(UserId(1), Right::Use));
        assert!(acl.has(UserId(1), Right::Manage));
        assert_eq!(acl.len(), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(AppId(3).to_string(), "app3");
        assert_eq!(UserId(4).to_string(), "u4");
        assert_eq!(Right::Use.to_string(), "use");
        assert_eq!(Right::Manage.to_string(), "manage");
    }

    #[test]
    fn auth_encoding_distinguishes_rights() {
        let mut a = Vec::new();
        Right::Use.auth_encode(&mut a);
        let mut b = Vec::new();
        Right::Manage.auth_encode(&mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn user_id_converts_to_principal() {
        let p: wanacl_auth::signed::PrincipalId = UserId(77).into();
        assert_eq!(p.0, 77);
    }

    #[test]
    fn user_bucket_is_stable_and_spreads() {
        // Pure function: the same user always lands in the same bucket.
        assert_eq!(user_bucket(UserId(1)), user_bucket(UserId(1)));
        // A handful of small ids must not all collide into one bucket,
        // or every scenario user would live in a single shard.
        let buckets: std::collections::BTreeSet<u8> =
            (1..=16).map(|u| user_bucket(UserId(u))).collect();
        assert!(buckets.len() >= 8, "small user ids collapsed: {buckets:?}");
    }

    #[test]
    fn shard_and_tenant_display() {
        assert_eq!(ShardId(2).to_string(), "shard2");
    }
}
