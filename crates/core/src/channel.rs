//! Pairwise channel authentication between hosts and managers.
//!
//! §2.1 notes that when principals are hosts rather than users, "a host
//! would be identified by its Internet address and a similar
//! authentication scheme would be required". User→host requests are
//! RSA-signed; for the high-rate host↔manager channel this module
//! provides the cheap symmetric counterpart: per-pair HMAC keys derived
//! from a deployment master secret, tagging `QueryReply` and
//! `RevokeNotice` messages so a compromised non-manager node cannot
//! forge grants or flushes.
//!
//! A node derives the key it shares with a peer once, the first time it
//! hears from or writes to that peer, and holds it in its end of the
//! channel — as it would hold a key from a handshake. Tagging a
//! message under a held [`PairKey`] costs two SHA-256 compressions.

use std::sync::Arc;

use wanacl_auth::hmac::{hmac_sha256, HmacKey, Tag};
use wanacl_auth::signed::{AuthEncode, AuthSink};
use wanacl_sim::hash::FxHashMap;
use wanacl_sim::node::NodeId;
use wanacl_sim::time::SimDuration;

use crate::msg::{QueryVerdict, ReqId};
use crate::types::{AppId, UserId};

/// The deployment's key space: derives the [`PairKey`] of any two nodes
/// from a master secret. Shared (via `Arc`) by every node of a
/// deployment; in a real system each pair would instead hold its key
/// from a key-exchange handshake.
///
/// The `tag_*` / `verify_*` methods here derive the pair key on every
/// call; a node, which talks to the same few peers over and over, holds
/// the [`PairKey`] of each instead.
///
/// # Examples
///
/// ```
/// use wanacl_core::channel::ChannelKeys;
/// use wanacl_core::msg::{QueryVerdict, ReqId};
/// use wanacl_core::types::{AppId, UserId};
/// use wanacl_sim::node::NodeId;
/// use wanacl_sim::time::SimDuration;
///
/// let keys = ChannelKeys::from_seed(7);
/// let (mgr, host) = (NodeId::from_index(0), NodeId::from_index(3));
/// let verdict = QueryVerdict::Grant { te: SimDuration::from_secs(30) };
///
/// // Derive once, tag many: the key is the same from either end.
/// let pair = keys.pair(mgr, host);
/// let tag = pair.tag_query_reply(ReqId(1), AppId(0), UserId(1), &verdict);
/// assert!(keys.pair(host, mgr).verify_query_reply(ReqId(1), AppId(0), UserId(1), &verdict, &tag));
///
/// // The one-call form gives the same tag.
/// assert_eq!(tag, keys.tag_query_reply(mgr, host, ReqId(1), AppId(0), UserId(1), &verdict));
/// assert!(keys.verify_query_reply(mgr, host, ReqId(1), AppId(0), UserId(1), &verdict, &tag));
/// ```
#[derive(Clone)]
pub struct ChannelKeys {
    master: HmacKey,
}

impl ChannelKeys {
    /// Creates the key space from a 32-byte master secret.
    pub fn new(master: [u8; 32]) -> Self {
        ChannelKeys { master: HmacKey::new(&master) }
    }

    /// Deterministic derivation from a seed (simulation convenience).
    pub fn from_seed(seed: u64) -> Self {
        let mut master = [0u8; 32];
        master[..8].copy_from_slice(&seed.to_be_bytes());
        ChannelKeys::new(hmac_sha256(&master, b"wanacl-channel-master").0)
    }

    /// The key of the unordered pair `(a, b)`, ready to tag with.
    pub fn pair(&self, a: NodeId, b: NodeId) -> PairKey {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut label = [0u8; 16];
        label[..8].copy_from_slice(&(lo.index() as u64).to_be_bytes());
        label[8..].copy_from_slice(&(hi.index() as u64).to_be_bytes());
        PairKey(HmacKey::new(&self.master.tag(&label).0))
    }

    /// Tags a `QueryReply` travelling from `manager` to `host`.
    pub fn tag_query_reply(
        &self,
        manager: NodeId,
        host: NodeId,
        req: ReqId,
        app: AppId,
        user: UserId,
        verdict: &QueryVerdict,
    ) -> Tag {
        self.pair(manager, host).tag_query_reply(req, app, user, verdict)
    }

    /// Verifies a `QueryReply` tag.
    #[allow(clippy::too_many_arguments)]
    pub fn verify_query_reply(
        &self,
        manager: NodeId,
        host: NodeId,
        req: ReqId,
        app: AppId,
        user: UserId,
        verdict: &QueryVerdict,
        tag: &Tag,
    ) -> bool {
        self.pair(manager, host).verify_query_reply(req, app, user, verdict, tag)
    }

    /// Tags a `RevokeNotice` travelling from `manager` to `host`.
    pub fn tag_revoke_notice(&self, manager: NodeId, host: NodeId, app: AppId, user: UserId) -> Tag {
        self.pair(manager, host).tag_revoke_notice(app, user)
    }

    /// Verifies a `RevokeNotice` tag.
    pub fn verify_revoke_notice(
        &self,
        manager: NodeId,
        host: NodeId,
        app: AppId,
        user: UserId,
        tag: &Tag,
    ) -> bool {
        self.pair(manager, host).verify_revoke_notice(app, user, tag)
    }
}

impl std::fmt::Debug for ChannelKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ChannelKeys(<redacted>)")
    }
}

/// The key one host and one manager share, as either of them holds it.
/// Made by [`ChannelKeys::pair`].
#[derive(Clone)]
pub struct PairKey(HmacKey);

impl PairKey {
    /// Tags a `QueryReply`.
    pub fn tag_query_reply(
        &self,
        req: ReqId,
        app: AppId,
        user: UserId,
        verdict: &QueryVerdict,
    ) -> Tag {
        self.0.tag(&QueryReplyTagging(req, app, user, verdict))
    }

    /// Verifies a `QueryReply` tag.
    pub fn verify_query_reply(
        &self,
        req: ReqId,
        app: AppId,
        user: UserId,
        verdict: &QueryVerdict,
        tag: &Tag,
    ) -> bool {
        self.0.verify(&QueryReplyTagging(req, app, user, verdict), tag)
    }

    /// Tags a `RevokeNotice`.
    pub fn tag_revoke_notice(&self, app: AppId, user: UserId) -> Tag {
        self.0.tag(&RevokeNoticeTagging(app, user))
    }

    /// Verifies a `RevokeNotice` tag.
    pub fn verify_revoke_notice(&self, app: AppId, user: UserId, tag: &Tag) -> bool {
        self.0.verify(&RevokeNoticeTagging(app, user), tag)
    }
}

impl std::fmt::Debug for PairKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PairKey(<redacted>)")
    }
}

/// One node's end of the authenticated channel: the deployment's key
/// space and the pair keys derived from it so far, one per peer this node
/// has exchanged a tagged message with. Owned by the node — no lock, not
/// shared between workers — so a node the live runtime rebuilds after a
/// kill starts with an empty table, like any session state.
///
/// The table is only ever looked up by peer, never iterated, so its
/// (hash) order cannot reach a trace or a digest.
pub(crate) struct ChannelEnd {
    keys: Arc<ChannelKeys>,
    pairs: FxHashMap<NodeId, PairKey>,
}

impl ChannelEnd {
    /// An end with no pair key derived yet.
    pub(crate) fn new(keys: Arc<ChannelKeys>) -> Self {
        ChannelEnd { keys, pairs: FxHashMap::default() }
    }

    /// The key node `me` (the owner) shares with `peer`, derived on first
    /// use.
    pub(crate) fn pair(&mut self, me: NodeId, peer: NodeId) -> &PairKey {
        self.pairs.entry(peer).or_insert_with(|| self.keys.pair(me, peer))
    }

    /// How many peers a key is held for.
    #[cfg(test)]
    pub(crate) fn peers(&self) -> usize {
        self.pairs.len()
    }
}

impl std::fmt::Debug for ChannelEnd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChannelEnd").field("peers", &self.pairs.len()).finish_non_exhaustive()
    }
}

/// A `QueryReply` as its tag covers it: `"qr"`, request, app, user,
/// then the verdict. The pair key streams it into the HMAC's inner hash.
struct QueryReplyTagging<'a>(ReqId, AppId, UserId, &'a QueryVerdict);

impl AuthEncode for QueryReplyTagging<'_> {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        let QueryReplyTagging(req, app, user, verdict) = self;
        out.put(b"qr");
        req.0.auth_encode(out);
        app.auth_encode(out);
        user.auth_encode(out);
        verdict.auth_encode(out);
    }
}

/// A `RevokeNotice` as its tag covers it: `"rn"`, app, user.
struct RevokeNoticeTagging(AppId, UserId);

impl AuthEncode for RevokeNoticeTagging {
    fn auth_encode<S: AuthSink>(&self, out: &mut S) {
        out.put(b"rn");
        self.0.auth_encode(out);
        self.1.auth_encode(out);
    }
}

/// A grant verdict helper used in tests.
#[doc(hidden)]
pub fn grant(te_secs: u64) -> QueryVerdict {
    QueryVerdict::Grant { te: SimDuration::from_secs(te_secs) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::RejectReason;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    /// Walks every `RejectReason`. The match is exhaustive on purpose: a
    /// new reason does not compile until it is added here, and so is
    /// covered by every test below.
    fn reason_after(reason: Option<RejectReason>) -> Option<RejectReason> {
        use RejectReason::*;
        match reason {
            None => Some(NotAuthorized),
            Some(NotAuthorized) => Some(BadSignature),
            Some(BadSignature) => Some(Recovering),
            Some(Recovering) => Some(UnknownShard),
            Some(UnknownShard) => Some(ShardMoved),
            Some(ShardMoved) => None,
        }
    }

    /// One verdict of every shape a `QueryReply` can carry, extreme
    /// field values included.
    fn every_verdict() -> Vec<QueryVerdict> {
        let mut all = vec![
            QueryVerdict::Deny,
            grant(30),
            QueryVerdict::Grant { te: SimDuration::from_nanos(0) },
            QueryVerdict::Grant { te: SimDuration::from_nanos(u64::MAX) },
        ];
        let mut reason = reason_after(None);
        while let Some(r) = reason {
            all.push(QueryVerdict::Unavailable { reason: r });
            reason = reason_after(reason);
        }
        for v in &all {
            // Exhaustive for the same reason as `reason_after`.
            match v {
                QueryVerdict::Grant { .. }
                | QueryVerdict::Deny
                | QueryVerdict::Unavailable { .. } => {}
            }
        }
        all
    }

    /// The construction this module had before keys were held: derive
    /// the pair key with a one-shot HMAC under the raw master, encode
    /// into a `Vec`, tag with a one-shot HMAC. Tags must not move.
    fn one_shot_tag(master: &[u8; 32], a: NodeId, b: NodeId, message: &[u8]) -> Tag {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let mut label = Vec::new();
        label.extend_from_slice(&(lo.index() as u64).to_be_bytes());
        label.extend_from_slice(&(hi.index() as u64).to_be_bytes());
        hmac_sha256(&hmac_sha256(master, &label).0, message)
    }

    #[test]
    fn query_reply_roundtrip() {
        let keys = ChannelKeys::from_seed(1);
        let v = grant(30);
        let tag = keys.tag_query_reply(n(0), n(5), ReqId(9), AppId(1), UserId(2), &v);
        assert!(keys.verify_query_reply(n(0), n(5), ReqId(9), AppId(1), UserId(2), &v, &tag));
        // The pair key is symmetric in direction.
        assert!(keys.verify_query_reply(n(5), n(0), ReqId(9), AppId(1), UserId(2), &v, &tag));
    }

    #[test]
    fn tampering_any_field_breaks_the_tag() {
        let keys = ChannelKeys::from_seed(2);
        let v = grant(30);
        let tag = keys.tag_query_reply(n(0), n(5), ReqId(9), AppId(1), UserId(2), &v);
        assert!(!keys.verify_query_reply(n(0), n(5), ReqId(8), AppId(1), UserId(2), &v, &tag));
        assert!(!keys.verify_query_reply(n(0), n(5), ReqId(9), AppId(2), UserId(2), &v, &tag));
        assert!(!keys.verify_query_reply(n(0), n(5), ReqId(9), AppId(1), UserId(3), &v, &tag));
        assert!(!keys.verify_query_reply(n(0), n(5), ReqId(9), AppId(1), UserId(2), &grant(60), &tag));
        assert!(!keys.verify_query_reply(
            n(0),
            n(5),
            ReqId(9),
            AppId(1),
            UserId(2),
            &QueryVerdict::Deny,
            &tag
        ));
        let mut flipped = tag;
        flipped.0[31] ^= 1;
        assert!(!keys.verify_query_reply(n(0), n(5), ReqId(9), AppId(1), UserId(2), &v, &flipped));
    }

    #[test]
    fn unavailable_verdict_is_tagged_and_distinct() {
        let keys = ChannelKeys::from_seed(5);
        let v = QueryVerdict::Unavailable { reason: crate::msg::RejectReason::Recovering };
        let tag = keys.tag_query_reply(n(0), n(5), ReqId(9), AppId(1), UserId(2), &v);
        assert!(keys.verify_query_reply(n(0), n(5), ReqId(9), AppId(1), UserId(2), &v, &tag));
        // Neither a deny nor a grant verifies under the unavailable tag.
        assert!(!keys.verify_query_reply(
            n(0),
            n(5),
            ReqId(9),
            AppId(1),
            UserId(2),
            &QueryVerdict::Deny,
            &tag
        ));
        assert!(!keys.verify_query_reply(n(0), n(5), ReqId(9), AppId(1), UserId(2), &grant(30), &tag));
    }

    #[test]
    fn different_pairs_have_different_keys() {
        let keys = ChannelKeys::from_seed(3);
        let v = grant(30);
        let tag = keys.tag_query_reply(n(0), n(5), ReqId(1), AppId(0), UserId(1), &v);
        // A node without the (0,5) key cannot produce a valid tag for it:
        // the tag computed under (1,5) differs.
        let other = keys.tag_query_reply(n(1), n(5), ReqId(1), AppId(0), UserId(1), &v);
        assert_ne!(tag, other);
        assert!(!keys.verify_query_reply(n(0), n(5), ReqId(1), AppId(0), UserId(1), &v, &other));
        let held = keys.pair(n(0), n(5));
        assert!(!held.verify_query_reply(ReqId(1), AppId(0), UserId(1), &v, &other));
    }

    #[test]
    fn revoke_notice_roundtrip_and_tamper() {
        let keys = ChannelKeys::from_seed(4);
        let tag = keys.tag_revoke_notice(n(0), n(3), AppId(1), UserId(7));
        assert!(keys.verify_revoke_notice(n(0), n(3), AppId(1), UserId(7), &tag));
        assert!(!keys.verify_revoke_notice(n(0), n(3), AppId(1), UserId(8), &tag));
        assert!(!keys.verify_revoke_notice(n(1), n(3), AppId(1), UserId(7), &tag));
    }

    #[test]
    fn master_secret_distinguishes_deployments() {
        let a = ChannelKeys::from_seed(1);
        let b = ChannelKeys::from_seed(2);
        let v = grant(10);
        let tag = a.tag_query_reply(n(0), n(1), ReqId(1), AppId(0), UserId(1), &v);
        assert!(!b.verify_query_reply(n(0), n(1), ReqId(1), AppId(0), UserId(1), &v, &tag));
        assert!(!b.pair(n(0), n(1)).verify_query_reply(ReqId(1), AppId(0), UserId(1), &v, &tag));
    }

    #[test]
    fn held_derived_and_wrapped_keys_tag_alike_in_both_orders_for_every_verdict() {
        let keys = Arc::new(ChannelKeys::from_seed(11));
        let (mgr, host) = (n(2), n(40));
        // Each node's own end of the channel, as the nodes hold them.
        let mut mgr_end = ChannelEnd::new(keys.clone());
        let mut host_end = ChannelEnd::new(keys.clone());
        let (req, app, user) = (ReqId(u64::MAX), AppId(u32::MAX), UserId(u64::MAX));
        let mut tags = Vec::new();
        for v in every_verdict() {
            let want = keys.tag_query_reply(mgr, host, req, app, user, &v);
            assert_eq!(keys.tag_query_reply(host, mgr, req, app, user, &v), want, "{v:?}");
            assert_eq!(keys.pair(mgr, host).tag_query_reply(req, app, user, &v), want, "{v:?}");
            assert_eq!(keys.pair(host, mgr).tag_query_reply(req, app, user, &v), want, "{v:?}");
            assert_eq!(mgr_end.pair(mgr, host).tag_query_reply(req, app, user, &v), want, "{v:?}");
            let at_host = host_end.pair(host, mgr);
            assert!(at_host.verify_query_reply(req, app, user, &v, &want), "{v:?}");
            assert!(keys.verify_query_reply(host, mgr, req, app, user, &v, &want), "{v:?}");
            tags.push(want);
        }
        // Every verdict — every reason included — has a tag of its own.
        for (i, a) in tags.iter().enumerate() {
            assert!(tags[i + 1..].iter().all(|b| a != b), "verdict {i} shares a tag");
        }
        let want = keys.tag_revoke_notice(mgr, host, app, user);
        assert_eq!(keys.tag_revoke_notice(host, mgr, app, user), want);
        assert_eq!(keys.pair(host, mgr).tag_revoke_notice(app, user), want);
        assert_eq!(mgr_end.pair(mgr, host).tag_revoke_notice(app, user), want);
        assert!(host_end.pair(host, mgr).verify_revoke_notice(app, user, &want));
        // All of that was one peer, so one key, at each end.
        assert_eq!((mgr_end.peers(), host_end.peers()), (1, 1));
    }

    #[test]
    fn tags_are_those_of_the_one_shot_construction() {
        let master = [0x42u8; 32];
        let keys = ChannelKeys::new(master);
        let (req, app, user) = (ReqId(0x0102030405060708), AppId(0x0a0b0c0d), UserId(77));
        for v in every_verdict() {
            let mut msg = b"qr".to_vec();
            msg.extend_from_slice(&req.0.to_be_bytes());
            msg.extend_from_slice(&app.0.to_be_bytes());
            msg.extend_from_slice(&user.0.to_be_bytes());
            match v {
                QueryVerdict::Deny => msg.push(0),
                QueryVerdict::Grant { te } => {
                    msg.push(1);
                    msg.extend_from_slice(&te.as_nanos().to_be_bytes());
                }
                QueryVerdict::Unavailable { reason } => {
                    msg.push(2);
                    msg.push(match reason {
                        RejectReason::NotAuthorized => 0,
                        RejectReason::BadSignature => 1,
                        RejectReason::Recovering => 2,
                        RejectReason::UnknownShard => 4,
                        RejectReason::ShardMoved => 5,
                    });
                }
            }
            assert_eq!(
                keys.tag_query_reply(n(7), n(3), req, app, user, &v),
                one_shot_tag(&master, n(7), n(3), &msg),
                "{v:?}"
            );
        }
        let mut msg = b"rn".to_vec();
        msg.extend_from_slice(&app.0.to_be_bytes());
        msg.extend_from_slice(&user.0.to_be_bytes());
        assert_eq!(
            keys.tag_revoke_notice(n(3), n(7), app, user),
            one_shot_tag(&master, n(3), n(7), &msg)
        );
        // `from_seed` is `new` over a fixed derivation.
        let mut seed_block = [0u8; 32];
        seed_block[..8].copy_from_slice(&9u64.to_be_bytes());
        let from_seed = ChannelKeys::new(hmac_sha256(&seed_block, b"wanacl-channel-master").0);
        assert_eq!(
            ChannelKeys::from_seed(9).tag_revoke_notice(n(0), n(1), app, user),
            from_seed.tag_revoke_notice(n(0), n(1), app, user)
        );
    }

    #[test]
    fn channel_end_holds_one_key_per_peer() {
        let keys = Arc::new(ChannelKeys::from_seed(6));
        let mut end = ChannelEnd::new(keys.clone());
        assert_eq!(end.peers(), 0);
        for round in 0..3 {
            for peer in [4usize, 9, 4, 2, 9] {
                let tag = end.pair(n(0), n(peer)).tag_revoke_notice(AppId(0), UserId(round));
                assert_eq!(tag, keys.tag_revoke_notice(n(0), n(peer), AppId(0), UserId(round)));
            }
            assert_eq!(end.peers(), 3);
        }
    }

    #[test]
    fn debug_shows_no_key_material() {
        let master = *b"\x13\x37\xc0\xde\xfa\xce\xfe\xed0123456789abcdefghijklmn";
        let keys = Arc::new(ChannelKeys::new(master));
        let pair = keys.pair(n(0), n(1));
        let mut end = ChannelEnd::new(keys.clone());
        end.pair(n(0), n(1));
        let shown = format!("{keys:?} {keys:#?} {pair:?} {pair:#?} {end:?} {end:#?}");
        // No rendering `{:?}` could give the secret: not as text, not as
        // a byte list, not as hex.
        assert!(!shown.contains("0123456789abcdef"), "{shown}");
        assert!(!shown.contains("19, 55, 192, 222"), "{shown}");
        assert!(!shown.to_lowercase().contains("1337c0de"), "{shown}");
        // Nor the pair key, which is a tag under the master.
        let mut label = [0u8; 16];
        label[8..].copy_from_slice(&1u64.to_be_bytes());
        let pair_key = hmac_sha256(&master, &label);
        assert!(!shown.contains(&pair_key.to_hex()[..16]), "{shown}");
        let as_list = format!("{:?}", &pair_key.0[..4]);
        assert!(!shown.contains(as_list.trim_matches(['[', ']'])), "{shown}");
        assert!(shown.contains("redacted"));
        assert_eq!(format!("{end:?}"), "ChannelEnd { peers: 1, .. }");
    }
}
