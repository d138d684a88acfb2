//! Seeded input generation: principals and their keys, and each client's
//! pool of pre-signed requests. The seed is used here and nowhere else;
//! the program under test sees only what this module produces.

use std::sync::Arc;

use rand::SeedableRng;
use wanacl_core::auth::rsa::{self, SecretKey};
use wanacl_core::auth::signed::KeyRegistry;
use wanacl_core::msg::{admin_signing_bytes, invoke_signing_bytes, AclOp, ReqId};
use wanacl_core::types::{AppId, Right, UserId};
use wanacl_sim::rng::{SimRng, Zipf};

/// The one application every workload serves.
pub const APP: AppId = AppId(0);
/// The request body every invoke carries.
pub const PAYLOAD: &str = "wanbench";
/// The principal that signs `Add`/`Revoke`; it alone holds `manage`.
pub const ADMIN_USER: UserId = UserId(1 << 32);
/// Set in the request ids of pre-warm entries so they never collide with
/// the measured pool's ids.
const PREWARM_REQ_BIT: u64 = 1 << 31;

/// How users are drawn for a pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UserDraw {
    /// Zipf popularity with exponent `s` over the granted users; hosts
    /// are drawn uniformly. Repeats are the point.
    Zipf(f64),
    /// Every entry is a distinct `(host, user)` pair, so no entry can be
    /// answered from a lease an earlier entry left behind.
    DistinctPairs,
}

/// What a workload needs generated.
#[derive(Debug, Clone, Copy)]
pub struct InputSpec {
    pub hosts: usize,
    pub clients: usize,
    /// Granted users, ids `1..=users`.
    pub users: usize,
    /// Never-granted users, ids `users+1..=users+probes`; one pool entry
    /// in a hundred is theirs (none when zero).
    pub probes: usize,
    /// The most popular users the admin node revokes and re-adds.
    pub churn_users: usize,
    pub draw: UserDraw,
    /// Measured-pool entries per client.
    pub pool_per_client: usize,
    /// Whether each client also gets one entry per `(host, user)` pair
    /// of its hosts, to fill every lease before measuring.
    pub prewarm: bool,
}

/// What the harness expects the deployment to answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    Allow,
    Deny,
    /// A user under admin churn (index into the churn set): either
    /// verdict is legal, except an allow later than `Te` after a stable
    /// revoke.
    Churn(u8),
}

/// One pre-signed request. Its request id is the owning client's base
/// plus its position in the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolEntry {
    /// Host index (not node id) the request goes to.
    pub host: u32,
    pub user: u64,
    pub req: u64,
    pub sig: u64,
    pub expect: Expect,
}

/// A client's requests: `entries[..prewarm]` fill the leases,
/// `entries[prewarm..]` are the measured pool.
#[derive(Debug, Clone)]
pub struct ClientPool {
    pub entries: Arc<[PoolEntry]>,
    pub prewarm: usize,
}

impl ClientPool {
    /// The position of the entry whose request id is the client's base
    /// plus `offset` (which may lie outside the pool).
    pub fn index_of(&self, offset: u64) -> usize {
        if offset & PREWARM_REQ_BIT != 0 {
            (offset & (PREWARM_REQ_BIT - 1)) as usize
        } else {
            self.prewarm.saturating_add(offset as usize)
        }
    }
}

/// A pre-signed `Revoke`/`Add` pair for one churn user.
#[derive(Debug, Clone, Copy)]
pub struct AdminOps {
    pub revoke: (AclOp, u64),
    pub add: (AclOp, u64),
}

/// Everything generated from one seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub registry: Arc<KeyRegistry>,
    pub pools: Vec<ClientPool>,
    pub admin_ops: Vec<AdminOps>,
}

/// First request id of client `c`'s pool.
pub fn client_req_base(c: usize) -> u64 {
    (c as u64) << 32
}

/// The hosts client `c` of `clients` sends to: a contiguous block, so
/// that a `(host, user)` pair belongs to exactly one client while each
/// client still reaches hosts on every worker (workers take nodes
/// round-robin).
pub fn client_hosts(c: usize, clients: usize, hosts: usize) -> std::ops::Range<usize> {
    c * hosts / clients..(c + 1) * hosts / clients
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Generates keys, pools and admin operations from `seed`.
pub fn generate(spec: &InputSpec, seed: u64) -> Inputs {
    let mut key_rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6b65_7973);
    let mut registry = KeyRegistry::new();
    let principals = spec.users + spec.probes;
    let secrets: Vec<SecretKey> = (1..=principals as u64)
        .map(|u| registry.enroll(UserId(u).into(), &mut key_rng).secret)
        .collect();
    let admin_secret = registry.enroll(ADMIN_USER.into(), &mut key_rng).secret;

    let sign = |user: u64, req: u64| {
        let bytes = invoke_signing_bytes(UserId(user), APP, ReqId(req), PAYLOAD);
        rsa::sign(&secrets[user as usize - 1], &bytes).0
    };
    let expect_of = |user: u64| {
        if user as usize > spec.users {
            Expect::Deny
        } else if user as usize <= spec.churn_users {
            Expect::Churn(user as u8 - 1)
        } else {
            Expect::Allow
        }
    };

    let mut root = SimRng::seed_from(seed);
    let pools = (0..spec.clients)
        .map(|c| {
            let mut rng = root.fork("pool");
            let hosts = client_hosts(c, spec.clients, spec.hosts);
            let base = client_req_base(c);
            let mut entries = Vec::new();
            if spec.prewarm {
                for host in hosts.clone() {
                    for user in 1..=spec.users as u64 {
                        let req = base | PREWARM_REQ_BIT | entries.len() as u64;
                        entries.push(PoolEntry {
                            host: host as u32,
                            user,
                            req,
                            sig: sign(user, req),
                            expect: expect_of(user),
                        });
                    }
                }
            }
            let prewarm = entries.len();
            let zipf = match spec.draw {
                UserDraw::Zipf(s) => Some(Zipf::new(spec.users, s)),
                UserDraw::DistinctPairs => None,
            };
            // Distinct pairs: walk the client's pair space with a stride
            // coprime to its size, which visits every pair once before
            // repeating any.
            let space = hosts.len() * spec.users;
            let start = rng.range(0, space as u64) as usize;
            let mut stride = (rng.range(0, space as u64) as usize) | 1;
            while gcd(stride, space) != 1 {
                stride += 2;
            }
            if zipf.is_none() {
                assert!(
                    spec.pool_per_client <= space,
                    "pool larger than the pair space"
                );
            }
            for i in 0..spec.pool_per_client {
                let probe = spec.probes > 0 && i % 100 == 99;
                let (host, user) = if probe {
                    let host = hosts.start + rng.range(0, hosts.len() as u64) as usize;
                    (
                        host,
                        spec.users as u64 + 1 + rng.range(0, spec.probes as u64),
                    )
                } else if let Some(zipf) = &zipf {
                    let host = hosts.start + rng.range(0, hosts.len() as u64) as usize;
                    (host, zipf.sample(&mut rng) as u64 + 1)
                } else {
                    let pair = (start + i * stride % space) % space;
                    (
                        hosts.start + pair / spec.users,
                        (pair % spec.users) as u64 + 1,
                    )
                };
                let req = base | i as u64;
                entries.push(PoolEntry {
                    host: host as u32,
                    user,
                    req,
                    sig: sign(user, req),
                    expect: expect_of(user),
                });
            }
            ClientPool {
                entries: entries.into(),
                prewarm,
            }
        })
        .collect();

    let admin_ops = (1..=spec.churn_users as u64)
        .map(|u| {
            let user = UserId(u);
            let signed = |op: AclOp| {
                (
                    op,
                    rsa::sign(&admin_secret, &admin_signing_bytes(ADMIN_USER, &op)).0,
                )
            };
            AdminOps {
                revoke: signed(AclOp::Revoke {
                    app: APP,
                    user,
                    right: Right::Use,
                }),
                add: signed(AclOp::Add {
                    app: APP,
                    user,
                    right: Right::Use,
                }),
            }
        })
        .collect();

    Inputs {
        registry: Arc::new(registry),
        pools,
        admin_ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn spec(draw: UserDraw) -> InputSpec {
        InputSpec {
            hosts: 8,
            clients: 2,
            users: 64,
            probes: 4,
            churn_users: 2,
            draw,
            pool_per_client: 200,
            prewarm: false,
        }
    }

    #[test]
    fn same_seed_same_bytes_and_other_seed_differs() {
        let s = spec(UserDraw::Zipf(1.0));
        let (a, b, c) = (generate(&s, 7), generate(&s, 7), generate(&s, 8));
        for client in 0..2 {
            assert_eq!(a.pools[client].entries[..], b.pools[client].entries[..]);
            assert_ne!(a.pools[client].entries[..], c.pools[client].entries[..]);
        }
        assert_eq!(a.admin_ops[0].revoke.1, b.admin_ops[0].revoke.1);
        assert_ne!(a.admin_ops[0].revoke.1, c.admin_ops[0].revoke.1);
    }

    #[test]
    fn signatures_verify_and_expectations_follow_the_acl() {
        let inputs = generate(&spec(UserDraw::Zipf(1.2)), 3);
        let mut probes = 0;
        for (c, pool) in inputs.pools.iter().enumerate() {
            for (i, e) in pool.entries.iter().enumerate() {
                assert_eq!(e.req, client_req_base(c) | i as u64);
                assert!(client_hosts(c, 2, 8).contains(&(e.host as usize)));
                let pk = inputs
                    .registry
                    .public_key(UserId(e.user).into())
                    .expect("enrolled");
                let bytes = invoke_signing_bytes(UserId(e.user), APP, ReqId(e.req), PAYLOAD);
                assert!(rsa::verify(&pk, &bytes, &rsa::Signature(e.sig)));
                match e.expect {
                    Expect::Deny => {
                        assert!(e.user > 64);
                        probes += 1;
                    }
                    Expect::Churn(k) => assert_eq!(k as u64 + 1, e.user),
                    Expect::Allow => assert!((3..=64).contains(&e.user)),
                }
            }
        }
        assert_eq!(probes, 4, "one entry in a hundred is a probe");
    }

    #[test]
    fn distinct_pairs_never_repeat_and_prewarm_covers_every_pair() {
        let mut s = spec(UserDraw::DistinctPairs);
        s.probes = 0;
        s.prewarm = true;
        let inputs = generate(&s, 11);
        for pool in &inputs.pools {
            assert_eq!(pool.prewarm, 4 * 64);
            let warm: HashSet<_> = pool.entries[..pool.prewarm]
                .iter()
                .map(|e| (e.host, e.user))
                .collect();
            assert_eq!(warm.len(), pool.prewarm);
            let measured: HashSet<_> = pool.entries[pool.prewarm..]
                .iter()
                .map(|e| (e.host, e.user))
                .collect();
            assert_eq!(measured.len(), 200);
            let reqs: HashSet<_> = pool.entries.iter().map(|e| e.req).collect();
            assert_eq!(reqs.len(), pool.entries.len(), "request ids are unique");
        }
    }
}
