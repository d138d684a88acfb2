//! Configuration-matrix liveness: the basic grant → invoke → revoke →
//! deny cycle must work across the whole policy surface — every quorum
//! size, every fan-out, with and without authentication, with and
//! without proactive refresh and a name service.

use wanacl::prelude::*;

fn cycle(mut d: Deployment) {
    d.run_for(SimDuration::from_secs(1));
    // Initially unauthorized.
    d.invoke_from(0);
    d.run_for(SimDuration::from_secs(4));
    assert_eq!(d.user_agent(0).stats().denied, 1, "pre-grant must deny");

    d.grant(UserId(1), Right::Use);
    d.run_for(SimDuration::from_secs(4));
    d.invoke_from(0);
    d.run_for(SimDuration::from_secs(4));
    assert_eq!(d.user_agent(0).stats().allowed, 1, "post-grant must allow");

    d.revoke(UserId(1), Right::Use);
    d.run_for(SimDuration::from_secs(4));
    d.invoke_from(0);
    d.run_for(SimDuration::from_secs(4));
    let s = d.user_agent(0).stats();
    assert_eq!(s.denied, 2, "post-revoke must deny: {s:?}");
    assert_eq!(s.unavailable, 0, "healthy network must never be unavailable: {s:?}");
}

fn policy(m: usize, c: usize, fanout: QueryFanout, refresh: bool) -> Policy {
    let mut b = Policy::builder(c)
        .revocation_bound(SimDuration::from_secs(20))
        .query_timeout(SimDuration::from_millis(400))
        .max_attempts(m as u32 + 1) // sequential rotation may need M tries
        .fanout(fanout);
    if refresh {
        b = b.refresh_margin(SimDuration::from_secs(2));
    }
    b.build()
}

#[test]
fn all_quorum_sizes_and_fanouts() {
    let mut seed = 100;
    for m in [1usize, 2, 3, 5] {
        for c in 1..=m {
            for fanout in [QueryFanout::All, QueryFanout::Subset, QueryFanout::Sequential] {
                if fanout == QueryFanout::Sequential && c != 1 {
                    continue;
                }
                seed += 1;
                let d = Scenario::builder(seed)
                    .managers(m)
                    .hosts(2)
                    .users(1)
                    .policy(policy(m, c, fanout, false))
                    .build();
                cycle(d);
            }
        }
    }
}

#[test]
fn authenticated_and_refreshing_variants() {
    for (auth, refresh, ns) in [
        (true, false, false),
        (false, true, false),
        (true, true, false),
        (false, false, true),
        (true, true, true),
    ] {
        let mut s = Scenario::builder(777 + auth as u64 + 2 * refresh as u64 + 4 * ns as u64)
            .managers(3)
            .hosts(2)
            .users(1)
            .policy(policy(3, 2, QueryFanout::All, refresh));
        if auth {
            s = s.authenticate();
        }
        if ns {
            s = s.with_replicated_directory(1, 1, SimDuration::from_secs(120));
        }
        cycle(s.build());
    }
}
