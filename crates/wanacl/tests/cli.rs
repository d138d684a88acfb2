//! The `wanacl` binary's flag handling: a flag the subcommand does not
//! read, or a value that does not parse or is out of range, is a usage
//! error (exit 2) that names the flag — never a silent fall-back to a
//! default, never a library panic. And the planted-bug campaigns, the
//! default `nemesis`, `audit --seed 7`, `demo` and `obs` in both
//! formats print the outputs committed under `tests/golden/`.

use std::path::Path;
use std::process::{Command, Output};

fn wanacl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wanacl"))
        .args(args)
        .output()
        .expect("spawn wanacl")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unparsable_values_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["chaos", "--tenants", "two"][..], "--tenants"),
        (&["nemesis", "--campaigns", "many"][..], "--campaigns"),
        (&["nemesis", "--disk-faults", "yes"][..], "--disk-faults"),
        (&["demo", "--minutes", "-3"][..], "--minutes"),
        (&["scale", "--pi"][..], "--pi"),
        // Parsable but outside what the library accepts: each of these
        // used to reach an `assert!` (exit 101) or run to nonsense.
        (&["nemesis", "--ns-replicas", "3", "--ns-read-quorum", "7"][..], "--ns-read-quorum"),
        (&["obs", "--ns-replicas", "3", "--ns-read-quorum", "9"][..], "--ns-read-quorum"),
        (&["demo", "--managers", "0"][..], "--managers"),
        (&["obs", "--managers", "0"][..], "--managers"),
        (&["demo", "--hosts", "0"][..], "--hosts"),
        (&["demo", "--check-quorum", "0"][..], "--check-quorum"),
        (&["demo", "--managers", "3", "--check-quorum", "9"][..], "--check-quorum"),
        (&["demo", "--te", "0"][..], "--te"),
        (&["demo", "--pi", "1.5"][..], "--pi"),
        (&["scale", "--pi", "1.5"][..], "--pi"),
        (&["scale", "--epoch-secs", "0"][..], "--epoch-secs"),
        (&["scale", "--managers", "0"][..], "--managers"),
        (&["scale", "--managers", "3", "--check-quorum", "9"][..], "--check-quorum"),
        (&["scale", "--zipf-users", "0"][..], "--zipf-users"),
        (&["scale", "--zipf-s", "-1"][..], "--zipf-s"),
        (&["scale", "--horizon-secs", "0"][..], "--horizon-secs"),
        (&["scale", "--checks-per-host", "-1"][..], "--checks-per-host"),
        (&["scale", "--diurnal", "2"][..], "--diurnal"),
        (&["scale", "--flash-at", "5", "--flash-mult", "-1"][..], "--flash-mult"),
        (&["tradeoff", "--pi", "2"][..], "--pi"),
        (&["tradeoff", "--trials", "0"][..], "--trials"),
        (&["nemesis", "--intensity", "nan"][..], "--intensity"),
        (&["nemesis", "--users", "0"][..], "--users"),
        (&["chaos", "--check-quorum", "4"][..], "--check-quorum"),
    ] {
        let out = wanacl(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(flag) && !stderr(&out).contains("panicked"),
            "{args:?} must name {flag}: {}",
            stderr(&out)
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} must fail before doing any work"
        );
    }
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (&["chaos", "--second", "8"][..], "--second"),
        (&["chaos", "--ns-replicas", "5"][..], "--ns-replicas"),
        (&["nemesis", "--seconds", "8"][..], "--seconds"),
        (&["tables", "--pi", "0.1"][..], "--pi"),
        (&["audit", "--sed", "7"][..], "--sed"),
        // Retired with the implementations they selected.
        (&["nemesis", "--name-service", "true"][..], "--name-service"),
        (&["scale", "--scheduler", "heap"][..], "--scheduler"),
    ] {
        let out = wanacl(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).contains(flag),
            "{args:?} must name {flag}: {}",
            stderr(&out)
        );
        assert!(
            out.stdout.is_empty(),
            "{args:?} must fail before doing any work"
        );
    }
}

/// The soak's WAL root comes from the environment (`TMPDIR`); one that
/// cannot be created is reported like any other start-up failure, not
/// a panic from inside a manager factory.
#[test]
fn chaos_exits_2_naming_a_wal_directory_it_cannot_create() {
    let out = Command::new(env!("CARGO_BIN_EXE_wanacl"))
        .args(["chaos", "--seed", "1", "--seconds", "2"])
        .env("TMPDIR", "/proc/nonexistent")
        .output()
        .expect("spawn wanacl");
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("/proc/nonexistent/wanacl-live-")
            && !stderr(&out).contains("panicked"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn well_formed_invocations_still_run() {
    for (args, says) in [
        (&["nemesis", "--seed", "1", "--horizon-secs", "3"][..], "seed 1: clean"),
        // A simulator run is checked against the exact bound: no slack.
        (&["audit", "--seed", "3"][..], "bounded-revocation invariant HOLDS"),
    ] {
        let out = wanacl(args);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {}", stderr(&out));
        assert!(String::from_utf8_lossy(&out.stdout).contains(says), "{args:?}");
    }
}

/// The sharded soak goes through the same driver as the flat one, so a
/// planted drop-WAL bug is honoured there too: manager 0's disk forgets
/// its state across the kill/restart and the durability oracle says so.
#[test]
fn sharded_chaos_honours_the_planted_drop_wal_bug() {
    let out = wanacl(&[
        "chaos",
        "--tenants",
        "2",
        "--inject-bug",
        "drop-wal",
        "--seconds",
        "4",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}\n{}", stderr(&out));
    assert!(stdout.contains("[BUG INJECTED: drop-wal]"), "{stdout}");
    assert!(
        stdout.contains("VIOLATION") && stdout.contains("durability violated"),
        "{stdout}"
    );
    assert!(!stdout.contains("soak clean"), "{stdout}");
}

/// Each planted bug is caught (exit 1) and printed as exactly its
/// committed counterexample: event indices, violation details (the
/// lost-handoff one prints `transfer_digest` values) and the shrunk
/// plan, which a moved, added or reordered audit event would shift.
/// Regenerating a golden is a deliberate act: run the command and
/// commit its stdout.
#[test]
fn planted_bugs_print_their_committed_counterexamples() {
    for (bug, flags) in [
        ("cache-expiry", "--seed 1 --campaigns 10 --horizon-secs 8"),
        ("drop-wal", "--seed 1 --campaigns 10 --horizon-secs 8 --disk-faults true"),
        (
            "ns-trust-unsigned",
            "--seed 1 --campaigns 10 --horizon-secs 8 --ns-replicas 3 --ns-faults true",
        ),
        (
            "lost-handoff",
            "--seed 0 --campaigns 1 --users 4 --tenants 2 --shards-per-tenant 2 --ns-replicas 3",
        ),
    ] {
        let mut args = vec!["nemesis"];
        args.extend(flags.split(' '));
        args.extend(["--inject-bug", bug]);
        assert_prints_golden(&args, 1, &format!("nemesis-{bug}.txt"));
    }
}

/// Runs `wanacl args`, expects exit `code`, and compares stdout with
/// `tests/golden/<name>`.
fn assert_prints_golden(args: &[&str], code: i32, name: &str) {
    let out = wanacl(args);
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    let want = std::fs::read_to_string(&golden).expect("read the golden");
    assert_eq!(out.status.code(), Some(code), "{args:?}: {}", stderr(&out));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        want,
        "{args:?}: stdout is not {}",
        golden.display()
    );
}

/// The clean outputs a change to the oracle's digest, the audit
/// events' encoding or the metrics export must leave alone: the audit
/// summary, a default campaign, the demo's outcome table and the
/// metrics snapshot in both formats. Each is seed-deterministic.
#[test]
fn clean_runs_print_their_committed_outputs() {
    for (args, name) in [
        (&["audit", "--seed", "7"][..], "audit-seed-7.txt"),
        (&["nemesis"][..], "nemesis.txt"),
        (&["demo"][..], "demo.txt"),
        (&["obs"][..], "obs.prom"),
        (&["obs", "--format", "jsonl"][..], "obs.jsonl"),
    ] {
        assert_prints_golden(args, 0, name);
    }
}
