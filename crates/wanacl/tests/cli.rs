//! The `wanacl` binary's flag handling: a flag the subcommand does not
//! read, or a value that does not parse, is a usage error (exit 2) that
//! names the flag — never a silent fall-back to a default.

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

#[test]
fn well_formed_invocations_still_run() {
    let out = wanacl(&["nemesis", "--seed", "1", "--horizon-secs", "3"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("seed 1: clean"));
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
