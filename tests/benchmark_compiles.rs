//! `benchmark/` (`wanbench`) is a package of its own that the workspace
//! does not build, though it compiles against the workspace's crates and
//! its source is frozen. This test checks it, every target, against the
//! crates as they are now, so a change that breaks it fails here and not
//! first in the benchmark run. It builds into `benchmark/target`
//! (git-ignored), a directory of its own, so it never waits on the outer
//! build's lock.

use std::path::Path;
use std::process::Command;

#[test]
fn the_benchmark_package_compiles() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| env!("CARGO").to_owned());
    let out = Command::new(cargo)
        .args(["check", "--offline", "--all-targets", "--manifest-path"])
        .arg(root.join("benchmark/Cargo.toml"))
        .env("CARGO_TARGET_DIR", root.join("benchmark/target"))
        .output()
        .expect("cargo runs");
    assert!(out.status.success(), "benchmark/ does not compile:\n{}", String::from_utf8_lossy(&out.stderr));
}
