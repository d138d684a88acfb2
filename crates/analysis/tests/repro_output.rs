//! `repro_all` prints exactly the committed `repro_output.txt`: every
//! table, figure and prose claim of the reproduction, byte for byte.
//! The root `Cargo.toml` builds this package and the crates it runs
//! with `opt-level = 1` in the dev profile, so this takes seconds under
//! `cargo test`, not the better part of a minute. Regenerating the
//! file is a deliberate act: `cargo run --release -p wanacl-analysis
//! --bin repro_all > repro_output.txt`, in a change that says why.

use std::path::Path;
use std::process::Command;

#[test]
fn repro_all_prints_the_committed_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro_all")).output().expect("spawn repro_all");
    assert!(out.status.success(), "repro_all failed: {}", String::from_utf8_lossy(&out.stderr));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../repro_output.txt");
    let want = std::fs::read_to_string(&path).expect("read repro_output.txt");
    let have = String::from_utf8_lossy(&out.stdout);
    if have != want {
        let (mut have_lines, mut want_lines) = (have.lines(), want.lines());
        let mut line = 1;
        loop {
            match (have_lines.next(), want_lines.next()) {
                (Some(h), Some(w)) if h == w => line += 1,
                (h, w) => panic!(
                    "repro_all differs from {} at line {line}:\n  printed: {h:?}\n  committed: {w:?}",
                    path.display()
                ),
            }
        }
    }
}
