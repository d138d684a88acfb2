//! Compares two machine-readable benchmark result files (the JSONL
//! emitted via `BENCH_JSON`, one `{"label":...,"mean_ns":...,"iters":...}`
//! object per line) and fails if any benchmark regressed beyond a
//! threshold.
//!
//! ```console
//! $ bench_guard <baseline.json> <current.json> [--threshold 0.25]
//!       [--threshold-for LABEL=FRACTION ...]
//! ```
//!
//! Labels present in only one file are reported but never fatal, so
//! adding or retiring a benchmark doesn't break the guard. When a label
//! appears multiple times in a file (e.g. appended runs), the last
//! occurrence wins. Exits 1 on any regression past the threshold.
//!
//! `--threshold-for` overrides the default threshold for one label — a
//! large-world benchmark with few iterations needs a looser bound than
//! the microbenchmarks without weakening their gates.

use std::collections::BTreeMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut threshold = 0.25f64;
    let mut per_label: BTreeMap<String, f64> = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--threshold" {
            threshold = args
                .get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| usage("--threshold needs a number"));
            i += 2;
        } else if args[i] == "--threshold-for" {
            let (label, frac) = args
                .get(i + 1)
                .and_then(|v| v.split_once('='))
                .and_then(|(l, f)| Some((l.to_owned(), f.parse::<f64>().ok()?)))
                .unwrap_or_else(|| usage("--threshold-for needs LABEL=FRACTION"));
            per_label.insert(label, frac);
            i += 2;
        } else {
            paths.push(args[i].clone());
            i += 1;
        }
    }
    if paths.len() != 2 {
        usage("expected exactly two result files");
    }
    let baseline = load(&paths[0]);
    let current = load(&paths[1]);

    let mut regressions = Vec::new();
    let mut incomparable = Vec::new();
    let mut compared = 0usize;
    println!("{:<55} {:>12} {:>12} {:>8}", "benchmark", "baseline ns", "current ns", "delta");
    for (label, base_ns) in &baseline {
        let Some(cur_ns) = current.get(label) else {
            println!("{label:<55} {base_ns:>12.1} {:>12} {:>8}", "absent", "-");
            continue;
        };
        let Some(delta) = relative_delta(*base_ns, *cur_ns) else {
            // A zero/negative/non-finite mean is corrupt data, not a
            // passing benchmark: `NaN > threshold` is false, so before
            // this guard a broken baseline sailed through silently.
            println!("{label:<55} {base_ns:>12.1} {cur_ns:>12.1} {:>8}", "n/a");
            incomparable.push(label.clone());
            continue;
        };
        compared += 1;
        println!("{label:<55} {base_ns:>12.1} {cur_ns:>12.1} {:>+7.1}%", delta * 100.0);
        let limit = per_label.get(label).copied().unwrap_or(threshold);
        if delta > limit {
            regressions.push((label.clone(), delta, limit));
        }
    }
    for label in current.keys().filter(|l| !baseline.contains_key(*l)) {
        println!("{label:<55} {:>12} {:>12.1} {:>8}", "absent", current[label], "new");
    }
    if !incomparable.is_empty() {
        for label in &incomparable {
            eprintln!(
                "bench_guard: INCOMPARABLE {label}: non-positive or non-finite mean — \
                 regenerate the baseline"
            );
        }
        return ExitCode::from(2);
    }
    if compared == 0 {
        eprintln!("bench_guard: no overlapping labels between the two files");
        return ExitCode::from(2);
    }
    if regressions.is_empty() {
        println!("bench_guard: OK — {compared} benchmark(s) within threshold");
        return ExitCode::SUCCESS;
    }
    for (label, delta, limit) in &regressions {
        eprintln!(
            "bench_guard: REGRESSION {label}: {:+.1}% (threshold {:.0}%)",
            delta * 100.0,
            limit * 100.0
        );
    }
    ExitCode::FAILURE
}

/// Relative regression of `cur_ns` against `base_ns`, or `None` when
/// the pair is incomparable: a non-positive baseline (a zero mean from
/// a corrupt file would otherwise yield an Inf/NaN ratio that every
/// `>` comparison silently answers `false` to) or a non-finite result.
fn relative_delta(base_ns: f64, cur_ns: f64) -> Option<f64> {
    if base_ns <= 0.0 || !base_ns.is_finite() || !cur_ns.is_finite() {
        return None;
    }
    let delta = cur_ns / base_ns - 1.0;
    delta.is_finite().then_some(delta)
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "bench_guard: {msg}\nusage: bench_guard <baseline.json> <current.json> \
         [--threshold FRACTION] [--threshold-for LABEL=FRACTION ...]"
    );
    std::process::exit(2);
}

/// Parses the shim's fixed JSONL shape without a JSON dependency: every
/// line is `{"label":"...","mean_ns":N,...}` with `\"` and `\\` the only
/// escapes the emitter produces.
fn load(path: &str) -> BTreeMap<String, f64> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_guard: cannot read {path}: {e}");
        std::process::exit(2);
    });
    let mut out = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let Some((label, mean_ns)) = parse_line(line) else {
            eprintln!("bench_guard: skipping malformed line in {path}: {line}");
            continue;
        };
        out.insert(label, mean_ns);
    }
    if out.is_empty() {
        eprintln!("bench_guard: no benchmark records in {path}");
        std::process::exit(2);
    }
    out
}

fn parse_line(line: &str) -> Option<(String, f64)> {
    let rest = line.trim().strip_prefix("{\"label\":\"")?;
    let mut label = String::new();
    let mut chars = rest.chars();
    loop {
        match chars.next()? {
            '\\' => label.push(chars.next()?),
            '"' => break,
            c => label.push(c),
        }
    }
    let rest: String = chars.collect();
    let value = rest.strip_prefix(",\"mean_ns\":")?;
    let end = value.find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())?;
    Some((label, value[..end].parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::{parse_line, relative_delta};

    #[test]
    fn delta_of_healthy_pair() {
        let d = relative_delta(100.0, 125.0).expect("comparable");
        assert!((d - 0.25).abs() < 1e-12);
        let d = relative_delta(100.0, 80.0).expect("comparable");
        assert!((d + 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_or_negative_baseline_is_incomparable() {
        // Regression: 125.0 / 0.0 - 1.0 = Inf used to flow into
        // `delta > threshold` (true → at least it failed) but
        // 0.0 / 0.0 - 1.0 = NaN compared false and PASSED silently.
        assert_eq!(relative_delta(0.0, 125.0), None);
        assert_eq!(relative_delta(0.0, 0.0), None);
        assert_eq!(relative_delta(-5.0, 125.0), None);
    }

    #[test]
    fn non_finite_inputs_are_incomparable() {
        assert_eq!(relative_delta(f64::NAN, 1.0), None);
        assert_eq!(relative_delta(1.0, f64::NAN), None);
        assert_eq!(relative_delta(f64::INFINITY, 1.0), None);
        assert_eq!(relative_delta(1.0, f64::INFINITY), None);
        // A finite-but-huge ratio that overflows to Inf is also out.
        assert_eq!(relative_delta(f64::MIN_POSITIVE, f64::MAX), None);
    }

    #[test]
    fn parses_emitter_lines() {
        let (label, mean) =
            parse_line(r#"{"label":"sim_throughput/sweep8","mean_ns":1234.5,"iters":10}"#)
                .expect("parses");
        assert_eq!(label, "sim_throughput/sweep8");
        assert!((mean - 1234.5).abs() < 1e-9);
    }

    #[test]
    fn parses_escaped_labels() {
        let (label, _) =
            parse_line(r#"{"label":"a\"b\\c","mean_ns":1.0,"iters":1}"#).expect("parses");
        assert_eq!(label, "a\"b\\c");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_line("not json").is_none());
        assert!(parse_line(r#"{"label":"x","iters":1}"#).is_none());
    }
}
