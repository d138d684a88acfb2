//! The documents are held to the tree. A `DESIGN §N` (or `DESIGN.md
//! §N`) citation in the code, scripts, CI or prose names a section
//! DESIGN.md has; a ROADMAP item DESIGN cites by title or number is
//! still there; and wherever README or DESIGN puts a number beside a
//! `BENCHMARK.json` metric, the paragraph or table says which commit it
//! was read at.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(root().join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

/// Where DESIGN's sections are cited from.
const CITING: [&str; 11] = [
    "crates",
    "src",
    "tests",
    "examples",
    "shims",
    "scripts",
    ".github",
    "README.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
];

/// Every text file under `rel`, or `rel` itself; build output skipped.
fn text_files(rel: &str) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut stack = vec![root().join(rel)];
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            if path.file_name().is_some_and(|name| name == "target") {
                continue;
            }
            for entry in std::fs::read_dir(&path).expect("read_dir") {
                stack.push(entry.expect("dir entry").path());
            }
        } else if path.extension().is_some_and(|ext| {
            ["rs", "md", "sh", "py", "yml", "toml", "c"].iter().any(|e| ext == *e)
        }) {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// The digits at the start of `text`, if any.
fn leading_number(text: &str) -> Option<&str> {
    let end = text.find(|c: char| !c.is_ascii_digit()).unwrap_or(text.len());
    (end > 0).then(|| &text[..end])
}

/// Each section a `DESIGN §N` citation in `text` names, with its line:
/// `DESIGN §4`, `DESIGN.md §11`, and the lists `DESIGN §4/§16`,
/// `DESIGN §13, §16` and `DESIGN §9 and §12`.
fn design_citations(text: &str) -> Vec<(usize, u32)> {
    let mut cited = Vec::new();
    for (at, _) in text.match_indices("DESIGN") {
        let after = &text[at + "DESIGN".len()..];
        let mut rest = after.strip_prefix(".md").unwrap_or(after).trim_start_matches([' ', '\n', '\t']);
        let line = text[..at].matches('\n').count() + 1;
        while let Some(number) = rest.strip_prefix('§').and_then(leading_number) {
            cited.push((line, number.parse().expect("a section number")));
            rest = &rest['§'.len_utf8() + number.len()..];
            let Some(next) = ["/", ", ", " and ", " or ", ", and "]
                .iter()
                .find_map(|sep| rest.strip_prefix(sep).filter(|after| after.starts_with('§')))
            else {
                break;
            };
            rest = next;
        }
    }
    cited
}

/// DESIGN.md's numbered `## N.` headings.
fn design_sections() -> BTreeSet<u32> {
    read("DESIGN.md")
        .lines()
        .filter_map(|line| line.strip_prefix("## ").and_then(leading_number))
        .map(|number| number.parse().expect("a section number"))
        .collect()
}

#[test]
fn design_has_its_sixteen_sections() {
    assert_eq!(design_sections(), (1..=16).collect(), "DESIGN.md's `## N.` headings");
}

#[test]
fn every_design_section_citation_resolves() {
    let sections = design_sections();
    let mut dangling = Vec::new();
    let mut seen = 0;
    for rel in CITING {
        for path in text_files(rel) {
            let text = std::fs::read_to_string(&path).expect("read a text file");
            for (line, section) in design_citations(&text) {
                seen += 1;
                if !sections.contains(&section) {
                    dangling.push(format!("{}:{line}: DESIGN §{section}", path.display()));
                }
            }
        }
    }
    assert!(seen > 30, "found only {seen} citations: is the scan looking in the right places?");
    assert!(dangling.is_empty(), "citations of sections DESIGN.md does not have:\n{}", dangling.join("\n"));
}

#[test]
fn citation_parser_reads_lists_and_suffixes() {
    let text = "see DESIGN §4/§16 and DESIGN.md §11,\n\
                then DESIGN §13, §16's note; DESIGN §9 and §12. DESIGN.md:433";
    assert_eq!(design_citations(text), vec![(1, 4), (1, 16), (1, 11), (2, 13), (2, 16), (2, 9), (2, 12)]);
}

/// `text` with each run of whitespace made one space.
fn squeezed(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[test]
fn roadmap_items_design_cites_are_still_there() {
    let design = squeezed(&read("DESIGN.md"));
    let roadmap = squeezed(&read("ROADMAP.md"));
    let mut titles = 0;
    for (at, _) in design.match_indices("ROADMAP's \"") {
        let quoted = &design[at + "ROADMAP's \"".len()..];
        let title = &quoted[..quoted.find('"').expect("a closing quote")];
        assert!(
            roadmap.contains(&format!("**{title}.**")),
            "DESIGN cites ROADMAP's {title:?}, which has no such item"
        );
        titles += 1;
    }
    assert!(titles >= 2, "DESIGN cites {titles} ROADMAP items by title");
    for (at, _) in design.match_indices("ROADMAP item ") {
        let number = leading_number(&design[at + "ROADMAP item ".len()..]).expect("an item number");
        assert!(
            roadmap.contains(&format!(" {number}. **")),
            "DESIGN cites ROADMAP item {number}, which does not exist"
        );
    }
}

/// The metric names `BENCHMARK.json` declares under `end_to_end` and
/// `per_layer` (the workload names before them are not metrics).
fn benchmark_metrics() -> BTreeSet<String> {
    let json = read("BENCHMARK.json");
    let metrics = &json[json.find("\"end_to_end\"").expect("an end_to_end list")..];
    metrics
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest[..rest.find('"').expect("a closing quote")].to_owned())
        .collect()
}

/// `text` split into its backticked spans and the prose between them.
fn spans(text: &str) -> (Vec<&str>, String) {
    let (mut code, mut prose) = (Vec::new(), String::new());
    for (i, part) in text.split('`').enumerate() {
        if i % 2 == 1 {
            code.push(part);
            prose.push_str(" ` ");
        } else {
            prose.push_str(part);
        }
    }
    (code, prose)
}

/// Whether `prose` holds a number standing on its own: `45.1`, `2.05 M`,
/// `1,233 k` — not the digits of `p50`, `§4`, `SHA-256` or `10k`.
fn has_number(prose: &str) -> bool {
    let chars: Vec<char> = prose.chars().collect();
    chars.iter().enumerate().any(|(i, c)| {
        let attached = |c: &char| c.is_alphanumeric() || matches!(c, '§' | '-' | '_' | '.' | ',' | '/');
        if !c.is_ascii_digit() || i.checked_sub(1).and_then(|p| chars.get(p)).is_some_and(attached) {
            return false;
        }
        let end = chars[i..]
            .iter()
            .position(|c| !(c.is_ascii_digit() || matches!(c, '.' | ',')))
            .map_or(chars.len(), |n| i + n);
        let tail = if matches!(chars[end - 1], '.' | ',') { end - 1 } else { end };
        !chars.get(tail).is_some_and(|c| c.is_alphanumeric() || matches!(c, '-' | '_'))
    })
}

/// A commit hash in backticks: 7 to 40 lowercase hex digits, with at
/// least one digit and one letter.
fn has_commit(code: &[&str]) -> bool {
    code.iter().any(|span| {
        (7..=40).contains(&span.len())
            && span.chars().all(|c| c.is_ascii_digit() || ('a'..='f').contains(&c))
            && span.chars().any(|c| c.is_ascii_digit())
            && span.chars().any(|c| c.is_ascii_alphabetic())
    })
}

/// Each paragraph, list or table of `doc` outside code fences, as its
/// first line number and lines.
fn blocks(doc: &str) -> Vec<(usize, Vec<&str>)> {
    let (mut blocks, mut current, mut fenced) = (Vec::new(), Vec::new(), false);
    let mut start = 0;
    for (i, line) in doc.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced || line.trim().is_empty() || line.starts_with('#') {
            if !current.is_empty() {
                blocks.push((start, std::mem::take(&mut current)));
            }
            continue;
        }
        if current.is_empty() {
            start = i + 1;
        }
        current.push(line);
    }
    if !current.is_empty() {
        blocks.push((start, current));
    }
    blocks
}

/// The units of a block a number can sit beside a metric name in: a
/// whole table (its header names the metrics its rows quote), or each
/// sentence of anything else.
fn units(lines: &[&str]) -> Vec<String> {
    if lines.iter().all(|line| line.starts_with('|')) {
        return vec![lines.join("\n")];
    }
    let text = lines.join(" ");
    let mut units = vec![String::new()];
    let mut in_code = false;
    let chars: Vec<char> = text.chars().collect();
    for (i, &c) in chars.iter().enumerate() {
        units.last_mut().expect("a unit").push(c);
        in_code ^= c == '`';
        if !in_code
            && matches!(c, '.' | ';' | '?' | '!')
            && chars.get(i + 1).is_none_or(|n| n.is_whitespace())
        {
            units.push(String::new());
        }
    }
    units
}

/// Each unit of `doc` that puts a number beside a metric name in a
/// block that names no commit, as `line: unit`.
fn uncommitted_numbers(doc: &str, metrics: &BTreeSet<String>) -> Vec<String> {
    let mut found = Vec::new();
    for (line, lines) in blocks(doc) {
        if lines[0] == "| Name | Kind | Unit | Emitted by |" {
            continue; // DESIGN §11's registry table: generated, and quotes no readings
        }
        if has_commit(&spans(&lines.join(" ")).0) {
            continue;
        }
        for unit in units(&lines) {
            let (code, prose) = spans(&unit);
            if code.iter().any(|span| metrics.contains(*span)) && has_number(&prose) {
                found.push(format!("{line}: {}", unit.trim()));
            }
        }
    }
    found
}

#[test]
fn quoted_metric_readings_name_their_commit() {
    let metrics = benchmark_metrics();
    assert!(metrics.contains("checks_per_s") && metrics.contains("rt.hop_wait_p50_ns"), "{metrics:?}");
    for doc in ["README.md", "DESIGN.md"] {
        let found = uncommitted_numbers(&read(doc), &metrics);
        assert!(
            found.is_empty(),
            "{doc}: a number beside a BENCHMARK.json metric, in a paragraph or table with no commit:\n{}",
            found.join("\n")
        );
    }
}

#[test]
fn the_reading_check_tells_a_reading_from_a_mention() {
    let metrics: BTreeSet<String> = ["checks_per_s", "rt.inbox_overflow"].map(String::from).into();
    let flagged = |doc: &str| uncommitted_numbers(doc, &metrics).len();
    assert_eq!(flagged("`live_warm` `checks_per_s` 2.05 M."), 1);
    assert_eq!(flagged("| workload | `checks_per_s` |\n|---|---|\n| `live_warm` | 2.05 M |"), 1);
    assert_eq!(flagged("Read at `9281db2`: `checks_per_s` 2.05 M."), 0);
    assert_eq!(flagged("| at `9281db2` | `checks_per_s` |\n|---|---|\n| `live_warm` | 2.05 M |"), 0);
    assert_eq!(flagged("See `checks_per_s`. A flood of 1,000 hosts."), 0);
    assert_eq!(flagged("`checks_per_s` and `rt.inbox_overflow == 0`, p50, §4, SHA-256, 10k hosts."), 0);
    assert_eq!(flagged("```\n`checks_per_s` 2.05 M\n```"), 0);
}
