#!/usr/bin/env python3
"""Runs every `cargo` and `wanacl` command line the documents show.

The commands come from README.md, EXPERIMENTS.md and the verify skill
(`.claude/skills/verify/SKILL.md`):
  - in a ```console block, each `$ ` line, joined with its `\\`
    continuation lines;
  - in a ```bash or ```sh block, each line whose first word (after any
    `VAR=value` assignments) is `cargo` or `wanacl`;
  - in the prose, each backticked span that starts with `cargo ` or
    `wanacl ` and passes an option, unless it is a template (`<name>`,
    `[--flag N]`, `...`, or a capital placeholder such as `--seed S`).
    A span with no option (`wanacl chaos`, `cargo test`) names a
    command, it does not show one.
A trailing `# comment` is dropped; a comment that says "must fail"
expects exit 1, the CLI's code for an oracle violation (a usage error
exits 2, a build error 101: both fail here). A leading `wanacl` is the release binary,
`target/release/wanacl`. `repro_all > repro_output.txt` is skipped:
tier-1 compares that file with `repro_all`'s output, and the command
would overwrite it.

Each command runs under `bash -c`, in order, in a scratch copy of the
tree (tracked files and untracked ones git does not ignore) with its
own `target/`, under a timeout of `TIMEOUT` seconds; on a timeout its
whole process group is killed. Each prints its exit status and wall
time, and a failed one the tail of its output. The copy is removed at
the end. A retired flag that survives in the prose fails here.

Usage: scripts/doc_commands.py    # exit 1 if any command failed
"""

import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time

DOCS = ["README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP = re.compile(r"--bin repro_all\s*>\s*repro_output\.txt")
TEMPLATE = re.compile(r"[<\[…]|\.\.\.|\s(?:[A-Z]+)(?:\s|$)")
LEADING = re.compile(r"^(?:[A-Z_]+=\S+\s+)*(?:cargo|wanacl)\s")
TIMEOUT = 1200


def strip_comment(line):
    """The command without its trailing `# comment`, and the comment."""
    match = re.search(r"\s#(.*)$", line)
    if match is None:
        return line.rstrip(), ""
    return line[: match.start()].rstrip(), match.group(1)


def from_console(lines):
    commands, pending = [], None
    for line in lines:
        if pending is not None:
            pending += " " + line.strip()
        elif line.startswith("$ "):
            pending = line[2:]
        else:
            continue
        command, comment = strip_comment(pending)
        if command.endswith("\\"):
            pending = command[:-1].rstrip()
            continue
        commands.append((command, comment))
        pending = None
    return commands


def from_script(lines):
    commands = []
    for line in lines:
        command, comment = strip_comment(line.strip())
        if LEADING.match(command):
            commands.append((command, comment))
    return commands


def from_prose(text):
    commands = []
    for span in re.findall(r"`([^`]+)`", text):
        span = " ".join(span.split())
        if LEADING.match(span) and " -" in span and not TEMPLATE.search(span):
            commands.append((span, ""))
    return commands


def extract(path):
    """Every command `path` shows, in document order, with its comment."""
    with open(path) as f:
        lines = f.read().split("\n")
    commands, prose, fence = [], [], None
    block = []
    for line in lines:
        marker = line.strip()
        if fence is None and marker.startswith("```"):
            commands += from_prose("\n".join(prose))
            prose, fence, block = [], marker[3:].strip(), []
        elif fence is not None and marker.startswith("```"):
            if fence == "console":
                commands += from_console(block)
            elif fence in ("bash", "sh"):
                commands += from_script(block)
            fence = None
        elif fence is not None:
            block.append(line)
        else:
            prose.append(line)
    commands += from_prose("\n".join(prose))
    return commands


def shell_form(command):
    if command.startswith("wanacl "):
        return "target/release/" + command
    return command


def copy_tree(dest):
    files = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout.split(b"\0")
    for name in files:
        if not name:
            continue
        rel = name.decode()
        src = os.path.join(ROOT, rel)
        if not os.path.isfile(src):
            continue
        os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
        shutil.copy2(src, os.path.join(dest, rel))


def run(command, cwd, log):
    """The command's exit code, or "timeout" after killing its group."""
    proc = subprocess.Popen(
        ["bash", "-o", "pipefail", "-c", shell_form(command)],
        cwd=cwd, stdout=log, stderr=subprocess.STDOUT, start_new_session=True,
    )
    try:
        return proc.wait(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def main():
    commands = []
    for doc in DOCS:
        for command, comment in extract(os.path.join(ROOT, doc)):
            commands.append((doc, command, "must fail" in comment))

    failed = 0
    with tempfile.TemporaryDirectory(prefix="doc-commands-") as scratch:
        tree = os.path.join(scratch, "tree")
        copy_tree(tree)
        for n, (doc, command, must_fail) in enumerate(commands, 1):
            if SKIP.search(command):
                print(f"[skip] {doc}: {command}   (tier-1 checks this file)", flush=True)
                continue
            log_path = os.path.join(scratch, f"{n:02}.log")
            start = time.monotonic()
            with open(log_path, "w") as log:
                code = run(command, tree, log)
            wall = time.monotonic() - start
            ok = code == (1 if must_fail else 0)
            failed += not ok
            verdict = "ok" if ok else "FAIL"
            print(f"[{verdict}] {wall:7.1f} s  exit {code}  {doc}: {command}", flush=True)
            if not ok:
                with open(log_path) as log:
                    sys.stdout.write("".join(log.readlines()[-20:]))
    print(f"{len(commands)} commands, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
