#!/usr/bin/env python3
"""Prints self and inclusive shares from the sample files sampler.c writes.

Every address is looked up with `addr2line -f -C -i -a`, inlined frames
included; a return address is looked up one byte back, at its call. A
function's *self* share is the samples whose interrupted PC lies in it
(its innermost inlined frame); its *inclusive* share is the samples with
it anywhere on the chain, each sample counted once per function.
Functions that lie on exactly the same samples (a run of wrappers, such
as the std runtime's frames above `main`) make one inclusive row: the
innermost of them, with the count of outer frames folded into it.

Usage: report.py [--threads REGEX] FILE...
"""

import argparse
import collections
import os
import re
import subprocess
import sys

# Rows each table lists.
TOP = 25


def parse(paths):
    threads, segments, samples, dropped = {}, [], [], 0
    for path in paths:
        with open(path) as f:
            for line in f:
                kind, _, rest = line.rstrip("\n").partition(" ")
                if kind == "T":
                    tid, _, name = rest.partition(" ")
                    threads[int(tid)] = name
                elif kind == "L":
                    start, end, bias, obj = rest.split(" ", 3)
                    segments.append((int(start, 16), int(end, 16), int(bias, 16), obj))
                elif kind == "S":
                    words = rest.split()
                    frames = [int(words[1], 16)] + [int(w, 16) - 1 for w in words[2:]]
                    samples.append((int(words[0]), frames))
                elif kind == "D":
                    dropped += int(rest)
    return threads, segments, samples, dropped


def symbolize(addresses, segments):
    """Maps each address to its function names, innermost first."""
    by_object = collections.defaultdict(list)
    names = {}
    for addr in addresses:
        for start, end, bias, obj in segments:
            if start <= addr < end:
                by_object[obj].append((addr, addr - bias))
                break
        else:
            names[addr] = ["?? (unmapped)"]
    for obj, pairs in by_object.items():
        query = "".join(f"{vaddr:x}\n" for _, vaddr in pairs)
        out = subprocess.run(
            ["addr2line", "-f", "-C", "-i", "-a", "-e", obj],
            input=query, capture_output=True, text=True, check=False,
        ).stdout.splitlines()
        # `-a` heads each address's answer with the address; then come
        # (function, file:line) pairs, innermost inlined frame first.
        chains = []
        for line in out:
            if line.startswith("0x"):
                chains.append([])
            elif chains:
                chains[-1].append(line)
        label = os.path.basename(obj)
        for (addr, _), chain in zip(pairs, chains):
            funcs = [re.sub(r"::h[0-9a-f]{16}$", "", f) for f in chain[0::2]]
            funcs = [f if f != "??" else f"?? ({label})" for f in funcs]
            names[addr] = funcs or [f"?? ({label})"]
        for addr, _ in pairs[len(chains):]:
            names[addr] = [f"?? ({label})"]
    return names


def inclusive_rows(chains):
    """(samples, innermost function, frames folded) per distinct sample set."""
    samples_of = collections.defaultdict(set)
    for i, chain in enumerate(chains):
        for func in chain:
            samples_of[func].add(i)
    groups = collections.defaultdict(list)
    for func, ids in samples_of.items():
        groups[frozenset(ids)].append(func)
    rows = []
    for ids, funcs in groups.items():
        chain = chains[min(ids)]
        inner = min(funcs, key=chain.index)
        rows.append((len(ids), inner, len(funcs) - 1))
    rows.sort(key=lambda row: (-row[0], row[1]))
    return rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--threads", default=".", help="regex on thread names to keep")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()
    threads, segments, samples, dropped = parse(args.files)
    per_thread = collections.Counter(
        re.sub(r"\d+$", "N", threads.get(tid, "?")) for tid, _ in samples
    )
    keep = re.compile(args.threads)
    kept = [frames for tid, frames in samples if keep.search(threads.get(tid, "?"))]
    names = symbolize({a for frames in kept for a in frames}, segments)
    chains = [[f for a in frames for f in names[a]] for frames in kept]
    self_count = collections.Counter(chain[0] for chain in chains)
    print(f"samples {len(samples)} (dropped {dropped}); threads matching /{args.threads}/: {len(kept)}")
    for name, n in per_thread.most_common():
        print(f"  thread {name:<24} {n:>8}")
    total = max(len(kept), 1)
    print(f"\n{'self':>9}   samples  function")
    for name, n in self_count.most_common(TOP):
        print(f"{100 * n / total:8.1f}%  {n:>8}  {name}")
    print(f"\n{'inclusive':>9}   samples  function (+ outer frames on the same samples)")
    for n, name, folded in inclusive_rows(chains)[:TOP]:
        more = f" (+{folded})" if folded else ""
        print(f"{100 * n / total:8.1f}%  {n:>8}  {name}{more}")
    return 0 if kept else 1


if __name__ == "__main__":
    sys.exit(main())
