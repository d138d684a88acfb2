#!/bin/sh
# Samples where a wanbench run spends its CPU, and prints each function's
# self and inclusive share of the samples.
#
# It builds wanbench with frame pointers and line tables into a target
# directory of its own (target/profile, so no other build is disturbed),
# preloads scripts/profile/sampler.c into the run (SIGPROF on
# ITIMER_PROF, this process only, 997 Hz) and hands the samples to
# scripts/profile/report.py, which resolves them with addr2line. The
# arguments are wanbench's own.
#
# Usage, from anywhere in the repository:
#   scripts/profile.sh run --workload sim_campaign --seed 3 --seconds 20
#   PROFILE_THREADS=rt-worker scripts/profile.sh run --workload live_warm --seconds 10
# PROFILE_THREADS is a regex on thread names (default: every thread).
# Exits with wanbench's status if that is not 0, else with the report's
# (1 when no sample matched).
set -eu
cd "$(dirname "$0")/.."
dir=target/profile
mkdir -p "$dir"
cc -O2 -shared -fPIC -o "$dir/sampler.so" scripts/profile/sampler.c
RUSTFLAGS="-Cforce-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=line-tables-only \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$dir"
rm -f "$dir"/samples.*
status=0
SAMPLER_OUT="$dir/samples" LD_PRELOAD="$PWD/$dir/sampler.so" "$dir/release/wanbench" "$@" || status=$?
python3 scripts/profile/report.py --threads "${PROFILE_THREADS:-.}" "$dir"/samples.*
exit "$status"
