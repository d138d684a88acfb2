#!/bin/sh
# Prints how many lines of Rust are product code and how many are tests,
# under crates, tests, examples, src and shims, or under the files and
# directories given as arguments.
#
# The rule: a line is a test line when its file
#   - lies under a directory named `tests`, or
#   - is named `tests.rs` or `*_tests.rs`,
# or when it lies at or after the file's first inline test module: a
# `#[cfg(test)]` line whose next line opens a module body (`mod name {`).
# A `#[cfg(test)]` on anything else (an out-of-line `mod name;`, a field,
# a helper method) does not start one. Every other line is a product
# line. Blank lines and comments count like code.
#
# Usage, from anywhere in the repository:
#   scripts/lines.sh                     # the whole tree
#   scripts/lines.sh crates/core/src/nameservice.rs crates/core/src/durable.rs
set -eu
cd "$(dirname "$0")/.."
[ $# -gt 0 ] || set -- crates tests examples src shims
find "$@" -name '*.rs' -not -path '*/target/*' | sort | awk '
{
    file = $0
    tests = (file ~ /(^|\/)tests\// || file ~ /(^|\/)(tests|[^\/]*_tests)\.rs$/)
    cfg = 0
    while ((getline line < file) > 0) {
        if (!tests && cfg && line ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ *\{/) {
            # The attribute line above opened the test module.
            tests = 1
            product--
            test++
        }
        if (tests) test++; else product++
        cfg = (line ~ /^[ \t]*#\[cfg\(test\)\][ \t]*$/)
    }
    close(file)
}
END {
    printf "product %d\ntest    %d\ntotal   %d\n", product, test, product + test
}'
