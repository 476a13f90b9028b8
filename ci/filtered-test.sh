#!/bin/sh
# Run a name-filtered `cargo test` command, and fail before running it
# when the filter matches no test: a filter left behind by a renamed or
# deleted test otherwise passes by running nothing.
#
# Usage: ci/filtered-test.sh <cargo test command...> <filter>
#   e.g. ci/filtered-test.sh cargo test -q --release -p gbatch-kernels spike
#
# The matches are counted with `-- --list` on the same command, so the
# count sees the same profile, package and targets as the run.
set -eu
if [ $# -lt 3 ]; then
    echo "usage: $0 <cargo test command...> <filter>" >&2
    exit 2
fi
for filter; do :; done
list=$("$@" -- --list)
count=$(printf '%s\n' "$list" | grep -c ': test$' || true)
echo "filter '$filter': $count tests"
if [ "$count" -eq 0 ]; then
    echo "error: filter '$filter' matches no test" >&2
    exit 1
fi
exec "$@"
