#!/usr/bin/env bash
# The benchmark's one command:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the benchmark package (a no-op after the first call) and runs the
# binary the arguments ask for: `bench` for the timed end-to-end run and
# for `--compare`, `bench_traced` (span recorder + counting allocator) for
# `--trace 1`.  Works from any directory; the build lands in
# $CARGO_TARGET_DIR if set (resolved against the caller's directory, as
# cargo does), else in benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --bins >&2

binary=bench
previous=
for argument in "$@"; do
    if [[ "$previous" == --trace && "$argument" == 1 ]]; then
        binary=bench_traced
    fi
    previous="$argument"
done
exec "$target/release/$binary" "$@"
