#!/usr/bin/env bash
# The repository benchmark: build in release, then run it.
#
#   benchmark/run.sh --seed S [--workload W] [--seconds N] [--trace [0|1]] [--out FILE]
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh check          # fmt + clippy + tests for this package
#   benchmark/run.sh --selftest
#
# Works from any directory. Cargo is not told to change directory, so a
# relative CARGO_TARGET_DIR (the driver sets one) means the same place
# for the build and for the binary path below.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
manifest="$here/Cargo.toml"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

if [[ "${1:-}" == check ]]; then
    # The root gates do not reach a package outside the workspace.
    cargo fmt --manifest-path "$manifest" --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --release --manifest-path "$manifest" -q
    exit 0
fi

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$manifest" >&2

# glibc moves its mmap threshold with the order in which large blocks are
# freed, so one run of a workload keeps 10 MiB of freed set-up memory and
# the next returns it: `peak_rss_mb` read 42 or 52 MiB run by run. Fixing
# both thresholds switches the drifting off; large blocks come from the
# heap and stay there, so repeated set-ups reuse pages already faulted in.
export MALLOC_MMAP_THRESHOLD_=33554432 MALLOC_TRIM_THRESHOLD_=1073741824
RSBENCH_DIR="$here" exec "$CARGO_TARGET_DIR/release/rsbench" "$@"
