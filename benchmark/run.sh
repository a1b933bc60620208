#!/usr/bin/env bash
# The one command BENCHMARK.json points at:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --smoke        # all three workloads, shrunk; gates nothing
#
# Builds lifecycle_bench offline from source (a no-op when it is up to
# date) and runs it. Everything the build and the run write stays under the
# target directory: $CARGO_TARGET_DIR when set, target/benchmark otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target/benchmark}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac

cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" --target-dir "$target" >&2

# `storage::convert_edge_list` spills its sort chunks under the system
# temp dir; keep that inside the checkout too.
export TMPDIR="$target/lifecycle_bench_tmp"
mkdir -p "$TMPDIR"

exec "$target/release/lifecycle_bench" --workdir "$target/lifecycle_bench_work" "$@"
