#!/usr/bin/env bash
# Builds the benchmark (release, offline, locked) and runs it.
#
#   benchmark/run.sh                          all four workloads -> benchmark/out/results.json
#   benchmark/run.sh --runs 3 --out FILE      ... three times over, seeds N, N+1, N+2
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one workload; the last line of stdout is its result
#   benchmark/run.sh --check A.json B.json    compare two result files under BENCHMARK.json's bounds
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Unless the caller chose a target directory, share the root workspace's, so
# a warm `target/release` is reused rather than rebuilt.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
# The build's chatter goes to stderr; stdout belongs to the results. The lock
# file only names this repo's own crates; if a later change adds one, build
# unlocked rather than not at all.
build=(cargo build --release --offline --manifest-path benchmark/Cargo.toml)
"${build[@]}" --locked 1>&2 || {
  echo "run.sh: the locked build failed; retrying without --locked" >&2
  "${build[@]}" 1>&2
}
case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/ioql-benchmark" ;;
  *) bin="$root/$CARGO_TARGET_DIR/release/ioql-benchmark" ;;
esac

export BENCH_GIT_REV="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_OS="$(uname -sr 2>/dev/null || echo unknown)"

case "${1:-}" in
  --check) shift; exec "$bin" check "$@" ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" "$@"
  fi
done
exec "$bin" all "$@"
