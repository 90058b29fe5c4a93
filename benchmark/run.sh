#!/usr/bin/env bash
# Builds wfserve (from the repository this directory sits in) and the
# benchmark, then runs the benchmark with the arguments given:
#
#   bash benchmark/run.sh --workload page_hot --seed 1 --seconds 10 --trace 0
#   bash benchmark/run.sh suite | ladder | repeat --sets 2 --runs 5
#
# Build output goes to $CARGO_TARGET_DIR when set, else to target/ (wfserve)
# and benchmark/target/ (the benchmark), as plain `cargo build` would.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [ -n "${CARGO_TARGET_DIR:-}" ]; then
  case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
  esac
  export CARGO_TARGET_DIR
  serve_target="$CARGO_TARGET_DIR"
  bench_target="$CARGO_TARGET_DIR"
else
  serve_target="$root/target"
  bench_target="$here/target"
fi

# Build logs go to stderr: standard output is the benchmark's alone.
cargo build --release --offline --quiet -p wireframe-serve --bin wfserve 1>&2

# The traced run needs the ladder; the socket driver does not. If a later
# change to the workspace breaks the ladder's adapter (src/layers.rs), the
# end-to-end numbers must still come out — loudly without it.
traced=0
prev=""
for arg in "$@"; do
  if [ "$prev" = "--trace" ] && [ "$arg" = "1" ]; then traced=1; fi
  if [ "$arg" = "ladder" ]; then traced=1; fi
  prev="$arg"
done
if ! cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2; then
  if [ "$traced" = "1" ]; then
    echo "run.sh: the benchmark does not build with its ladder; a traced run is impossible" 1>&2
    exit 1
  fi
  echo "run.sh: WARNING — the ladder no longer builds; building the socket driver alone" 1>&2
  cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --no-default-features 1>&2
fi

export WFSERVE_BIN="$serve_target/release/wfserve"
export BENCH_OUT_DIR="$here/out"
BENCH_CLK_TCK="$(getconf CLK_TCK 2>/dev/null || echo 100)"
export BENCH_CLK_TCK
exec "$bench_target/release/benchmark" "$@"
