#!/usr/bin/env bash
# Builds querylearnd and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload mix-open --seed 1 --seconds 10 --trace 0
#   bash bench/run.sh --compare before.jsonl after.jsonl
#
# Everything the build and the runs write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, both
# binaries, the daemons' data directories and trace files.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/querylearnd || ! -f bench/go.mod ]]; then
  echo "bench/run.sh: run from the root of a querylearn checkout" >&2
  exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out = /* ]] || out=$root/$out
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/querylearnd" ./cmd/querylearnd
(cd bench && go build -o "$out/bench" .)
exec "$out/bench" -daemon "$out/querylearnd" -work "$out" "$@"
