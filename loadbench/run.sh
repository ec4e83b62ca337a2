#!/usr/bin/env bash
# Builds loadbench from the checkout's sources and runs it with the given
# arguments:
#
#   bash loadbench/run.sh --workload lenet-serve --seed 1 --seconds 30 --trace 0
#
# Run it from the module root. Build outputs, the Go build cache and span
# files go to $CARGO_TARGET_DIR (default .bench_build) inside the checkout;
# nothing is fetched from the network.
set -euo pipefail

if [[ ! -f go.mod || ! -d loadbench ]]; then
	echo "loadbench: run from the module root (go.mod and loadbench/ not found in $(pwd))" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

go build -o "$out/loadbench" ./loadbench
exec "$out/loadbench" --outdir "$out" "$@"
