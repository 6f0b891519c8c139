#!/usr/bin/env bash
# Builds perfbench from source and runs one measurement:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Build outputs, the Go build cache and
# the run's temporary store all live under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f EXPERIMENTS.md || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, EXPERIMENTS.md and perfbench/ are needed)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)

exec "$out/perfbench" --expected EXPERIMENTS.md --tmp "$out/tmp" "$@"
