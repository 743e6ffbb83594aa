#!/usr/bin/env bash
# Builds briq-server, briq-train and the benchmark client from the checkout
# this script sits in, trains the model bundle once per checkout, and runs
# one benchmark workload:
#
#   bash perfbench/run.sh --workload align-cold --seed 1 --seconds 20 --trace 0
#
# Every build output, cache and temporary file stays under .bench_build/ in
# the checkout root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/home" "$out/tmp"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off TMPDIR="$out/tmp"

# The benchmark builds the briq module it sits in; without it there is
# nothing to measure.
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no briq module at $root (go.mod missing)" >&2
	exit 1
fi

# With telemetry on, the go command forks a detached sidecar process that
# outlives the build. Turn it off in this HOME before any other go command;
# "go telemetry off" itself starts no sidecar.
go telemetry off

go -C "$root/perfbench" build -o "$out/bin/" briq/cmd/briq-server briq/cmd/briq-train
go -C "$root/perfbench" build -o "$out/bin/perfbench" .

# The model is part of the system under test, not of a workload's inputs:
# one bundle per checkout, trained with the briq-train defaults.
if [ ! -s "$out/briq.model" ]; then
	"$out/bin/briq-train" -out "$out/briq.model.tmp" -seed 42 >&2
	mv "$out/briq.model.tmp" "$out/briq.model"
fi

cd "$root"
exec "$out/bin/perfbench" -bin "$out/bin" -model "$out/briq.model" -work "$out" "$@"
