#!/usr/bin/env bash
# Builds sraaperf from the source tree it sits in and runs it with the
# given arguments, from the root of that tree:
#
#   bash cmd/sraaperf/run.sh --workload batch-synth --seed 1 --seconds 15 --trace 0
#
# Everything the Go toolchain would write under $HOME or the temporary
# directory (build cache, module cache, telemetry, work files) goes to
# .bench_build at the root instead, so a run reads and writes nothing
# outside the tree.
set -euo pipefail

root="$(cd "$(dirname "$0")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"

export HOME="$build/home"
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-buildvcs=false

go -C "$root/cmd/sraaperf" build -o "$build/sraaperf" .
cd "$root"
exec "$build/sraaperf" "$@"
