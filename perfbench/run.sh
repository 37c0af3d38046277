#!/usr/bin/env bash
# Builds the benchmark and the duplexityd daemon from this checkout's
# sources, then runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload tails-cold --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
export GIT_CEILING_DIRECTORIES="$(dirname "$root")"
go -C perfbench build -o "$out/perfbench" .
go build -o "$out/duplexityd" ./cmd/duplexityd
exec "$out/perfbench" -root "$root" -daemon "$out/duplexityd" "$@"
