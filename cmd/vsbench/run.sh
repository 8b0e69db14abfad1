#!/usr/bin/env bash
# Builds the vsbench benchmark from source and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash cmd/vsbench/run.sh --workload classic-gpr --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, the go command's configuration and
# telemetry, and every temporary file (service and coordinator journals,
# span files) stay under .bench_build/vsbench in the current directory.
# The first run compiles the standard library into that cache; later
# runs only relink.
set -euo pipefail

src="$(cd "$(dirname "$0")" && pwd)"
out="$PWD/.bench_build/vsbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$src" build -o "$out/vsbench" .
exec "$out/vsbench" "$@"
