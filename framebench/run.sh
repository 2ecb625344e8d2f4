#!/usr/bin/env bash
# Builds the frame-path benchmark and cmd/hideseekd from the source tree it
# sits in, then runs the benchmark with the given arguments. Run it from the
# repository root:
#
#   bash framebench/run.sh --workload zigbee-stream --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, span
# dumps) stays under .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off

(
	cd "$here"
	go build -o "$out/framebench" .
	go build -o "$out/hideseekd" hideseek/cmd/hideseekd
) >&2

exec "$out/framebench" -daemon "$out/hideseekd" -outdir "$out" "$@"
