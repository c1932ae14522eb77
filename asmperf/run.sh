#!/usr/bin/env bash
# Builds the asmperf benchmark from this checkout's sources and runs it,
# passing every argument through, e.g.
#
#   bash asmperf/run.sh --workload paper-cold --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files, the binary and the traced run's
# span files all live under .bench_build/asmperf in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build/asmperf"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/asmperf" .)
exec "$out/asmperf" --out-dir "$out" "$@"
