#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments (see README.md). Build output, per-seed fingerprints and
# result files all stay under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" -state "$out" "$@"
