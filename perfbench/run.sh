#!/usr/bin/env bash
# Builds the EchoWrite benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload words-http-paced --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and span dumps stay under .bench_build/
# in the checkout. The build fails, and the script exits non-zero, when the
# program's sources are missing.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
