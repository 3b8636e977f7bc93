#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in (the repository root)
# and runs it with the given flags, e.g.
#   bash perfbench/run.sh --workload chain --seed 1 --seconds 25 --trace 0
# Build cache, temporary files, Go's config and telemetry files, and the
# binary stay under $CARGO_TARGET_DIR (default .bench_build) inside the
# checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
