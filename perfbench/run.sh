#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the root of a checkout. Every build artifact (Go build cache,
# binary) and every scratch file the benchmark writes stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the toolchain's config and telemetry counters here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=
# The benchmark module replaces the pythia module with the checkout root; in
# a directory holding only the benchmark this build fails, and so does the run.
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
