#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run it
# from the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
