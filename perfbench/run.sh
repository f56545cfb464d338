#!/usr/bin/env bash
# Builds the whole-job benchmark from source and runs it from the
# repository root; every argument passes through to the binary:
#
#   bash perfbench/run.sh --workload wc-mem --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and traced runs' span files stay under
# .bench_build in the current directory.
set -euo pipefail

out="$PWD/.bench_build/perfbench"
mkdir -p "$out/home"
(
	cd "$(dirname "$0")"
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" GOCACHE="$out/gocache" \
		GOPATH="$out/gopath" GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
		go build -o "$out/perfbench" .
)
exec "$out/perfbench" "$@"
