#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload paper-tcp --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# span dumps and the WAL/checkpoint scratch files.
set -euo pipefail

root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" TMPDIR="$out/gotmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS= GOENV=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
