#!/usr/bin/env bash
# Builds and runs the wfload benchmark from the repository root, keeping
# every build artifact and cache under .bench_build/ in that root:
#
#   bash wfload/run.sh --workload hiring-long --seed 1 --seconds 20 --trace 0
#
# Arguments are passed to wfload unchanged.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
# The benchmark and the server build from this checkout alone.
export GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off

go -C "$root/wfload" build -o "$out/wfload" .
exec "$out/wfload" -root "$root" "$@"
