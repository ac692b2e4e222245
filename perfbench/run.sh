#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; arguments
# go to the benchmark (--workload, --seed, --seconds, --trace). Run it
# from the root of the repository. Everything it builds or writes stays
# under the build directory: $CARGO_TARGET_DIR when set, else
# .bench_build.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
mkdir -p "$build/home" "$build/gotmp" "$build/perfbench"

# Keep the Go toolchain's caches, temporary files and settings inside
# the build directory, and never reach for the network.
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/gotmp" TMPDIR="$build/gotmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOTELEMETRY=off

(cd perfbench && go build -o "$build/perfbench/perfbench" .)
exec "$build/perfbench/perfbench" --dir "$build/perfbench" "$@"
