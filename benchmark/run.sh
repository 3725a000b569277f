#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash benchmark/run.sh --workload mixed-sync --seed 1 --seconds 25 --trace 0
#
# With no arguments it runs every workload. The Go build and module
# caches, temporary files and the binary stay in the build directory
# ($CARGO_TARGET_DIR, default .bench_build) inside the checkout; scratch
# stores and trace files go to benchmark/out. The build needs no network.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$build/lufbench" .)
exec "$build/lufbench" "$@"
