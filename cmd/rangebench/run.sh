#!/usr/bin/env bash
# Builds rangebench from source and runs it with the given arguments.
#
# Run from the repository root, e.g.
#
#   bash cmd/rangebench/run.sh -workload steady-5x20 -seed 3 -seconds 15 -trace 0
#
# Everything the build and the run write stays inside the checkout: the
# binary, the Go build cache, the go command's configuration and telemetry
# directory, and temporary files go to $CARGO_TARGET_DIR (default
# .bench_build). The build runs offline with the local toolchain.
set -euo pipefail

out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd cmd/rangebench && go build -o "$out/rangebench" .)
exec "$out/rangebench" "$@"
