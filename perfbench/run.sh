#!/usr/bin/env bash
# Builds the workload benchmark from source and runs it. Run it from the
# repository root, e.g.
#
#   bash perfbench/run.sh --workload fig5a-grid --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh -compare parent.out change.out
#
# The build, its caches and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build). The toolchain never goes to the
# network: the module has no dependencies beyond the repository itself.
set -euo pipefail

src=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off CGO_ENABLED=0
(cd "$src" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
