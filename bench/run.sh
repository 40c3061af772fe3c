#!/usr/bin/env bash
# Builds cqual, cquald and the benchmark (harness and probe) from this
# checkout's source, then runs one benchmark workload. Run it from the
# root of a checkout:
#
#   bash bench/run.sh --workload c_batch --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build), including the Go build cache and temporary
# files. The toolchain is the local one; nothing is downloaded.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d cmd/cqual ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a checkout" >&2
	exit 2
fi
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$PWD/$build ;;
esac
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
GOROOT=$(go env GOROOT)
export GOROOT
go build -o "$build/bin/" ./cmd/cqual ./cmd/cquald
(cd bench && go build -o "$build/bin/" . ./probe)
BENCH_BIN=$build/bin exec "$build/bin/bench" "$@"
