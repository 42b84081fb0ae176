#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-k8 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout: the Go build cache, the
# binary, the campaign stores and the span files.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ are needed)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export TMPDIR=$out/tmp GOTMPDIR=$out/tmp GOCACHE=$out/go-cache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTELEMETRY=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spec "$root/BENCHMARK.json" --out "$out" "$@"
