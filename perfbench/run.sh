#!/usr/bin/env bash
# Builds cmd/serve, cmd/train and the benchmark driver from the checkout
# it is run in, then runs the driver with the given arguments:
#
#   bash perfbench/run.sh --workload predict-mix --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and
# temporary file stays under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/serve" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/serve and perfbench/ must be present)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off
export GOTOOLCHAIN=local

go build -o "$build/bin/serve" ./cmd/serve
go build -o "$build/bin/train" ./cmd/train
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@"
