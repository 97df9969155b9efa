#!/usr/bin/env bash
# Builds traderd, browserd, carrentald and the load generator from this
# checkout, then runs the generator with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload import_miss --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --workload mediate --seed 1 --seconds 10 --steady 5
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there: binaries, Go's build cache, data
# directories and span files.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the root of the checkout" >&2
	exit 2
fi
for src in go.mod cmd/traderd cmd/browserd cmd/carrentald; do
	if [[ ! -e "$root/$src" ]]; then
		echo "run.sh: $src is missing; the program's sources must be in the checkout" >&2
		exit 2
	fi
done
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/run" "$build/home" "$build/tmp"

export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

# With telemetry on, every go command starts a detached upload process
# that can outlive this script; "go telemetry off" itself starts none.
go telemetry off

go build -o "$build/bin/" ./cmd/traderd ./cmd/browserd ./cmd/carrentald
go build -C perfbench -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/run" "$@"
