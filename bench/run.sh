#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory (the
# root of a checkout) and runs it with the arguments given. Everything the
# build and the runs write — Go's caches included — stays under that
# directory, which the root .gitignore names.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ ! -f "$here/../go.mod" ]; then
	echo "bench: $here is not inside the apf module (no ../go.mod); nothing to benchmark" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTELEMETRYDIR="$build/gotelemetry"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/apf-bench" .)
exec "$build/apf-bench" -tmp "$build/tmp" "$@"
