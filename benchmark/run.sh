#!/usr/bin/env bash
# Builds the benchmark from source (once per checkout) and runs it with the
# arguments given. Run from anywhere; everything it writes stays inside the
# checkout: the binary and the Go caches under .bench_build/, traces and
# samples under benchmark/out/.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
bin="$build/crackbenchmark"

if [ ! -f "$root/go.mod" ]; then
	echo "benchmark: $root is not the repository (no go.mod); the benchmark builds against it" >&2
	exit 3
fi

# Rebuild only when a source file is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$bin" -print -quit)" ]; then
	mkdir -p "$build/tmp"
	(
		cd "$here"
		GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
			GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off \
			go build -o "$bin" .
	)
fi

cd "$root"
exec "$bin" "$@"
