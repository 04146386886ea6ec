#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside the
# checkout, then run it with the driver's arguments
# (--workload <name> --seed <n> --seconds <s> --trace <0|1>).
#
# Everything the go tool writes — build cache, module path, temporaries, its
# own config — is pointed under .bench_build in the checkout, so the run
# touches nothing outside it. The build is repeated on every call; with a warm
# cache it is a sub-second no-op and it happens before any clock starts.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o bin/bench .)
cd "$root"
exec "$here/bin/bench" "$@"
