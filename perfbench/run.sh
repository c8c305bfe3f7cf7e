#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build caches, the binary and everything a run writes stay under
# .bench_build in the current directory.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Runtime knobs from the caller's shell would change what is measured.
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
