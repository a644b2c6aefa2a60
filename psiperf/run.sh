#!/usr/bin/env bash
# Builds psiperf from source and runs it with the given arguments, from
# the root of a checkout:
#
#   bash psiperf/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, WAL
# directories) stays under .bench_build in the working directory.
set -euo pipefail
out="$(pwd)/.bench_build"
src="$(cd "$(dirname "$0")" && pwd)"
mkdir -p "$out/gocache" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$src" && go build -o "$out/psiperf" .)
exec "$out/psiperf" "$@"
