#!/usr/bin/env bash
# Builds the nfd benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash nfdbench/run.sh --workload sketch-vm --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, the binary and the run
# records.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOWORK=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local
(cd "$bench" && go build -buildvcs=false -o "$out/nfdbench" .)

# The commit is recorded when the checkout is a git work tree; git is
# not allowed to look above the checkout for one.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
exec "$out/nfdbench" --commit "$commit" --out "$out/runs" "$@"
