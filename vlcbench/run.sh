#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the checkout's root:
#
#   bash vlcbench/run.sh --workload link_frames --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files and the binary. The build
# needs the repository's own sources (the root go.mod and internal/); in
# a directory without them it fails and the script exits non-zero.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/vlcbench/go.mod" ]]; then
	echo "run.sh: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/vlcbench" build -o "$out/bin/vlcbench" .
exec "$out/bin/vlcbench" "$@"
