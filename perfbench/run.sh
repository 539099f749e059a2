#!/usr/bin/env bash
# Builds the benchmark and the classifierd daemon from this checkout,
# then runs the benchmark with the given arguments, for example:
#
#   bash perfbench/run.sh --workload acl-frames --seed 1 --seconds 10 --trace 0
#
# Binaries, the Go build cache and span files stay under .bench_build/
# in the checkout; the go command's home and config directories are
# pointed there too, and it is kept offline.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home"
if ! command -v go >/dev/null 2>&1; then
	PATH="$PATH:/usr/local/go/bin"
fi
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/classifierd" ./cmd/classifierd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -daemon "$out/classifierd" -trace-dir "$out/trace" "$@"
