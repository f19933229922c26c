#!/usr/bin/env bash
# Builds rd2d and the e2ebench command from this checkout's sources, then
# runs e2ebench with the given arguments from the checkout root, e.g.
#
#   bash e2ebench/run.sh --workload bulk --seed 1 --seconds 10 --trace 0
#
# Build products, the Go build cache and run scratch files stay under
# .bench_build/ in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rd2d" || ! -d "$root/internal" ]]; then
	echo "e2ebench: the rd2d sources (go.mod, cmd/rd2d, internal/) are not next to $here" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path" "$build/config"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS="" GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd "$root" && go build -o "$build/rd2d" ./cmd/rd2d)
(cd "$here" && go build -o "$build/e2ebench" .)

cd "$root"
exec "$build/e2ebench" -rd2d "$build/rd2d" -workdir "$build/e2ebench-run" "$@"
