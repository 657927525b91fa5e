#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it, passing every
# argument through:
#
#   bash e2ebench/run.sh --workload paper-sm --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the traced run's spans.json all live in
# .bench_build/e2ebench at the root of the checkout, so nothing outside the
# checkout is read or written, and nothing is fetched over the network.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$here/../.bench_build/e2ebench"
mkdir -p "$out/tmp"
out=$(cd "$out" && pwd)

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOENV=off GOWORK=off GOFLAGS=

(cd "$here" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" -spans "$out/spans.json" "$@"
