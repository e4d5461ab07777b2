#!/usr/bin/env bash
# Builds mcopt, mcserved and the benchmark from source, then runs the
# benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload all --seed 1 --seconds 40 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build/.
set -euo pipefail

cd "$(dirname "$0")/.."
if [[ ! -f go.mod || ! -d cmd/mcopt || ! -d cmd/mcserved ]]; then
	echo "perfbench: the program's sources (go.mod, cmd/mcopt, cmd/mcserved) are not next to perfbench/" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=

go build -o "$out/bin/" ./cmd/mcopt ./cmd/mcserved >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" --bin "$out/bin" --work "$out" "$@"
