#!/usr/bin/env bash
# Builds the serving benchmark from the checkout it is run in, then runs it
# with every argument passed through. Run it from the repository root:
#
#	bash perfbench/run.sh --workload solve-hot --seed 1 --seconds 30 --trace 0
#	bash perfbench/run.sh steady --workload solve-hot --runs 5
#
# The build cache and the binary live in .bench_build/ at the root, so the
# benchmark reads and writes nothing outside the checkout. Without the
# repository's sources beside it the build fails and the script exits non-zero.
set -euo pipefail
root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
