#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there, so that everything the run reads and
# writes (go's build cache included) stays inside the checkout. The driver's
# command is `bash benchmark/run.sh --workload W --seed N --seconds S --trace T`;
# any other flag of the program passes through the same way.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/acuerdo-benchmark" .)
cd "$root"
exec "$build/acuerdo-benchmark" "$@"
