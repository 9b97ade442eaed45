#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (next to benchmark/, so
# inside the checkout) and runs it with the arguments given. The Go build
# cache lives there too: nothing is read or written outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/../.bench_build"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/meanet-benchmark" .)
exec "$build/meanet-benchmark" "$@"
