#!/usr/bin/env bash
# benchgate.sh <base.txt> <head.txt>
#
# The CI bench-regression gate: compares two `go test -bench` outputs and
# fails (exit 1) on a >15% regression in the gated benchmarks, MatMul512 and
# MEANetInferBatch, by best (minimum) ns/op. The serving path is gated by
# benchmark/ (BENCHMARK.json), not here.
#
# "Best of N" over the -count repetitions damps scheduler noise on shared
# runners: a genuine regression slows the best rep too, while a noisy rep
# only inflates the worst. 15% sits far above the residual jitter of
# -benchtime=3x -count=3 on these benchmarks.
set -euo pipefail

base=${1:?usage: benchgate.sh base.txt head.txt}
head=${2:?usage: benchgate.sh base.txt head.txt}

fail=0

# min_ns FILE NAME: minimum ns/op among lines for benchmark NAME (exact name,
# modulo the -GOMAXPROCS suffix).
min_ns() {
  awk -v name="$2" '
    $1 ~ ("^" name "(-[0-9]+)?$") {
      for (i = 2; i < NF; i++)
        if ($(i + 1) == "ns/op" && (best == "" || $i + 0 < best + 0)) best = $i
    }
    END { print best }
  ' "$1"
}

# gate NAME BASE HEAD: print the comparison, flip $fail on a >15% rise in
# ns/op.
gate() {
  local name=$1 b=$2 h=$3
  if [ -z "$b" ] || [ -z "$h" ]; then
    echo "benchgate: MISSING $name (base='${b:-}' head='${h:-}')"
    fail=1
    return
  fi
  if ! awk -v b="$b" -v h="$h" -v name="$name" '
    BEGIN {
      r = h / b
      bad = r > 1.15
      printf "benchgate: %-45s %14.1f -> %14.1f ns/op (%.3fx) %s\n",
        name, b, h, r, bad ? "REGRESSION" : "ok"
      exit bad ? 1 : 0
    }'; then
    fail=1
  fi
}

for name in BenchmarkMatMul512 BenchmarkMEANetInferBatch; do
  gate "$name" "$(min_ns "$base" "$name")" "$(min_ns "$head" "$name")"
done

if [ "$fail" -ne 0 ]; then
  echo "benchgate: FAILED — >15% regression (or missing benchmark) in gated set"
  exit 1
fi
echo "benchgate: all gated benchmarks within 15% of base"
