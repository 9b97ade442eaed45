#!/usr/bin/env bash
# benchgate.sh <base.txt> <head.txt>
#
# The CI bench-regression gate: compares two `go test -bench` outputs and
# fails (exit 1) on a >15% regression in the gated benchmarks: ns/op of
# MatMul512 and MEANetInferBatch, B/op and allocs/op of MEANetInferBatch (the
# edge forward's garbage per 16-image batch), ns/op, B/op and allocs/op of
# MEANetTrainStep (one 16-image step of the edge blocks' training), and
# ns/op, B/op and allocs/op of MEANetInferBatchMixed (the same batch with
# part of it on the extension path, the edge-only workload's shape), each by
# its best (minimum) value. The serving path is gated by benchmark/
# (BENCHMARK.json), not here.
#
# A gated benchmark the base lacks but the head has is printed NEW and
# passes, so a change can add a benchmark and gate it in one go; one the
# head lacks fails.
#
# "Best of N" over the -count repetitions damps scheduler noise on shared
# runners: a genuine regression slows the best rep too, while a noisy rep
# only inflates the worst. 15% sits far above the residual jitter of
# -benchtime=3x -count=3 on these benchmarks. B/op and allocs/op barely move
# between reps: the kernels' scratch comes from free lists the GC never
# empties, so what is left is the layers' outputs and the forks' closures.
set -euo pipefail

base=${1:?usage: benchgate.sh base.txt head.txt}
head=${2:?usage: benchgate.sh base.txt head.txt}

fail=0

# best FILE NAME UNIT: minimum value in UNIT (ns/op, B/op) among lines for
# benchmark NAME (exact name, modulo the -GOMAXPROCS suffix).
best() {
  awk -v name="$2" -v unit="$3" '
    $1 ~ ("^" name "(-[0-9]+)?$") {
      for (i = 2; i < NF; i++)
        if ($(i + 1) == unit && (best == "" || $i + 0 < best + 0)) best = $i
    }
    END { print best }
  ' "$1"
}

# gate NAME UNIT BASE HEAD: print the comparison, flip $fail on a >15% rise.
gate() {
  local name=$1 unit=$2 b=$3 h=$4
  if [ -z "$h" ]; then
    echo "benchgate: MISSING $name $unit on head (base='${b:-}')"
    fail=1
    return
  fi
  if [ -z "$b" ]; then
    echo "benchgate: NEW $name $unit = $h (absent on base, not gated)"
    return
  fi
  if ! awk -v b="$b" -v h="$h" -v name="$name" -v unit="$unit" '
    BEGIN {
      r = h / b
      bad = r > 1.15
      printf "benchgate: %-45s %14.1f -> %14.1f %-5s (%.3fx) %s\n",
        name, b, h, unit, r, bad ? "REGRESSION" : "ok"
      exit bad ? 1 : 0
    }'; then
    fail=1
  fi
}

for gated in "BenchmarkMatMul512 ns/op" "BenchmarkMEANetInferBatch ns/op" \
  "BenchmarkMEANetInferBatch B/op" "BenchmarkMEANetTrainStep ns/op" "BenchmarkMEANetTrainStep B/op" \
  "BenchmarkMEANetInferBatch allocs/op" "BenchmarkMEANetTrainStep allocs/op" \
  "BenchmarkMEANetInferBatchMixed ns/op" "BenchmarkMEANetInferBatchMixed B/op" \
  "BenchmarkMEANetInferBatchMixed allocs/op"; do
  read -r name unit <<<"$gated"
  gate "$name" "$unit" "$(best "$base" "$name" "$unit")" "$(best "$head" "$name" "$unit")"
done

if [ "$fail" -ne 0 ]; then
  echo "benchgate: FAILED — >15% regression (or missing benchmark) in gated set"
  exit 1
fi
echo "benchgate: all gated benchmarks within 15% of base"
