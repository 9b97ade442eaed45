// Command benchmark is the edge-cloud serving benchmark: six closed-loop
// workloads over one trained bench system, end-to-end metrics measured with
// tracing off, per-layer metrics from a separate traced pass whose every
// number is taken from outside the repo's packages (see README.md).
//
//	bash benchmark/run.sh --workload offload-wan --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1          # the whole suite, both passes
//	bash benchmark/run.sh -aa 3            # A/A: three suites, gaps against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	var (
		name       = flag.String("workload", "", "run one workload and print the contract's result line; empty runs the whole suite")
		seed       = flag.Int64("seed", 1, "stream seed: the order of requests, the replica router's tie-breaks, the sample order of the timed training calls")
		systemSeed = flag.Int64("system-seed", 1, "bench-system seed: dataset, weights, training order (claims must also hold on one not used in development)")
		seconds    = flag.Float64("seconds", 10, "measured window per workload, and the length of the traced pass")
		traceMode  = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of the traced pass")
		aa         = flag.Int("aa", 0, "run the suite N times on the same code and compare every metric against its bound")
		smoke      = flag.Bool("smoke", false, "tiny system and 0.3 s windows: exercises every seam, measures nothing")
		outDir     = flag.String("out", "", "directory for trace-<workload>.json (default: traces are not written)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatalf("unexpected argument %q", flag.Arg(0))
	}
	opt := options{
		window: time.Duration(*seconds * float64(time.Second)),
		warmup: 400 * time.Millisecond,
		setups: 3,
		nproc:  runtime.NumCPU(),
		outDir: *outDir,
	}
	rc := benchRecipe
	if *smoke {
		opt.window, opt.warmup, opt.setups, opt.quick, rc = 300*time.Millisecond, 50*time.Millisecond, 1, true, smokeRecipe
	}
	if opt.window <= 0 {
		fatalf("-seconds must be positive")
	}

	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			fatalf("unknown workload %q", *name)
		}
		sys := mustBuild(*systemSeed, *seed, rc)
		run := runEndToEnd
		if *traceMode != 0 {
			run = runTraced
		}
		res, err := run(w, sys, opt)
		if err != nil {
			fatalf("%s: %v", w.name, err)
		}
		exitIfWrong(res)
		emit(map[string]any{"host": fingerprint(sys, opt), "detail": res.Detail})
		// The contract's result line: last on stdout, exactly these keys.
		emit(map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics})
		return
	}

	var suites []suite
	for i := 0; i < max(*aa, 1); i++ {
		sys := mustBuild(*systemSeed, *seed, rc)
		s, err := runSuite(sys, opt)
		if err != nil {
			fatalf("%v", err)
		}
		suites = append(suites, s)
		if i == 0 {
			emit(map[string]any{"host": fingerprint(sys, opt), "metrics": describeMetrics(), "workloads": s})
		}
	}
	if *aa > 1 && !reportAA(os.Stdout, suites) {
		os.Exit(1)
	}
}

// suiteRun is one workload's two passes.
type suiteRun struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

type suite map[string]suiteRun

// runSuite runs the six workloads in sequence on one system: the measured
// window with tracing off, then the traced pass.
func runSuite(sys *system, opt options) (suite, error) {
	out := suite{}
	for _, w := range workloads {
		e2e, err := runEndToEnd(w, sys, opt)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		exitIfWrong(e2e)
		layers, err := runTraced(w, sys, opt)
		if err != nil {
			return nil, fmt.Errorf("%s (traced): %w", w.name, err)
		}
		exitIfWrong(layers)
		out[w.name] = suiteRun{e2e, layers}
	}
	return out, nil
}

// describeMetrics prints the tables: each end-to-end metric's definition and
// bound, and for each per-layer metric the end-to-end metric and workload it
// is expected to move (BENCHMARK.json's fixed keys have no room for either).
func describeMetrics() map[string]any {
	out := map[string]any{}
	for _, m := range endToEndMetrics {
		out[m.name] = map[string]any{"unit": m.unit, "better": m.better, "bound": m.bound, "definition": m.def}
	}
	for _, m := range layerMetrics {
		out[m.name] = map[string]any{"unit": m.unit, "better": m.better, "moves": m.moves}
	}
	return out
}

func mustBuild(systemSeed, streamSeed int64, rc recipe) *system {
	sys, err := buildSystem(systemSeed, streamSeed, rc)
	if err != nil {
		fatalf("build bench system: %v", err)
	}
	return sys
}

// exitIfWrong is the correctness gate's last step: a wrong-but-fast change
// cannot post a number.
func exitIfWrong(res *result) {
	if !res.Correct {
		fatalf("%s: INCORRECT: %s", res.Workload, res.Problem)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}

// emit prints v as one line of JSON on stdout.
func emit(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fatalf("encode output: %v", err)
	}
	fmt.Println(string(data))
}

// fingerprint records where and how the numbers were taken.
func fingerprint(sys *system, opt options) map[string]any {
	commit := "unknown" // a checkout that is not a git repository carries none
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":       opt.nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"cpu":         cpuModel(),
		"commit":      commit,
		"seed":        sys.streamSeed,
		"system_seed": sys.seed,
		"window_s":    opt.window.Seconds(),
		"warmup_s":    opt.warmup.Seconds(),
		"setups":      opt.setups,
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
