package main

import (
	"encoding/json"
	"flag"
	"go/parser"
	"go/token"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, // fewer than ten samples beyond the median
		{20, 50, true},
		{99, 50, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := highestPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	sorted := make([]float64, 200)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 100, 95: 190, 99: 198, 100: 200, 0.1: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..200, %v) = %v, want %v", p, got, want)
		}
	}
	// Exactly ten samples lie beyond the p95 of 200.
	if beyond := len(sorted) - int(percentile(sorted, 95)); beyond != 10 {
		t.Errorf("%d samples beyond p95 of 200, want 10", beyond)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestSelfTimeFromNestedSpans(t *testing.T) {
	// call [0,100] contains forward [10,40] and write [50,90]; write contains
	// wire [60,80]. A second call [200,230] has two overlapping children that
	// together cover [205,225].
	spans := []span{
		{Name: "wire", Start: 60, End: 80},
		{Name: "call", Start: 0, End: 100},
		{Name: "write", Start: 50, End: 90},
		{Name: "forward", Start: 10, End: 40},
		{Name: "call", Start: 200, End: 230},
		{Name: "forward", Start: 205, End: 220},
		{Name: "write", Start: 215, End: 225},
	}
	assignParents(spans)
	parentName := func(i int) string {
		if spans[i].Parent < 0 {
			return ""
		}
		return spans[spans[i].Parent].Name
	}
	for i, sp := range spans {
		want := map[string]string{"call": "", "forward": "call", "write": "call", "wire": "write"}[sp.Name]
		if got := parentName(i); got != want {
			t.Errorf("span %s [%d,%d]: parent %q, want %q", sp.Name, sp.Start, sp.End, got, want)
		}
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{
		"call":    (100 - 30 - 40) + (30 - 20), // children cover 70 of 100, then 20 of 30
		"forward": 30 + 15,
		"write":   (40 - 20) + 10,
		"wire":    20,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
}

func TestSeamConnCountsBytesAndWrites(t *testing.T) {
	tr := newTracer()
	client, server := net.Pipe()
	defer server.Close()
	c := tr.seam(client, "uplink")
	defer c.Close()
	go func() {
		buf := make([]byte, 64)
		for _, n := range []int{5, 7} { // net.Pipe delivers one Write per Read
			io.ReadFull(server, buf[:n])
		}
		server.Write([]byte("reply!"))
	}()
	tr.recording.Store(true)
	for _, msg := range []string{"hello", "seventy"} {
		if _, err := c.Write([]byte(msg)); err != nil {
			t.Fatal(err)
		}
	}
	reply := make([]byte, 6)
	if _, err := io.ReadFull(c, reply); err != nil {
		t.Fatal(err)
	}
	got := tr.connTotalsOf("uplink")
	if got.bytesOut != 12 || got.writes != 2 || got.bytesIn != 6 || got.reads < 1 {
		t.Errorf("totals = %+v, want 12 bytes in 2 writes out, 6 bytes in", got)
	}
	m := c.takeMarks()
	if m.firstWriteStart.IsZero() || m.lastWriteEnd.Before(m.firstWriteStart) ||
		m.firstReadEnd.Before(m.lastWriteEnd) || m.lastReadEnd.Before(m.firstReadEnd) {
		t.Errorf("marks out of order: %+v", m)
	}
	if again := c.takeMarks(); !again.firstWriteStart.IsZero() {
		t.Error("takeMarks did not clear the marks")
	}
	names := map[string]int{}
	for _, sp := range tr.spans {
		names[sp.Name]++
	}
	if names["conn.write.uplink"] != 2 || names["conn.read_wait.uplink"] < 1 {
		t.Errorf("recorded spans %v, want 2 writes and a read wait", names)
	}
}

func TestCalibrateThresholdHitsBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{600, 96, 37} {
		entropies := make([]float64, n)
		for i := range entropies {
			entropies[i] = rng.Float64() * 3
		}
		th, err := calibrateThreshold(entropies, targetBeta)
		if err != nil {
			t.Fatal(err)
		}
		up := 0
		for _, e := range entropies {
			if e > th {
				up++
			}
		}
		if diff := math.Abs(float64(up) - targetBeta*float64(n)); diff > 1 {
			t.Errorf("n=%d: threshold %v offloads %d, want %.1f +- 1", n, th, up, targetBeta*float64(n))
		}
	}
	if _, err := calibrateThreshold([]float64{1, 1, 1, 1}, 0.25); err == nil {
		t.Error("a tie at the cut must be an error, not a silently different beta")
	}
}

// TestSmokeSuite exercises all six workloads end to end, both passes, on a
// tiny system, so a refactor that breaks a seam fails here.
func TestSmokeSuite(t *testing.T) {
	sys, err := buildSystem(1, 1, smokeRecipe)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptance criterion on a full cycle of the stream: exactly
	// round(0.25 n) instances exit at the cloud.
	up := 0
	for _, o := range sys.offloads {
		if o {
			up++
		}
	}
	if want := int(math.Round(targetBeta * float64(sys.test.N))); up != want {
		t.Errorf("%d of %d stream instances offload, want %d", up, sys.test.N, want)
	}
	opt := options{window: 100 * time.Millisecond, warmup: 20 * time.Millisecond, setups: 1, nproc: 2, outDir: t.TempDir(), quick: true}
	for _, w := range workloads {
		e2e, err := runEndToEnd(w, sys, opt)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !e2e.Correct || e2e.Failed != 0 || e2e.Attempted < 1 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %s", w.name, e2e.Correct, e2e.Failed, e2e.Attempted, e2e.Problem)
		}
		for _, m := range endToEndMetrics {
			if v, ok := e2e.Metrics[m.name]; !ok || !(v.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, m.name, v.Value)
			}
		}
		layers, err := runTraced(w, sys, opt)
		if err != nil {
			t.Fatalf("%s (traced): %v", w.name, err)
		}
		if !layers.Correct {
			t.Errorf("%s (traced): %s", w.name, layers.Problem)
		}
		for _, m := range layerMetrics {
			if v, ok := layers.Metrics[m.name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %v, want a finite number", w.name, m.name, v.Value)
			}
		}
		if len(layers.Metrics) != len(layerMetrics) {
			t.Errorf("%s: %d per-layer metrics printed, the table has %d", w.name, len(layers.Metrics), len(layerMetrics))
		}
		if _, err := os.Stat(filepath.Join(opt.outDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
}

// TestOnlySeamImportsTheRepo keeps every call into the repository in seam.go.
func TestOnlySeamImportsTheRepo(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if strings.Contains(imp.Path.Value, "github.com/meanet/meanet") && name != "seam.go" {
				t.Errorf("%s imports %s: calls into the repo go through seam.go", name, imp.Path.Value)
			}
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the metric and workload tables")

type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []map[string]any `json:"workloads"`
	EndToEnd   []map[string]any `json:"end_to_end"`
	PerLayer   []map[string]any `json:"per_layer"`
}

func tablesAsJSON() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 10}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, map[string]any{"name": w.name, "why": w.why})
	}
	for _, m := range endToEndMetrics {
		b.EndToEnd = append(b.EndToEnd, map[string]any{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound})
	}
	for _, m := range layerMetrics {
		b.PerLayer = append(b.PerLayer, map[string]any{"name": m.name, "unit": m.unit, "better": m.better})
	}
	return b
}

// TestBenchmarkJSONMatchesTables keeps the root BENCHMARK.json and the
// program's tables the same list, inside the contract's limits.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(tablesAsJSON(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	const path = "../BENCHMARK.json"
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("%s differs from the tables in metrics.go/workloads.go; run go test -run BenchmarkJSON -update", path)
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for _, m := range endToEndMetrics {
		name(m.name)
		if !unitRE.MatchString(m.unit) || m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %s: unit %q or bound %v outside the contract", m.name, m.unit, m.bound)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s (s, lower) must be an end-to-end metric")
	}
	for _, m := range layerMetrics {
		name(m.name)
		if !unitRE.MatchString(m.unit) || (m.better != "higher" && m.better != "lower") {
			t.Errorf("per-layer metric %s: unit %q or direction %q outside the contract", m.name, m.unit, m.better)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEndMetrics) > 16 || len(layerMetrics) > 128 || len(got) > 64<<10 {
		t.Error("BENCHMARK.json outside the contract's size limits")
	}
}
