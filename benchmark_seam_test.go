package meanet_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchmarkModuleBuilds puts the serving benchmark into tier-1.
// benchmark/ is a Go module of its own, so `go test ./...` here never
// compiles benchmark/seam.go — the one file that binds the benchmark to this
// repository's API, which PRs may not edit. Vetting and short-testing the
// module from here means a refactor that breaks one of the seam's names
// fails the ordinary test run instead of the driver's benchmark step.
func TestBenchmarkModuleBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	for _, args := range [][]string{{"vet", "./..."}, {"test", "-short", "./..."}} {
		cmd := exec.Command(goTool, args...)
		cmd.Dir = "benchmark"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in benchmark/: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
