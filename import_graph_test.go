package meanet_test

import (
	"os/exec"
	"strings"
	"testing"
)

// TestImportGraph pins the layering of the offload contract. Algorithm 2
// (internal/core) speaks the wire's representation and shed types
// (internal/protocol, a leaf over internal/tensor) and knows no transport;
// the cloud server knows neither the algorithm nor the edge transports, so a
// shed's identity and its retry-after rule live in protocol and nowhere else.
// The paper's experiments are science, not serving: they reach the cloud
// model in process and depend on no transport, server, deployment, link
// estimator or network simulator. Each rule is checked against the transitive dependencies `go list -deps`
// reports.
func TestImportGraph(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	const mod = "github.com/meanet/meanet/"
	for _, rule := range []struct {
		pkg    string
		allow  func(dep string) bool
		reason string
	}{
		{"internal/cloud", func(dep string) bool {
			return dep != "internal/core" && dep != "internal/edge"
		}, "the cloud server must not depend on Algorithm 2 or the edge transports"},
		{"internal/protocol", func(dep string) bool {
			return dep == "internal/tensor"
		}, "the wire protocol is a leaf over internal/tensor"},
		{"internal/core", outside("internal/edge", "internal/cloud", "internal/linkest", "internal/netsim"),
			"Algorithm 2 must not depend on a transport, the server or the link model"},
		{"internal/experiments", outside("internal/edge", "internal/cloud", "internal/deploy", "internal/linkest", "internal/netsim"),
			"the paper's experiments must not depend on the serving stack"},
	} {
		out, err := exec.Command(goTool, "list", "-deps", "-f", "{{.ImportPath}}", "./"+rule.pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go list -deps ./%s: %v\n%s", rule.pkg, err, out)
		}
		for _, dep := range strings.Fields(string(out)) {
			dep, ok := strings.CutPrefix(dep, mod)
			if !ok || dep == rule.pkg || rule.allow(dep) {
				continue
			}
			t.Errorf("%s depends on %s: %s", rule.pkg, dep, rule.reason)
		}
	}
}

// outside allows every dependency except the banned packages and their
// subpackages.
func outside(banned ...string) func(dep string) bool {
	return func(dep string) bool {
		for _, b := range banned {
			if dep == b || strings.HasPrefix(dep, b+"/") {
				return false
			}
		}
		return true
	}
}
