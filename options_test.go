package meanet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strings"
	"testing"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/edge"
)

// optionsRule is the simplicity guide's test for a configuration field, named
// in every failure below so the next knob is a reviewed decision.
const optionsRule = "an option is justified when two callers that exist at the parent commit" +
	" (tests and examples aside) need different values, else it is a constant;" +
	" update this census only together with that argument"

// TestOptionsCensus pins the size of the serving stack's configuration
// space: the field count of every config struct, the number of Runtime
// mutators, and one way in for the chain fallback and for a replica join.
// Each independently settable value doubles what the test matrix and every
// controller PR must reason about, so adding one fails here first.
func TestOptionsCensus(t *testing.T) {
	for _, c := range []struct {
		cfg    any
		fields int
	}{
		{edge.DialConfig{}, 4},
		// MinServiceSamples had no setter, DisableServiceWeight only a
		// deleted experiment and FailureExclusion only tests: one value
		// each, so constants under the rule.
		{edge.MultiConfig{}, 1},
		// TTL had no setter at all.
		{edge.ChainConfig{}, 5},
		// Interval and EdgeMACsPerSec were set by one soak only; the edge
		// rate is measured instead.
		{edge.ReplanConfig{}, 3},
		{edge.AdaptConfig{}, 2},
		// MaxInFlight was set by one test only.
		{cloud.StageConfig{}, 2},
		{cloud.BatchConfig{}, 2},
		{cloud.ShedPolicy{}, 3},
	} {
		if typ := reflect.TypeOf(c.cfg); typ.NumField() != c.fields {
			names := make([]string, typ.NumField())
			for i := range names {
				names[i] = typ.Field(i).Name
			}
			t.Errorf("%s has %d fields %v, the census says %d: %s", typ, typ.NumField(), names, c.fields, optionsRule)
		}
	}

	// A mutator beside a config field is a second way to set it.
	for _, c := range []struct {
		v      any
		prefix string
		want   int
	}{
		{&edge.Runtime{}, "Set", 4},
		// The chain fallback is ChainConfig.Direct, fixed at construction.
		{&edge.ChainClient{}, "Set", 0},
		// A replica joins through AddReplica alone; the caller dials it.
		{&edge.MultiClient{}, "Add", 1},
	} {
		typ := reflect.TypeOf(c.v)
		var methods []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, c.prefix) {
				methods = append(methods, name)
			}
		}
		if len(methods) != c.want {
			t.Errorf("%s has %d %s* methods %v, the census says %d: %s", typ, len(methods), c.prefix, methods, c.want, optionsRule)
		}
	}

	// The link estimator's Config was the ninth struct; its three fields are
	// constants now.
	pkgs, err := parser.ParseDir(token.NewFileSet(), "internal/linkest", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == "Config" {
					t.Errorf("internal/linkest declares a Config type again: %s", optionsRule)
				}
				return true
			})
		}
	}
}
