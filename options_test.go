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
// space: the field count of every config struct and the number of Runtime
// mutators. Each independently settable value doubles what the test matrix
// and every controller PR must reason about, so adding one fails here first.
func TestOptionsCensus(t *testing.T) {
	for _, c := range []struct {
		cfg    any
		fields int
	}{
		{edge.DialConfig{}, 4},
		// MinServiceSamples had no setter and DisableServiceWeight only a
		// deleted experiment: one value each, so constants under the rule.
		{edge.MultiConfig{}, 2},
		{edge.ChainConfig{}, 6},
		{edge.ReplanConfig{}, 5},
		{edge.AdaptConfig{}, 2},
		{cloud.StageConfig{}, 3},
		{cloud.BatchConfig{}, 2},
		{cloud.ShedPolicy{}, 3},
	} {
		if typ := reflect.TypeOf(c.cfg); typ.NumField() != c.fields {
			t.Errorf("%s has %d fields, the census says %d: %s", typ, typ.NumField(), c.fields, optionsRule)
		}
	}

	var setters []string
	rt := reflect.TypeOf(&edge.Runtime{})
	for i := 0; i < rt.NumMethod(); i++ {
		if name := rt.Method(i).Name; strings.HasPrefix(name, "Set") {
			setters = append(setters, name)
		}
	}
	if len(setters) != 4 {
		t.Errorf("edge.Runtime has %d Set* mutators %v, the census says 4: %s", len(setters), setters, optionsRule)
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
