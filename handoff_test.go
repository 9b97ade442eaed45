package meanet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestActivationHandOffOnlyInCore pins who may own a tensor at a module
// boundary: nn.Pooled and nn.Recycle, the activation pool's exported pair,
// have no caller outside internal/core but tests. A module's result is
// otherwise ordinary heap memory, so a Recycle elsewhere is a buffer handed
// back by a caller that cannot know whether something still reads it.
func TestActivationHandOffOnlyInCore(t *testing.T) {
	const nnPath = "github.com/meanet/meanet/internal/nn"
	calls := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		local := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == nnPath {
				local = "nn"
				if imp.Name != nil {
					local = imp.Name.Name
				}
			}
		}
		if local == "" {
			return nil
		}
		inCore := filepath.ToSlash(filepath.Dir(path)) == "internal/core"
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Recycle" && sel.Sel.Name != "Pooled") {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
				calls++
				if !inCore {
					t.Errorf("%s uses nn.%s: only internal/core hands tensors to and from the activation pool", path, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("found no use of nn.Pooled or nn.Recycle at all: the walk missed internal/core")
	}
}
