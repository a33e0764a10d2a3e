package cdnconsistency_test

// Every simulation goes through core.Run: core compiles a run's options
// into its cdn.Config, which keys the run, draws its game with the run's
// seed and attaches its auditor. A program file that calls cdn.Run itself
// sidesteps all of that, so no non-test file outside internal/core (and
// internal/cdn, which declares it) may name cdn.Run.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const cdnImportPath = "cdnconsistency/internal/cdn"

// simulatorOwners are the directories allowed to name cdn.Run.
var simulatorOwners = map[string]bool{"internal/core": true, "internal/cdn": true}

func TestOnlyCoreCallsCdnRun(t *testing.T) {
	fset := token.NewFileSet()
	scanned := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || simulatorOwners[filepath.ToSlash(path)]) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		var names []string // the file's names for the cdn package
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p != cdnImportPath {
				continue
			}
			switch {
			case imp.Name == nil:
				names = append(names, "cdn")
			case imp.Name.Name == ".":
				t.Errorf("%s: dot-imports %s, which hides a call of its Run", fset.Position(imp.Pos()), cdnImportPath)
			default:
				names = append(names, imp.Name.Name)
			}
		}
		scanned++
		if len(names) == 0 {
			return nil
		}
		f, err = parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Run" {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); ok && slices.Contains(names, pkg.Name) {
				t.Errorf("%s: names cdn.Run; run simulations through core.Run", fset.Position(sel.Pos()))
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("scan found no program files")
	}
}
