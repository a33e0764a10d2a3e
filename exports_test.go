package cdnconsistency_test

// Every exported function or method in internal/ must have a caller in the
// program: a name that only tests mention is an API nobody uses, and it
// widens what later changes must keep working. The check is syntactic: a
// declaration counts as used when an identifier outside its own declaration,
// other than a function's own name, carries its name. It errs towards
// passing (a method named like a used one is let through), never towards a
// false alarm.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedExportAllowlist names the exported functions kept without a caller
// the scan can see, keyed "dir.Recv.Name" (or "dir.Name"), with the reason.
var unusedExportAllowlist = map[string]string{
	"internal/fault.Duration.MarshalJSON":         "encoding/json calls it through json.Marshaler",
	"internal/fault.Duration.UnmarshalJSON":       "encoding/json calls it through json.Unmarshaler",
	"internal/plan.ImportExclusions":              "TestImportExclusionTable walks it to prove cdnsim rejects every plan exclusion",
	"internal/audit.CheckFraction":                "tests use it as the oracle for the auditor's fraction checks",
	"internal/topology.Topology.LocationClusters": "tests use it as the oracle for the topology's location clustering",
}

// scannedRoots are the trees whose non-test files make up the program.
var scannedRoots = []string{"internal", "cmd", "examples", "perfbench"}

type exportedDecl struct {
	key      string
	name     string
	file     string
	pos, end token.Pos
}

func TestEveryExportedFunctionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	uses := make(map[string][]token.Pos)   // identifier name -> positions
	declNames := make(map[*ast.Ident]bool) // a function's own name is no use of it
	for _, root := range scannedRoots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.FuncDecl:
					declNames[x.Name] = true
				case *ast.Ident:
					if !declNames[x] {
						uses[x.Name] = append(uses[x.Name], x.Pos())
					}
				}
				return true
			})
			if root != "internal" {
				return nil
			}
			dir := filepath.ToSlash(filepath.Dir(path))
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				key := dir + "." + fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					key = dir + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				decls = append(decls, exportedDecl{key: key, name: fn.Name.Name, file: path, pos: fn.Pos(), end: fn.End()})
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scan %s: %v", root, err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("scan found no exported functions under internal/")
	}

	var unused []string
	flagged := make(map[string]bool)
	for _, d := range decls {
		called := false
		for _, p := range uses[d.name] {
			if p < d.pos || p >= d.end {
				called = true
				break
			}
		}
		if called {
			continue
		}
		flagged[d.key] = true
		if _, ok := unusedExportAllowlist[d.key]; !ok {
			unused = append(unused, d.key+" ("+d.file+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported function has no caller outside tests: %s", u)
	}
	for key := range unusedExportAllowlist {
		if !flagged[key] {
			t.Errorf("allowlist entry %s is stale: it has a caller now, or no longer exists", key)
		}
	}
}

// recvTypeName returns the base type name of a method receiver: T for T,
// *T, T[K] and *T[K].
func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
