package cdnconsistency_test

// Every exported function or method in internal/ must have a caller in the
// program: a name that only tests mention is an API nobody uses, and it
// widens what later changes must keep working. The check is syntactic. A
// package-level function counts as used through a selector on an import of
// its package, under whatever name the file imports it, or through an
// unqualified reference from a file of its own package. A method counts as
// used when an identifier outside its own declaration carries its name: a
// method call cannot be resolved without types, so for methods the check
// errs towards passing (a method named like a used one is let through),
// never towards a false alarm.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
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
	dir      string // the declaring package's directory
	method   bool
	file     string
	pos, end token.Pos
}

// modulePath is the module the scanned packages' import paths start with.
const modulePath = "cdnconsistency"

func TestEveryExportedFunctionHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	names := make(map[string][]token.Pos)     // method uses: identifier name -> positions
	qualified := make(map[string][]token.Pos) // "dir.Name" -> positions of selectors and same-package references
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
			dir := filepath.ToSlash(filepath.Dir(path))
			scanUses(f, dir, names, qualified)
			if root != "internal" {
				return nil
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				d := exportedDecl{key: dir + "." + fn.Name.Name, name: fn.Name.Name, dir: dir, file: path, pos: fn.Pos(), end: fn.End()}
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					d.key = dir + "." + recvTypeName(fn.Recv.List[0].Type) + "." + fn.Name.Name
					d.method = true
				}
				decls = append(decls, d)
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
		uses := qualified[d.dir+"."+d.name]
		if d.method {
			uses = names[d.name]
		}
		called := false
		for _, p := range uses {
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

// scanUses records the uses in f, a file of the package in dir. names gets
// every identifier but a function's own name, for methods. qualified gets,
// keyed "dir.Name" by the directory of the package that declares Name, each
// selector X.Name whose X is the name under which f imports a package of
// this module, and each identifier of f that is neither a declared
// function's name nor a selector's field or method.
func scanUses(f *ast.File, dir string, names, qualified map[string][]token.Pos) {
	imports := make(map[string]string) // import name -> package directory
	for _, spec := range f.Imports {
		path, err := strconv.Unquote(spec.Path.Value)
		if err != nil || !strings.HasPrefix(path, modulePath+"/") {
			continue
		}
		pkgDir := strings.TrimPrefix(path, modulePath+"/")
		name := pkgDir[strings.LastIndex(pkgDir, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		imports[name] = pkgDir
	}
	declName := make(map[*ast.Ident]bool) // a function's own name is no use of it
	selName := make(map[*ast.Ident]bool)  // a selector's name is no unqualified reference
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			declName[x.Name] = true
		case *ast.SelectorExpr:
			selName[x.Sel] = true
			if pkg, ok := x.X.(*ast.Ident); ok {
				if pkgDir, ok := imports[pkg.Name]; ok {
					key := pkgDir + "." + x.Sel.Name
					qualified[key] = append(qualified[key], x.Sel.Pos())
				}
			}
		case *ast.Ident:
			if declName[x] {
				break
			}
			names[x.Name] = append(names[x.Name], x.Pos())
			if !selName[x] {
				key := dir + "." + x.Name
				qualified[key] = append(qualified[key], x.Pos())
			}
		}
		return true
	})
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
