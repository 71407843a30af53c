package framework

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

// parsePkg type-checks one synthetic source file into a Package, so the
// tests exercise Run without shelling out to the go command.
func parsePkg(t *testing.T, fset *token.FileSet, path, src string, deps map[string]*Package) *Package {
	t.Helper()
	f, err := parser.ParseFile(fset, path+"/a.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", path, err)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: importerFunc(func(ipath string) (*types.Package, error) {
		if dep, ok := deps[ipath]; ok {
			return dep.Types, nil
		}
		return importer.Default().Import(ipath)
	})}
	tpkg, err := conf.Check(path, fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatalf("typecheck %s: %v", path, err)
	}
	return &Package{
		ImportPath: path, Fset: fset, Files: []*ast.File{f},
		Types: tpkg, TypesInfo: info,
	}
}

// TestRunDeterministicDedup pins the -json output contract: the same
// findings reported multiple times, in scrambled order, come out of Run
// exactly once each, sorted by (file, line, column, analyzer, message) —
// so two runs over the same tree produce byte-identical output.
func TestRunDeterministicDedup(t *testing.T) {
	fset := token.NewFileSet()
	pkg := parsePkg(t, fset, "a", "package a\n\nfunc F() {}\n\nfunc G() {}\n", nil)

	noisy := &Analyzer{
		Name: "noisy",
		Doc:  "reports every func decl twice, in reverse order",
		Run: func(p *Pass) error {
			var decls []*ast.FuncDecl
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						decls = append(decls, fd)
					}
				}
			}
			for i := len(decls) - 1; i >= 0; i-- {
				p.Reportf(decls[i].Pos(), "func %s declared", decls[i].Name.Name)
				p.Reportf(decls[i].Pos(), "func %s declared", decls[i].Name.Name)
			}
			return nil
		},
	}

	first, err := Run([]*Package{pkg}, []*Analyzer{noisy})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(first) != 2 {
		t.Fatalf("got %d diagnostics after dedup, want 2: %v", len(first), first)
	}
	if first[0].Message != "func F declared" || first[1].Message != "func G declared" {
		t.Errorf("diagnostics not in source order: %v", first)
	}
	second, err := Run([]*Package{pkg}, []*Analyzer{noisy})
	if err != nil {
		t.Fatalf("Run (second): %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two runs over the same package differ:\nfirst:  %v\nsecond: %v", first, second)
	}
}

// TestRunFactsCrossPackage checks the fact pipeline end to end: a fact
// computed for a dependency (analyzed fact-only, DepOnly set) survives the
// JSON round-trip and is visible to the dependent package's Run, and the
// dep-only package contributes no diagnostics of its own.
func TestRunFactsCrossPackage(t *testing.T) {
	fset := token.NewFileSet()
	dep := parsePkg(t, fset, "dep", "package dep\n\nfunc Exported() {}\n", nil)
	dep.DepOnly = true
	app := parsePkg(t, fset, "app", "package app\n\nimport \"dep\"\n\nfunc Use() { dep.Exported() }\n",
		map[string]*Package{"dep": dep})

	type fact struct{ Funcs []string }
	a := &Analyzer{
		Name: "factprobe",
		Doc:  "exports declared func names; reports what it sees from deps",
		Facts: func(p *Pass) (any, error) {
			var fs fact
			for _, f := range p.Files {
				for _, d := range f.Decls {
					if fd, ok := d.(*ast.FuncDecl); ok {
						fs.Funcs = append(fs.Funcs, fd.Name.Name)
					}
				}
			}
			return fs, nil
		},
		Run: func(p *Pass) error {
			var fs fact
			if p.ImportFact("dep", &fs) {
				p.Reportf(p.Files[0].Pos(), "dep exports %v", fs.Funcs)
			}
			// The package's own fact is available too (Facts ran first).
			var own fact
			if !p.ImportFact(p.Pkg.Path(), &own) {
				p.Reportf(p.Files[0].Pos(), "missing own fact")
			}
			return nil
		},
	}

	diags, err := Run([]*Package{dep, app}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (dep-only package must stay silent): %v", len(diags), diags)
	}
	if got, want := diags[0].Message, "dep exports [Exported]"; got != want {
		t.Errorf("fact round-trip: got %q, want %q", got, want)
	}
}

// TestRunFinishHook checks that Finish sees every package's fact and that
// its diagnostics pass through the same ignore filter as Run's.
func TestRunFinishHook(t *testing.T) {
	fset := token.NewFileSet()
	clean := parsePkg(t, fset, "p1", "package p1\n\nfunc A() {}\n", nil)
	// The directive on the func line suppresses the Finish finding below.
	ignored := parsePkg(t, fset, "p2",
		"package p2\n\n//o2pcvet:ignore finprobe -- fixture exemption\nfunc B() {}\n", nil)

	a := &Analyzer{
		Name: "finprobe",
		Doc:  "reports one whole-program finding per package fact",
		Facts: func(p *Pass) (any, error) {
			pos := p.Fset.Position(p.Files[0].Decls[0].Pos())
			return map[string]any{"file": pos.Filename, "line": pos.Line}, nil
		},
		Finish: func(f *Finish) error {
			for _, pkg := range f.Pkgs {
				var fact struct {
					File string `json:"file"`
					Line int    `json:"line"`
				}
				if !f.Fact(pkg.ImportPath, &fact) {
					continue
				}
				f.Reportf(token.Position{Filename: fact.File, Line: fact.Line},
					"finish saw %s", pkg.ImportPath)
			}
			return nil
		},
	}

	diags, err := Run([]*Package{clean, ignored}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 (p2's is directive-suppressed): %v", len(diags), diags)
	}
	if got, want := diags[0].Message, "finish saw p1"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}
