// Package framework is a minimal, dependency-free reimplementation of the
// golang.org/x/tools/go/analysis vocabulary (Analyzer, Pass, Diagnostic)
// plus a package loader, sized for this repository's own vet suite.
//
// The real x/tools module is deliberately not imported: the build must stay
// stdlib-only (ROADMAP constraint), and everything the o2pcvet analyzers
// need — parsed files, full type information, and a reporting channel — is
// expressible with go/parser, go/types and the go command. The API mirrors
// x/tools closely enough that migrating the analyzers onto the real
// framework later is a mechanical edit.
package framework

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is the analyzer's help text; its first line is the summary.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// Facts, when set, computes the package-level fact this analyzer
	// exports to packages that import it (exported-function summaries,
	// acquisition edges, ...). It runs for every loaded package —
	// dependencies included — in dependency order, before Run sees any
	// importer, so a pass can resolve a cross-package call through
	// Pass.ImportFact. The returned value must survive a JSON round-trip:
	// the store serializes it on export and deserializes on import,
	// mirroring x/tools facts (position-free, process-independent), which
	// keeps facts honest — no smuggled AST pointers or type objects.
	Facts func(*Pass) (any, error)
	// Finish, when set, runs once after every package has been analyzed,
	// with access to the full fact store. Whole-program findings (lock
	// acquisition cycles) are reported here; ignore directives apply to
	// Finish diagnostics exactly as to Run diagnostics.
	Finish func(*Finish) error
}

// Diagnostic is one finding, attributed to an analyzer and a position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package's worth of inputs to an Analyzer.Run.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
	store *factStore
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ImportFact decodes the fact this analyzer exported for the package with
// the given import path into out (a pointer), reporting whether one was
// found. The current package's own fact is available too: Facts runs
// before Run on each package.
func (p *Pass) ImportFact(path string, out any) bool {
	if p.store == nil {
		return false
	}
	return p.store.decode(p.Analyzer.Name, path, out)
}

// Finish is the whole-program view handed to Analyzer.Finish after the
// last package: every loaded package plus the complete fact store.
type Finish struct {
	Analyzer *Analyzer
	// Pkgs holds every loaded package in dependency order, dep-only
	// packages included.
	Pkgs []*Package

	diags *[]Diagnostic
	store *factStore
}

// Fact decodes the named package's fact for this analyzer into out.
func (f *Finish) Fact(path string, out any) bool {
	return f.store.decode(f.Analyzer.Name, path, out)
}

// Reportf records a whole-program diagnostic at an explicit position
// (facts carry file/line, not token.Pos, across the serialization
// boundary).
func (f *Finish) Reportf(pos token.Position, format string, args ...any) {
	*f.diags = append(*f.diags, Diagnostic{
		Analyzer: f.Analyzer.Name,
		Pos:      pos,
		Message:  fmt.Sprintf(format, args...),
	})
}

// factStore holds each analyzer's per-package facts as serialized JSON.
// Facts cross package boundaries only through this encoding, which is what
// guarantees they are position- and process-independent.
type factStore struct {
	facts map[factKey]json.RawMessage
}

type factKey struct{ analyzer, pkg string }

func newFactStore() *factStore {
	return &factStore{facts: make(map[factKey]json.RawMessage)}
}

func (s *factStore) encode(analyzer, pkg string, v any) error {
	if v == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("fact for %s in %s: %w", analyzer, pkg, err)
	}
	s.facts[factKey{analyzer, pkg}] = b
	return nil
}

func (s *factStore) decode(analyzer, pkg string, out any) bool {
	b, ok := s.facts[factKey{analyzer, pkg}]
	if !ok {
		return false
	}
	return json.Unmarshal(b, out) == nil
}

// Run applies each analyzer to each package and returns the surviving
// diagnostics sorted by position and deduplicated, so repeated runs over
// the same tree are byte-identical (-json artifacts diff cleanly).
// Packages must be in dependency order (Load guarantees it): each
// analyzer's Facts hook runs on every package — dep-only ones included —
// before its Run reports on the targets, and Finish hooks see the complete
// store afterwards. Findings on lines carrying an "//o2pcvet:ignore
// <name> -- reason" directive (same line or the line above) are
// suppressed; the directive requires a reason so every exemption is
// self-documenting.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	store := newFactStore()
	allIgnores := make(map[ignoreKey]bool)
	for _, pkg := range pkgs {
		ignores := collectIgnores(pkg)
		for k := range ignores {
			allIgnores[k] = true
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
				store:     store,
			}
			if a.Facts != nil {
				fact, err := a.Facts(pass)
				if err != nil {
					return nil, fmt.Errorf("%s: facts: %s: %w", a.Name, pkg.ImportPath, err)
				}
				if err := store.encode(a.Name, pkg.Types.Path(), fact); err != nil {
					return nil, err
				}
			}
			if pkg.DepOnly || a.Run == nil {
				continue
			}
			before := len(diags)
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.ImportPath, err)
			}
			diags = filterIgnored(diags, before, ignores)
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		before := len(diags)
		fin := &Finish{Analyzer: a, Pkgs: pkgs, diags: &diags, store: store}
		if err := a.Finish(fin); err != nil {
			return nil, fmt.Errorf("%s: finish: %w", a.Name, err)
		}
		diags = filterIgnored(diags, before, allIgnores)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return dedup(diags), nil
}

// dedup drops exact repeats from a sorted diagnostic list. Two analyzer
// mechanisms can legitimately land on the same coordinate with the same
// message (an intra-package walk and a fact-driven Finish, or the same
// helper invoked from two files of a package); the -json artifact must see
// one finding, not a count that shifts with analysis internals.
func dedup(diags []Diagnostic) []Diagnostic {
	if len(diags) < 2 {
		return diags
	}
	out := diags[:1]
	for _, d := range diags[1:] {
		last := out[len(out)-1]
		if d.Analyzer == last.Analyzer && d.Pos == last.Pos && d.Message == last.Message {
			continue
		}
		out = append(out, d)
	}
	return out
}

var ignoreRe = regexp.MustCompile(`^//o2pcvet:ignore\s+([\w,]+)\s+--\s+\S`)

// ignoreKey locates one suppressed (file, line, analyzer) coordinate.
type ignoreKey struct {
	file     string
	line     int
	analyzer string
}

// collectIgnores scans the package's comments for ignore directives. A
// directive suppresses matches on its own line and on the line below it
// (covering both end-of-line and preceding-line placement).
func collectIgnores(pkg *Package) map[ignoreKey]bool {
	out := make(map[ignoreKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Split(m[1], ",") {
					out[ignoreKey{pos.Filename, pos.Line, name}] = true
					out[ignoreKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return out
}

func filterIgnored(diags []Diagnostic, from int, ignores map[ignoreKey]bool) []Diagnostic {
	if len(ignores) == 0 {
		return diags
	}
	kept := diags[:from]
	for _, d := range diags[from:] {
		if ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
			ignores[ignoreKey{d.Pos.Filename, d.Pos.Line, "all"}] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}
