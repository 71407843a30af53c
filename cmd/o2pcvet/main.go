// Command o2pcvet is the repository's multichecker: it runs the
// internal/analyzers suite (walltime, walorder, ackorder, lockheld,
// exhaustive, randdet, maporder, errflow, lockorder, goleak) over the named package
// patterns and exits non-zero if any diagnostic is reported. CI runs it as
// `go run ./cmd/o2pcvet ./...`; see DESIGN.md §8 and §13 for what each
// pass enforces and why.
//
// Findings can be suppressed line-by-line with a justified directive:
//
//	//o2pcvet:ignore walltime -- reason the wall clock is correct here
//
// placed on the offending line or the line above it.
//
// For machine consumption, -json prints the findings as a sorted JSON
// array of {analyzer, file, line, col, message} objects with repo-relative
// file paths. New findings are fixed or annotated with a reasoned
// directive, never suppressed wholesale.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"o2pc/internal/analyzers"
	"o2pc/internal/analyzers/framework"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the machine-readable shape of one diagnostic. File is
// relative to the -C directory when the diagnostic lies under it.
type jsonFinding struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("o2pcvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("C", ".", "directory to resolve package patterns from")
	only := fs.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := fs.Bool("list", false, "list the available analyzers and exit")
	asJSON := fs.Bool("json", false, "print findings as a JSON array instead of text")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analyzers.All()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		byName := make(map[string]*framework.Analyzer, len(suite))
		for _, a := range suite {
			byName[a.Name] = a
		}
		var picked []*framework.Analyzer
		for _, name := range strings.Split(*only, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "o2pcvet: unknown analyzer %q (use -list)\n", name)
				return 2
			}
			picked = append(picked, a)
		}
		suite = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	pkgs, err := framework.Load(*dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "o2pcvet: %v\n", err)
		return 2
	}
	diags, err := framework.Run(pkgs, suite)
	if err != nil {
		fmt.Fprintf(stderr, "o2pcvet: %v\n", err)
		return 2
	}

	findings := relativize(diags, *dir)

	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []jsonFinding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintf(stderr, "o2pcvet: %v\n", err)
			return 2
		}
	} else {
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "o2pcvet: %d finding(s) across %d package(s)\n",
			len(findings), countTargets(pkgs))
		return 1
	}
	return 0
}

// relativize converts framework diagnostics to the JSON shape, rewriting
// file paths under dir as dir-relative so artifacts are stable across
// checkouts. Run already sorted and deduplicated the input.
func relativize(diags []framework.Diagnostic, dir string) []jsonFinding {
	abs, err := filepath.Abs(dir)
	if err != nil {
		abs = ""
	}
	out := make([]jsonFinding, 0, len(diags))
	for _, d := range diags {
		file := d.Pos.Filename
		if abs != "" {
			if rel, err := filepath.Rel(abs, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		out = append(out, jsonFinding{
			Analyzer: d.Analyzer,
			File:     file,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Message:  d.Message,
		})
	}
	return out
}

// countTargets counts the packages the patterns named directly, excluding
// dependencies loaded only for cross-package facts.
func countTargets(pkgs []*framework.Package) int {
	n := 0
	for _, p := range pkgs {
		if !p.DepOnly {
			n++
		}
	}
	return n
}
