package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunCleanAtHead is the executable form of the acceptance criterion:
// `go run ./cmd/o2pcvet ./...` must exit 0 on the repository as committed.
func TestRunCleanAtHead(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("o2pcvet ./... = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("o2pcvet -list = exit %d, want 0 (stderr: %s)", code, stderr.String())
	}
	for _, name := range []string{
		"walltime", "walorder", "ackorder", "lockheld", "exhaustive", "randdet",
		"maporder", "errflow", "lockorder", "goleak",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nosuchpass", "./..."}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer = exit %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("stderr missing explanation: %s", stderr.String())
	}
}

// TestRunSubset runs a single cheap analyzer over this package only, so the
// subset plumbing is covered without a full-module load.
func TestRunSubset(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "randdet", "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("o2pcvet -analyzers randdet . = exit %d, want 0\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
}

// TestRunJSONClean checks that a clean run under -json emits exactly an
// empty JSON array, so CI artifact consumers never have to special-case
// the no-findings shape.
func TestRunJSONClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "randdet", "-json", "."}, &stdout, &stderr); code != 0 {
		t.Fatalf("o2pcvet -json . = exit %d, want 0 (stderr: %s)", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean -json output = %q, want []", got)
	}
}
