package analysis_test

import (
	"testing"

	"repro/internal/analysis"
)

// TestRepoLintClean runs the full analyzer suite over the whole module and
// requires zero findings: the same gate CI applies via cmd/worksimlint. It
// subsumes the old reflective façade-boundary walk: an eroding import, a
// wall-clock read on a simulated path, a deleted tick-loop cancellation
// check, an untracked goroutine or a field mixing atomic and plain access
// all fail this test with a file:line diagnostic. Allocation regressions
// are the AllocsPerRun locks' job, copied locks `go vet`'s.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestRepoAuditClean requires every //worksim:allow in the tree to carry a
// reason and to suppress at least one live finding — the ledger never
// accumulates stale exceptions.
func TestRepoAuditClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	pkgs, err := analysis.Load(root, "./...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	report, failures, err := analysis.Audit(root, pkgs, analysis.All())
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if len(report.Allows) == 0 {
		t.Fatalf("audit returned an empty ledger; the tree has known allow directives")
	}
	for _, d := range failures {
		t.Errorf("%s", d)
	}
}
