package analysis_test

import (
	"bytes"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func fixture(elem ...string) string {
	return filepath.Join(append([]string{"testdata"}, elem...)...)
}

func TestDeterminismFixture(t *testing.T) {
	analysistest.Run(t, fixture("determinism", "sim"), analysis.Determinism)
}

func TestFacadeBoundaryCmdFixture(t *testing.T) {
	analysistest.Run(t, fixture("facadeboundary", "cmdtool"), analysis.FacadeBoundary)
}

func TestFacadeBoundaryBackedgeFixture(t *testing.T) {
	analysistest.Run(t, fixture("facadeboundary", "backedge"), analysis.FacadeBoundary)
}

func TestCtxDisciplineFixture(t *testing.T) {
	analysistest.Run(t, fixture("ctxdiscipline", "facade"), analysis.CtxDiscipline)
}

// TestBareAllowDirective pins the auditability contract of the escape hatch:
// a //worksim:allow without a reason is itself reported and suppresses
// nothing, so the wall-clock read on the next line still surfaces.
func TestBareAllowDirective(t *testing.T) {
	pkg, err := analysis.LoadFixture(fixture("allowdirective", "bare"))
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags, err := analysis.Run([]*analysis.Package{pkg}, []*analysis.Analyzer{analysis.Determinism})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var names []string
	for _, d := range diags {
		names = append(names, d.Analyzer)
	}
	if len(diags) != 2 || diags[0].Analyzer != "allowdirective" || diags[1].Analyzer != "determinism" {
		t.Fatalf("want [allowdirective determinism] (bare allow reported, wall-clock read not suppressed), got %v:\n%v", names, diags)
	}
}

func TestGoHygieneFixture(t *testing.T) {
	analysistest.Run(t, fixture("gohygiene", "spawn"), analysis.GoHygiene)
}

func TestSyncMisuseFixture(t *testing.T) {
	analysistest.Run(t, fixture("syncmisuse", "prims"), analysis.SyncMisuse)
}

// TestAuditLedger pins the -audit contract against the gohygiene fixture: the
// reasoned allow that suppresses a real finding appears in the ledger with
// the suppressing analyzer attributed, and the audit itself raises no
// failures.
func TestAuditLedger(t *testing.T) {
	pkg, err := analysis.LoadFixture(fixture("gohygiene", "spawn"))
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	report, failures, err := analysis.Audit("", []*analysis.Package{pkg}, []*analysis.Analyzer{analysis.GoHygiene})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if len(failures) != 0 {
		t.Fatalf("clean fixture must audit without failures, got:\n%v", failures)
	}
	if len(report.Allows) != 1 {
		t.Fatalf("want 1 ledger entry, got %d: %+v", len(report.Allows), report.Allows)
	}
	entry := report.Allows[0]
	if entry.Suppressed != 1 || len(entry.Analyzers) != 1 || entry.Analyzers[0] != "gohygiene" {
		t.Errorf("entry must attribute one gohygiene suppression, got %+v", entry)
	}
	if !strings.Contains(entry.Reason, "fire-and-forget") {
		t.Errorf("entry must carry the directive's reason, got %q", entry.Reason)
	}
}

// TestAuditOrphans pins the -audit failure modes: an orphaned directive (it
// suppresses nothing) and a bare directive both fail, while the genuinely
// suppressing directive passes.
func TestAuditOrphans(t *testing.T) {
	pkg, err := analysis.LoadFixture(fixture("audit", "orphan"))
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	report, failures, err := analysis.Audit("", []*analysis.Package{pkg}, []*analysis.Analyzer{analysis.GoHygiene})
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	var orphaned, bare int
	for _, d := range failures {
		switch {
		case strings.Contains(d.Message, "requires a reason"):
			bare++
		case strings.Contains(d.Message, "suppresses nothing"):
			orphaned++
		}
	}
	if orphaned != 1 || bare != 1 {
		t.Fatalf("want 1 orphaned + 1 bare failure, got %d/%d:\n%v", orphaned, bare, failures)
	}
	// The ledger lists both reasoned directives; the orphan's analyzer list is
	// empty while the live one attributes gohygiene.
	if len(report.Allows) != 2 {
		t.Fatalf("want 2 ledger entries, got %+v", report.Allows)
	}
	live, orphan := report.Allows[0], report.Allows[1]
	if live.Suppressed != 1 || orphan.Suppressed != 0 || len(orphan.Analyzers) != 0 {
		t.Errorf("want live entry first (suppressed=1) and orphan second (suppressed=0), got %+v", report.Allows)
	}
}

// TestJSONSchemaGolden locks the `worksimlint -json` record schema — field
// names, order, root-relative slash-separated paths and array framing — so
// downstream parsers (CI annotations, editor integrations) never break
// silently.
func TestJSONSchemaGolden(t *testing.T) {
	diags := []analysis.Diagnostic{
		{
			Analyzer: "determinism",
			Pos:      token.Position{Filename: "/m/internal/radio/radio.go", Line: 42, Column: 7},
			Message:  "time.Now reads the wall clock",
		},
		{
			Analyzer: "allowdirective",
			Pos:      token.Position{Filename: "/m/worksim/bench/persist.go", Line: 1, Column: 1},
			Message:  "//worksim:allow suppresses nothing (orphaned)",
		},
	}
	var buf bytes.Buffer
	if err := analysis.EncodeDiagnostics(&buf, "/m", diags); err != nil {
		t.Fatalf("encode: %v", err)
	}
	const golden = `[
  {
    "file": "internal/radio/radio.go",
    "line": 42,
    "col": 7,
    "analyzer": "determinism",
    "message": "time.Now reads the wall clock"
  },
  {
    "file": "worksim/bench/persist.go",
    "line": 1,
    "col": 1,
    "analyzer": "allowdirective",
    "message": "//worksim:allow suppresses nothing (orphaned)"
  }
]
`
	if buf.String() != golden {
		t.Errorf("-json schema drifted from golden:\n--- got ---\n%s--- want ---\n%s", buf.String(), golden)
	}

	// The empty result is a JSON array too, never null.
	buf.Reset()
	if err := analysis.EncodeDiagnostics(&buf, "/m", nil); err != nil {
		t.Fatalf("encode empty: %v", err)
	}
	if buf.String() != "[]\n" {
		t.Errorf("empty diagnostics must encode as [], got %q", buf.String())
	}
}

// TestFormatDiagnosticRootRelative pins the text output form.
func TestFormatDiagnosticRootRelative(t *testing.T) {
	d := analysis.Diagnostic{
		Analyzer: "gohygiene",
		Pos:      token.Position{Filename: "/m/worksim/serve.go", Line: 9, Column: 2},
		Message:  "go statement is not join-tracked",
	}
	got := analysis.FormatDiagnostic("/m", d)
	want := "worksim/serve.go:9:2: [gohygiene] go statement is not join-tracked"
	if got != want {
		t.Errorf("FormatDiagnostic = %q, want %q", got, want)
	}
}
