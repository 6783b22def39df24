package analysis

import (
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"sort"
)

// AllowEntry is one //worksim:allow directive resolved against the findings
// it suppresses — a row of the auditable suppression ledger.
type AllowEntry struct {
	// File is the directive's location, relative to the module root.
	File string `json:"file"`
	Line int    `json:"line"`
	// Reason is the directive's mandatory justification text.
	Reason string `json:"reason"`
	// Analyzers lists, sorted and deduplicated, the analyzers whose
	// diagnostics this directive suppresses. Empty means the directive is
	// orphaned: it suppresses nothing and should be deleted.
	Analyzers []string `json:"analyzers"`
	// Suppressed counts the individual diagnostics the directive covers.
	Suppressed int `json:"suppressed"`
}

// AuditReport is the JSON document emitted by `worksimlint -audit`: the
// complete inventory of suppression directives, sorted by (file, line).
type AuditReport struct {
	Version int          `json:"version"`
	Allows  []AllowEntry `json:"allows"`
}

// auditReportVersion is the schema version stamped into the report.
const auditReportVersion = 1

// Audit runs every analyzer with suppression DISABLED, attributes each
// diagnostic to the allow directive covering its line (same line or the
// line above, mirroring normal suppression), and returns the ledger plus
// the failures the audit itself raises: bare directives (no reason) and
// orphaned directives (suppressing nothing). Diagnostics that no directive
// covers are the caller's concern — a normal Run pass reports those. root
// only makes the ledger's file names module-relative.
func Audit(root string, pkgs []*Package, analyzers []*Analyzer) (*AuditReport, []Diagnostic, error) {
	raw, dirs, err := runRaw(pkgs, analyzers)
	if err != nil {
		return nil, nil, err
	}
	// One bucket per directive, addressed by file+line.
	type bucket struct {
		analyzers map[string]bool
		count     int
	}
	buckets := make(map[string]*bucket)
	key := func(file string, line int) string { return fmt.Sprintf("%s\x00%d", file, line) }
	var failures []Diagnostic
	for _, d := range raw {
		if d.Analyzer == "allowdirective" {
			failures = append(failures, d) // bare directive: always a failure
			continue
		}
		lines := dirs.allow[d.Pos.Filename]
		if lines == nil {
			continue
		}
		line := 0
		if _, ok := lines[d.Pos.Line]; ok {
			line = d.Pos.Line
		} else if _, ok := lines[d.Pos.Line-1]; ok {
			line = d.Pos.Line - 1
		} else {
			continue
		}
		b := buckets[key(d.Pos.Filename, line)]
		if b == nil {
			b = &bucket{analyzers: make(map[string]bool)}
			buckets[key(d.Pos.Filename, line)] = b
		}
		b.analyzers[d.Analyzer] = true
		b.count++
	}

	report := &AuditReport{Version: auditReportVersion}
	for file, lines := range dirs.allow {
		rel := relFile(root, file)
		for line, reason := range lines {
			entry := AllowEntry{File: rel, Line: line, Reason: reason, Analyzers: []string{}}
			if b := buckets[key(file, line)]; b != nil {
				for a := range b.analyzers {
					entry.Analyzers = append(entry.Analyzers, a)
				}
				sort.Strings(entry.Analyzers)
				entry.Suppressed = b.count
			}
			if entry.Suppressed == 0 {
				failures = append(failures, Diagnostic{
					Analyzer: "allowdirective",
					Pos:      positionAt(file, line),
					Message:  "//worksim:allow suppresses nothing (orphaned): the finding it excused is gone — delete the directive so the ledger stays honest",
				})
			}
			report.Allows = append(report.Allows, entry)
		}
	}
	sort.Slice(report.Allows, func(i, j int) bool {
		a, b := report.Allows[i], report.Allows[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	SortDiagnostics(failures)
	return report, failures, nil
}

// positionAt fabricates a column-less position for directive-level findings.
func positionAt(file string, line int) (p token.Position) {
	p.Filename = file
	p.Line = line
	p.Column = 1
	return p
}

// EncodeAuditReport writes the ledger as indented, key-sorted JSON — the
// byte-stable artifact CI uploads.
func EncodeAuditReport(w io.Writer, r *AuditReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
