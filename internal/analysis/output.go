package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// jsonDiagnostic is the locked `worksimlint -json` record. The field set and
// order are part of the tool's contract — CI and editor integrations parse
// it — and are pinned by TestJSONSchemaGolden. Extend only by appending
// fields.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// relFile renders file relative to root (when possible) with forward slashes,
// so output is identical regardless of the absolute checkout path.
func relFile(root, file string) string {
	if root != "" {
		if r, err := filepath.Rel(root, file); err == nil {
			file = r
		}
	}
	return filepath.ToSlash(file)
}

// FormatDiagnostic renders one finding for text output, root-relative:
//
//	file:line:col: [analyzer] message
func FormatDiagnostic(root string, d Diagnostic) string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", relFile(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// EncodeDiagnostics writes findings as an indented JSON array in the locked
// schema. The caller passes diagnostics already sorted (Run sorts); the
// encoder adds no ordering of its own, so byte-stability follows from the
// input order plus root-relative paths.
func EncodeDiagnostics(w io.Writer, root string, diags []Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     relFile(root, d.Pos.Filename),
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}
