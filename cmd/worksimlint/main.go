// Command worksimlint runs the repository's static-analysis suite — the
// five analyzers for the invariants that no test or `go vet` check already
// measures: determinism (no wall clock / ambient randomness / map-ordered
// output in simulation packages), facadeboundary (cmd/ and examples/ use
// only the public repro/worksim... façade; internal/ never imports it back),
// ctxdiscipline (leading context.Context on exported blocking façade APIs;
// //worksim:tickloop loops check cancellation), gohygiene (every go
// statement in the simulation packages is join-tracked), and syncmisuse
// (fields mixing atomic and plain access, time.Sleep in tick loops).
//
// Usage:
//
//	worksimlint [packages]      # analyze packages (default ./...)
//	worksimlint -list           # list the analyzers, then exit
//	worksimlint -json           # machine-readable diagnostics
//	worksimlint -audit          # emit the //worksim:allow suppression ledger
//
// Diagnostics print as file:line:col: [analyzer] message — sorted by
// (file, line, col, analyzer) and root-relative, so two runs over the same
// tree are byte-identical — and any finding makes the process exit 1, so
// `go run ./cmd/worksimlint ./...` doubles as the CI gate. Suppress a
// deliberate exception at its line (or the line above) with
// `//worksim:allow <reason>`; -audit prints every such directive with the
// analyzers it suppresses as JSON and fails on directives that are bare or
// suppress nothing, so the exception inventory stays reviewable.
//
// worksimlint deliberately imports only repro/internal/analysis: it is a
// build-time tool, not a simulation client, so the facadeboundary rule
// exempts nothing for it — it never touches the engine at all.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis" //worksim:allow build-time lint tool, not an engine client; the façade rule for cmd/ intentionally does not cover the linter itself
)

func main() {
	var (
		list    = flag.Bool("list", false, "list the analyzer suite, then exit")
		jsonOut = flag.Bool("json", false, "emit diagnostics as JSON")
		audit   = flag.Bool("audit", false, "emit the //worksim:allow suppression ledger as JSON; fail on bare or orphaned directives")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := analysis.ModuleRoot(".")
	if err != nil {
		fatalf("%v", err)
	}
	pkgs, err := analysis.Load(root, flag.Args()...)
	if err != nil {
		fatalf("%v", err)
	}

	if *audit {
		report, failures, err := analysis.Audit(root, pkgs, analysis.All())
		if err != nil {
			fatalf("%v", err)
		}
		if err := analysis.EncodeAuditReport(os.Stdout, report); err != nil {
			fatalf("%v", err)
		}
		for _, d := range failures {
			fmt.Fprintln(os.Stderr, analysis.FormatDiagnostic(root, d))
		}
		if len(failures) > 0 {
			fmt.Fprintf(os.Stderr, "worksimlint: %d suppression-ledger failure(s)\n", len(failures))
			os.Exit(1)
		}
		return
	}

	diags, err := analysis.Run(pkgs, analysis.All())
	if err != nil {
		fatalf("%v", err)
	}

	if *jsonOut {
		if err := analysis.EncodeDiagnostics(os.Stdout, root, diags); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, d := range diags {
			fmt.Println(analysis.FormatDiagnostic(root, d))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "worksimlint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "worksimlint: "+format+"\n", args...)
	os.Exit(2)
}
