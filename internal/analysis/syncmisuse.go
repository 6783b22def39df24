package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SyncMisuse flags the synchronization mistakes that the runtime either
// cannot detect or detects only when a schedule happens to expose them:
//
//   - a struct field accessed both through sync/atomic calls and with plain
//     loads/stores in the same package: the plain access tears the atomicity
//     the other call sites paid for. (Typed atomics — atomic.Int64 and
//     friends — are immune by construction and preferred.)
//   - time.Sleep inside a //worksim:tickloop loop: the simulation advances
//     on virtual time, so a host sleep in a tick loop stalls the scheduler
//     without simulating anything.
//
// Sync primitives copied by value are left to `go vet` (copylocks), which CI
// runs on the whole module. Deliberate exceptions carry
// //worksim:allow <reason>.
var SyncMisuse = &Analyzer{
	Name: "syncmisuse",
	Doc: "flag struct fields mixing atomic and plain access, and time.Sleep " +
		"inside //worksim:tickloop loops",
	Run: runSyncMisuse,
}

func runSyncMisuse(pass *Pass) error {
	atomicFields := collectAtomicFields(pass)
	for _, f := range pass.Files {
		tickLines := directiveEndLines(pass.Fset, f, tickloopDirective)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkPlainAtomicAccess(pass, atomicFields, n)
			case *ast.ForStmt:
				checkTickloopSleep(pass, tickLines, n.Pos(), n.Body)
			case *ast.RangeStmt:
				checkTickloopSleep(pass, tickLines, n.Pos(), n.Body)
			}
			return true
		})
	}
	return nil
}

// atomicFieldUse records where a struct field is touched by sync/atomic
// calls, so plain accesses elsewhere can be flagged.
type atomicFieldUse struct {
	// nodes are the selector expressions inside atomic call arguments —
	// excluded from the plain-access sweep.
	nodes map[*ast.SelectorExpr]bool
	// fields maps the field object to one atomic call position (for the
	// message).
	fields map[types.Object]token.Position
}

// collectAtomicFields finds every `atomic.Op(&x.f, ...)` call in the package
// and records the field objects involved.
func collectAtomicFields(pass *Pass) atomicFieldUse {
	use := atomicFieldUse{
		nodes:  make(map[*ast.SelectorExpr]bool),
		fields: make(map[types.Object]token.Position),
	}
	if pass.Info == nil {
		return use
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if _, isAtomic := pkgFuncCall(pass.Info, call, "sync/atomic"); !isAtomic {
				return true
			}
			for _, arg := range call.Args {
				un, ok := arg.(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := un.X.(*ast.SelectorExpr)
				if !ok {
					continue
				}
				obj := fieldObject(pass.Info, sel)
				if obj == nil {
					continue
				}
				use.nodes[sel] = true
				if _, seen := use.fields[obj]; !seen {
					use.fields[obj] = pass.Fset.Position(call.Pos())
				}
			}
			return true
		})
	}
	return use
}

// fieldObject resolves a selector to the struct field it denotes, or nil.
func fieldObject(info *types.Info, sel *ast.SelectorExpr) types.Object {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj()
}

// checkPlainAtomicAccess flags a plain (non-atomic) use of a field that the
// package also accesses through sync/atomic.
func checkPlainAtomicAccess(pass *Pass, use atomicFieldUse, sel *ast.SelectorExpr) {
	if len(use.fields) == 0 || use.nodes[sel] {
		return
	}
	obj := fieldObject(pass.Info, sel)
	if obj == nil {
		return
	}
	at, ok := use.fields[obj]
	if !ok {
		return
	}
	pass.Reportf(sel.Pos(), "field %s is accessed atomically elsewhere (e.g. %s) but plainly here: the plain load/store races with the atomic sites; use sync/atomic everywhere or a typed atomic.Int64-style field", obj.Name(), at)
}

// checkTickloopSleep flags time.Sleep inside a //worksim:tickloop loop.
func checkTickloopSleep(pass *Pass, tickLines map[int]bool, loopPos token.Pos, body *ast.BlockStmt) {
	line := pass.Fset.Position(loopPos).Line
	if !tickLines[line-1] {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := pkgFuncCall(pass.Info, call, "time"); ok && name == "Sleep" {
			pass.Reportf(call.Pos(), "time.Sleep inside a //worksim:tickloop loop stalls the scheduler on host time; advance virtual time through the simulation clock instead")
		}
		return true
	})
}
