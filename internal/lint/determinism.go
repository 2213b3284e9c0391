package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// runDeterminism enforces the deterministic-package contract: identical
// inputs must produce byte-identical outputs, at any parallelism, on
// any run. Three things break that silently and are banned here:
//
//  1. wall-clock reads — time.Now, time.Since, time.Until;
//  2. the global math/rand functions, which draw from a shared,
//     unseeded source (explicitly seeded *rand.Rand values are the
//     sanctioned way to be pseudo-random and reproducible);
//  3. ranging over a map and feeding the iteration order into an
//     order-sensitive sink — printing/encoding/saving directly, or appending
//     to a slice that is never sorted afterwards in the same function.
func runDeterminism(p *pass) {
	for _, file := range p.pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				checkBannedIdent(p, id)
			}
			return true
		})
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapRanges(p, fd.Body)
			}
		}
	}
}

// allowedRandFuncs are math/rand (and v2) package-level functions that
// construct deterministic, explicitly seeded sources rather than
// drawing from the global one.
var allowedRandFuncs = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

func checkBannedIdent(p *pass, id *ast.Ident) {
	fn, ok := p.pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods (e.g. on a seeded *rand.Rand) are fine
	}
	switch fn.Pkg().Path() {
	case "time":
		switch fn.Name() {
		case "Now", "Since", "Until":
			p.report(id.Pos(), CheckDeterminism,
				"time.%s reads the wall clock; deterministic packages must take time as an input (see DESIGN.md §9)", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !allowedRandFuncs[fn.Name()] {
			p.report(id.Pos(), CheckDeterminism,
				"global %s.%s draws from a shared unseeded source; use an explicitly seeded *rand.Rand", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRanges flags map iteration whose order escapes: a sink call
// (fmt printing, Write/Encode/Save methods) inside the loop emits in map
// order; an append inside the loop is only deterministic if the target
// slice is sorted later in the same function.
func checkMapRanges(p *pass, body *ast.BlockStmt) {
	type appendSite struct {
		obj types.Object
		pos token.Pos
	}
	var appends []appendSite
	reported := make(map[token.Pos]bool)

	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.pkg.Info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.CallExpr:
				if name, ok := orderSink(p, m); ok && !reported[m.Pos()] {
					reported[m.Pos()] = true
					p.report(m.Pos(), CheckDeterminism,
						"%s inside a map range emits in nondeterministic map order; collect and sort first", name)
				}
			case *ast.AssignStmt:
				for i, rhs := range m.Rhs {
					if i >= len(m.Lhs) || !isAppendCall(p, rhs) || reported[rhs.Pos()] {
						continue
					}
					if obj := rootObject(p, m.Lhs[i]); obj != nil {
						reported[rhs.Pos()] = true
						appends = append(appends, appendSite{obj, rhs.Pos()})
					}
				}
			}
			return true
		})
		return true
	})

	if len(appends) == 0 {
		return
	}
	sorted := sortedObjects(p, body)
	for _, a := range appends {
		if !sorted[a.obj] {
			p.report(a.pos, CheckDeterminism,
				"append of map-iteration values to %q with no subsequent sort in this function; map order is nondeterministic", a.obj.Name())
		}
	}
}

// orderSink reports whether a call emits its arguments in call order:
// fmt printing functions, Write/WriteString/Encode-shaped methods, and
// Save methods (a History.Save reaches a store, or the wire, in call
// order).
func orderSink(p *pass, call *ast.CallExpr) (string, bool) {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := p.pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			if pkg := fn.Pkg(); pkg != nil && pkg.Path() == "fmt" {
				switch fn.Name() {
				case "Fprint", "Fprintf", "Fprintln", "Print", "Printf", "Println":
					return "fmt." + fn.Name(), true
				}
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				switch fn.Name() {
				case "Write", "WriteString", "WriteByte", "WriteRune", "Encode", "Save":
					return fn.Name(), true
				}
			}
		}
	}
	return "", false
}

func isAppendCall(p *pass, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := p.pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// rootObject resolves the variable an expression names: the object of
// a plain identifier, or the field object of a selector.
func rootObject(p *pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return p.pkg.Info.ObjectOf(e)
	case *ast.SelectorExpr:
		if sel := p.pkg.Info.Selections[e]; sel != nil {
			return sel.Obj()
		}
		return p.pkg.Info.ObjectOf(e.Sel)
	}
	return nil
}

// sortedObjects collects every object passed as the first argument to
// a sort.* or slices.Sort* call anywhere in the function body.
func sortedObjects(p *pass, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := p.pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "sort", "slices":
		default:
			return true
		}
		if obj := rootObject(p, call.Args[0]); obj != nil {
			out[obj] = true
		}
		return true
	})
	return out
}
