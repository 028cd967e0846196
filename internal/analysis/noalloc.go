package analysis

import (
	"go/ast"
	"go/types"
)

// NoAlloc enforces //vaq:noalloc annotations: the marked function is a
// hot-path routine (the BFS inner loop, the seed walk, the arena
// accessors) whose steady state must allocate nothing, and its body must
// not contain the constructs that allocate:
//
//   - slice and map composite literals, and &T{...} (escaping composite);
//   - make and new;
//   - function literals (closures capture onto the heap);
//   - any fmt.* call (interface boxing plus formatting state);
//   - append, except the self-append reuse idiom `x = append(x, ...)`
//     (amortized-zero against a pooled/retained buffer);
//   - non-constant string concatenation;
//   - explicit conversions to an interface type.
//
// Struct and array value literals are fine (stack copies), as are calls —
// the annotation is per-function, not transitive; annotate the callee too
// if it must not allocate.
var NoAlloc = &Analyzer{
	Code: "noalloc",
	Doc:  "//vaq:noalloc functions must not contain allocating constructs",
	Run:  runNoAlloc,
}

func runNoAlloc(p *Pass) {
	for _, f := range p.Pkg.Files {
		fmtPkg := importName(f, "fmt")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if marked, _ := hasMarker(fn.Doc, "//vaq:noalloc"); !marked {
				continue
			}
			checkNoAlloc(p, fn, fmtPkg)
		}
	}
}

func checkNoAlloc(p *Pass, fn *ast.FuncDecl, fmtPkg string) {
	name := fn.Name.Name
	info := p.Pkg.Info

	// Self-appends (`x = append(x, ...)`) are the one allowed append form.
	allowedAppend := make(map[*ast.CallExpr]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
			return true
		}
		if exprText(assign.Lhs[0]) == exprText(call.Args[0]) {
			allowedAppend[call] = true
		}
		return true
	})

	report := func(pos ast.Node, what string) {
		p.Reportf(pos.Pos(), "//vaq:noalloc function %s contains %s", name, what)
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			report(x, "a function literal (closures allocate)")
			return false // its body is the closure's problem
		case *ast.UnaryExpr:
			if x.Op.String() == "&" {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					report(x, "&composite literal (escapes to the heap)")
					return false
				}
			}
		case *ast.CompositeLit:
			var t types.Type
			if tv, ok := info.Types[x]; ok {
				t = tv.Type
			}
			if allocatingLiteral(x, t) {
				report(x, "a slice/map literal")
			}
		case *ast.CallExpr:
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				switch fun.Name {
				case "make":
					report(x, "make")
				case "new":
					report(x, "new")
				case "append":
					if !allowedAppend[x] {
						report(x, "append outside the `x = append(x, ...)` reuse idiom")
					}
				}
			case *ast.SelectorExpr:
				if fmtPkg != "" {
					if id, ok := fun.X.(*ast.Ident); ok && id.Name == fmtPkg {
						report(x, "a fmt."+fun.Sel.Name+" call (boxes into interfaces)")
					}
				}
			}
			// Explicit conversion to an interface type.
			if tv, ok := info.Types[x.Fun]; ok && tv.IsType() {
				if _, isIface := tv.Type.Underlying().(*types.Interface); isIface {
					report(x, "a conversion to an interface type")
				}
			}
		case *ast.BinaryExpr:
			if x.Op.String() == "+" {
				if tv, ok := info.Types[x]; ok && tv.Value == nil && tv.Type != nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						report(x, "non-constant string concatenation")
					}
				}
			}
		}
		return true
	})
}

// allocatingLiteral reports whether lit is a slice or map literal. With
// type info the literal's own type decides; without it the syntactic
// type expression does (a bare ArrayType with no length is a slice).
func allocatingLiteral(lit *ast.CompositeLit, t types.Type) bool {
	if t != nil {
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map:
			return true
		}
		return false
	}
	switch tx := lit.Type.(type) {
	case *ast.ArrayType:
		return tx.Len == nil
	case *ast.MapType:
		return true
	}
	return false
}
