package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// importName returns the local name path is imported under in f: the
// explicit alias when one is given, the path's last element otherwise,
// and "" when f does not import path (or dot/blank-imports it).
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			if imp.Name.Name == "." || imp.Name.Name == "_" {
				return ""
			}
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}

// rootIdent unwraps an expression chain (parens, derefs, address-of,
// selectors, indexes, slices, type assertions) down to its base
// identifier; nil when the base is not an identifier (a call, a literal).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// exprText renders e compactly (types.ExprString), for base-expression
// matching ("s", "bp.shards[i]") and messages.
func exprText(e ast.Expr) string { return types.ExprString(e) }

// isPkgCall reports whether call is pkgName.fnName(...) resolved against
// the file's import table (pkgLocal is the local name of the package in
// this file; "" never matches).
func isPkgCall(call *ast.CallExpr, pkgLocal, fnName string) bool {
	if pkgLocal == "" {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fnName {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkgLocal
}

// hasMarker reports whether a doc comment group contains the exact
// marker directive (e.g. "//vaq:noalloc") on a line of its own, with an
// optional trailing argument returned as the second value.
func hasMarker(doc *ast.CommentGroup, marker string) (bool, string) {
	if doc == nil {
		return false, ""
	}
	for _, c := range doc.List {
		rest, ok := strings.CutPrefix(c.Text, marker)
		if !ok {
			continue
		}
		if rest == "" {
			return true, ""
		}
		if rest[0] == ' ' || rest[0] == '\t' {
			return true, strings.TrimSpace(rest)
		}
	}
	return false, ""
}

// typeIsNamed reports whether t (after pointer unwrapping) is the named
// type pkgPath.name.
func typeIsNamed(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// aliasingType reports whether t can alias memory the caller keeps:
// slices, pointers, maps, channels, functions, and interfaces can;
// plain values (numbers, bools, strings — conversions copy — and
// structs/arrays of plain values) are copies. Unknown (nil) types count
// as aliasing — conservative.
func aliasingType(t types.Type) bool {
	if t == nil {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasingType(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return aliasingType(u.Elem())
	default:
		return true
	}
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// implementsError reports whether t satisfies the error interface.
func implementsError(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorType) ||
		types.Implements(types.NewPointer(t), errorType)
}
