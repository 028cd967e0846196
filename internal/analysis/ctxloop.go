package analysis

import (
	"go/ast"
)

// CtxLoop enforces the cancellation invariant of the query path: a
// function that takes a context.Context and drives an unbounded loop —
// a BFS/heap frontier, a stream-reader loop, or an unconditional retry
// loop — must make that loop cancellable. The recognized loop shapes:
//
//   - frontier: `for ... len(X) ...` where the body grows or shrinks X
//     (the Voronoi BFS queue; a heap popped until empty);
//   - iterator: the loop condition calls a method (for sc.Scan(),
//     for rows.Next(), ...);
//   - infinite: no loop condition (retry/poll loops).
//
// A loop satisfies the invariant when its body checks <ctx>.Err() or
// <ctx>.Done() (the `% cancelStride` guard idiom counts — the check may
// sit behind any condition), or passes <ctx> to a call (delegating
// cancellation to the callee). Bounded range loops and plain counted
// loops are out of scope — they do O(items-in-memory) work and the
// engine's convention is stride checks only where work is unbounded.
var CtxLoop = &Analyzer{
	Code: "ctxloop",
	Doc:  "context-taking query loops must check ctx.Err()/ctx.Done() or delegate ctx",
	Run:  runCtxLoop,
}

func runCtxLoop(p *Pass) {
	for _, f := range p.Pkg.Files {
		ctxPkg := importName(f, "context")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ctxName := ctxParamName(p, f, fn, ctxPkg)
			if ctxName == "" {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				loop, ok := n.(*ast.ForStmt)
				if !ok {
					return true
				}
				kind := classifyLoop(loop)
				if kind == "" {
					return true
				}
				if !loopCancellable(loop, ctxName) {
					p.Reportf(loop.For,
						"%s loop in %s runs without a %s.Err()/%s.Done() check or a call taking %s (add a cancelStride-style check)",
						kind, fn.Name.Name, ctxName, ctxName, ctxName)
				}
				return true
			})
		}
	}
}

// ctxParamName returns the name of fn's context.Context parameter, "" when
// there is none (or it is unnamed/blank — nothing could check it). Type
// info resolves aliases when available; the file's import table is the
// syntactic fallback.
func ctxParamName(p *Pass, f *ast.File, fn *ast.FuncDecl, ctxPkg string) string {
	for _, field := range fn.Type.Params.List {
		isCtx := false
		if tv, ok := p.Pkg.Info.Types[field.Type]; ok && tv.Type != nil {
			isCtx = typeIsNamed(tv.Type, "context", "Context")
		}
		if !isCtx && ctxPkg != "" {
			if sel, ok := field.Type.(*ast.SelectorExpr); ok && sel.Sel.Name == "Context" {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == ctxPkg {
					isCtx = true
				}
			}
		}
		if !isCtx {
			continue
		}
		for _, name := range field.Names {
			if name.Name != "_" {
				return name.Name
			}
		}
	}
	return ""
}

// classifyLoop reports which obligated shape loop has: "frontier",
// "iterator", "infinite", or "" (out of scope).
func classifyLoop(loop *ast.ForStmt) string {
	if loop.Cond == nil {
		return "infinite"
	}
	iterator := false
	var lenRoots []*ast.Ident
	ast.Inspect(loop.Cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "len" && len(call.Args) == 1 {
			if root := rootIdent(call.Args[0]); root != nil {
				lenRoots = append(lenRoots, root)
			}
			return true
		}
		if _, ok := call.Fun.(*ast.SelectorExpr); ok {
			iterator = true
		}
		return true
	})
	if iterator {
		return "iterator"
	}
	for _, root := range lenRoots {
		if loopMutatesFrontier(loop.Body, root.Name) {
			return "frontier"
		}
	}
	return ""
}

// loopMutatesFrontier reports whether the body changes the length of the
// frontier rooted at name: an assignment whose whole target is rooted at
// name (x = append(x, ...), *h = ..., s.queue = s.queue[:n] — index
// writes do not count), or a method call on it (h.pop(), q.push(...)).
func loopMutatesFrontier(body *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if _, idx := lhs.(*ast.IndexExpr); idx {
					continue
				}
				if root := rootIdent(lhs); root != nil && root.Name == name {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
				if root := rootIdent(sel.X); root != nil && root.Name == name {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// loopCancellable reports whether the loop's condition or body contains a
// <ctx>.Err()/<ctx>.Done() use or a call that passes <ctx> along (the
// `for ... && ctx.Err() == nil` condition idiom counts as a check).
func loopCancellable(loop *ast.ForStmt, ctxName string) bool {
	if loop.Cond != nil && exprMentionsCtx(loop.Cond, ctxName) {
		return true
	}
	return exprMentionsCtx(loop.Body, ctxName)
}

// exprMentionsCtx reports whether n contains ctx.Err()/ctx.Done() or a
// call with ctx as an argument.
func exprMentionsCtx(n ast.Node, ctxName string) bool {
	ok := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if sel, isSel := call.Fun.(*ast.SelectorExpr); isSel {
			if id, isID := sel.X.(*ast.Ident); isID && id.Name == ctxName &&
				(sel.Sel.Name == "Err" || sel.Sel.Name == "Done") {
				ok = true
			}
		}
		for _, arg := range call.Args {
			if id, isID := arg.(*ast.Ident); isID && id.Name == ctxName {
				ok = true
			}
		}
		return !ok
	})
	return ok
}
