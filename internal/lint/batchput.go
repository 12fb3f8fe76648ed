package lint

import (
	"go/ast"
)

// BatchPut rejects per-object store writes inside loops.
//
// The engine's write bound — at most depth+1 store writes for a one-file
// commit, one pack append and one O(batch) index segment per batch — holds
// because every multi-object producer goes through PutMany/PutManyEncoded
// (PR 2's batch API, PR 5's journaled pack appends). A `Put` in a loop
// degrades that to one lock acquisition, one fanout scan and one index
// write per object; on the pack store it also journals one segment per
// object. Collect the batch and write it once via PutMany /
// PutManyEncoded, which every store implements.
//
// The store package itself is exempt (it implements the batch paths), as
// are `main` packages (demo binaries) and methods themselves named
// Put/PutEncoded (interface forwarding wrappers).
var BatchPut = &Analyzer{
	Name: "batchput",
	Doc:  "flag store Put/PutEncoded calls inside loops; batch through PutMany/PutManyEncoded",
	Run:  runBatchPut,
}

func runBatchPut(pass *Pass) error {
	if pathHasSuffix(pass.Pkg.Path(), storePathSuffix) || pass.Pkg.Name() == "main" {
		return nil
	}
	for _, f := range pass.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			obj := calleeMethod(pass.TypesInfo, call)
			if obj == nil || !declaredIn(obj, storePathSuffix) {
				return
			}
			if obj.Name() != "Put" && obj.Name() != "PutEncoded" {
				return
			}
			if !insideLoop(stack) {
				return
			}
			name := enclosingFuncName(stack)
			if name == "Put" || name == "PutEncoded" {
				return // forwarding wrapper implementing the interface
			}
			pass.Reportf(call.Pos(),
				"store %s inside a loop writes one object at a time; collect the batch and use store.PutMany/PutManyEncoded", obj.Name())
		})
	}
	return nil
}

// insideLoop reports whether the node whose ancestor stack is given sits
// in a for/range body. Function literals reset the answer: a loop that
// builds closures does not make the closure body a loop.
func insideLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}
