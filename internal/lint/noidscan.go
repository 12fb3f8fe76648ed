package lint

import (
	"go/ast"
)

// storePathSuffix identifies the object-store package wherever the module
// lives; analyzers match by path suffix so the testdata fixtures can model
// the package under short import paths.
const storePathSuffix = "internal/vcs/store"

// NoIDScan rejects Store.IDs() calls outside the store package itself.
//
// IDs() enumerates every object — O(repository) work, and on a repository
// with a legacy loose tier a full directory tree scan. PR 4 removed the last
// hot-path caller by giving every store an ordered index behind
// IDsByPrefix, which every Store implements, and the bench counters pin
// zero full scans per prefix resolve; one careless IDs() call in a resolver or handler silently
// reintroduces the O(n) behaviour. Abbreviated-ID lookups must go through
// store.IDsByPrefix, presence checks through Has/HasMany.
//
// A method that is itself named IDs may forward the call (interface
// wrappers — counting stores, instrumentation — stay legal).
var NoIDScan = &Analyzer{
	Name: "noidscan",
	Doc: "flag Store.IDs() calls outside " + storePathSuffix +
		" (prefix lookups must use Store.IDsByPrefix)",
	Run: runNoIDScan,
}

func runNoIDScan(pass *Pass) error {
	if pathHasSuffix(pass.Pkg.Path(), storePathSuffix) {
		return nil
	}
	for _, f := range pass.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			obj := calleeMethod(pass.TypesInfo, call)
			if obj == nil || obj.Name() != "IDs" || !declaredIn(obj, storePathSuffix) {
				return
			}
			if enclosingFuncName(stack) == "IDs" {
				return // forwarding wrapper implementing the interface
			}
			pass.Reportf(call.Pos(),
				"Store.IDs() scans every object (O(repository)); resolve prefixes via store.IDsByPrefix and presence via Has/HasMany")
		})
	}
	return nil
}
