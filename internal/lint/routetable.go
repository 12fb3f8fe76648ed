package lint

import (
	"go/ast"
	"go/types"
)

// RouteTable rejects HTTP route registrations outside the route table's
// registration loop.
//
// Every route of the hosting server is a row of one table, and the loop
// in NewServer that registers the rows derives each route's wrappers from
// its kind: write routes answer 307 on a replica, admin routes are
// token-gated, probes bypass the rate limiter. A route registered by hand
// gets none of that unless someone remembers it on its line, and a
// forgotten replica gate lets a follower acknowledge a write (CONTRIBUTING
// invariant 9). So a ServeMux Handle/HandleFunc call — or the package-level
// http.Handle/HandleFunc, which register on the default mux — is legal
// only inside a range over a []route declared in internal/hosting.
var RouteTable = &Analyzer{
	Name: "routetable",
	Doc:  "flag ServeMux Handle/HandleFunc calls outside the hosting route table's registration loop",
	Run:  runRouteTable,
}

func runRouteTable(pass *Pass) error {
	for _, f := range pass.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return
			}
			obj := calleeMethod(pass.TypesInfo, call)
			if !isMuxRegistration(obj) || inRouteTableLoop(pass.TypesInfo, stack) {
				return
			}
			pass.Reportf(call.Pos(),
				"%s outside the route table: declare the route as a row of the internal/hosting route table, whose kind sets its policies", obj.Name())
		})
	}
	return nil
}

// isMuxRegistration reports whether obj is net/http's Handle or HandleFunc.
// Only ServeMux and the package-level default-mux functions have them.
func isMuxRegistration(obj types.Object) bool {
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "net/http" &&
		(obj.Name() == "Handle" || obj.Name() == "HandleFunc")
}

// inRouteTableLoop reports whether the innermost range statement around a
// node, within its function, ranges over the hosting route table.
func inRouteTableLoop(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch n := stack[i].(type) {
		case *ast.RangeStmt:
			slice, ok := info.TypeOf(n.X).(*types.Slice)
			if !ok {
				return false
			}
			named, ok := slice.Elem().(*types.Named)
			return ok && named.Obj().Name() == "route" && declaredIn(named.Obj(), hostingPathSuffix)
		case *ast.FuncLit, *ast.FuncDecl:
			return false
		}
	}
	return false
}
