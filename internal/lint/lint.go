// Package lint implements gitcite's custom static analyzers: machine
// checks for the performance and API invariants the engine's optimisation
// work established (see ROADMAP "Decisions of record" and CONTRIBUTING.md).
// Counter tests catch a regression after it ships a slow path; these
// analyzers reject the code shape that creates one.
//
// The package is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface (Analyzer, Pass, Diagnostic) —
// the build environment vendors no external modules, so the suite runs on
// the standard library's go/ast + go/types alone. The shapes mirror
// go/analysis deliberately: if x/tools becomes available, each Analyzer
// ports by swapping the import.
//
// Diagnostics can be suppressed per line with a staticcheck-style
// directive, either on the flagged line or the line above it:
//
//	//lint:ignore <analyzer-name> <reason>
//
// The reason is mandatory; an ignore without one does not suppress.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check, mirroring
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and //lint:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description printed by `gitcite-lint -help`.
	Doc string
	// Run executes the check against one package.
	Run func(*Pass) error
}

// Pass carries one analyzed package to an Analyzer's Run function,
// mirroring golang.org/x/tools/go/analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Diagnostic is one reported finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		BatchPut,
		CtxFirst,
		LockDiscipline,
		NoIDScan,
		RouteTable,
		WireCodes,
	}
}

// Run executes the analyzers against each loaded package and returns the
// surviving (non-suppressed) diagnostics sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = suppress(pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// suppress drops diagnostics covered by a //lint:ignore directive on the
// same line or the line immediately above.
func suppress(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	// ignores maps file → line → analyzer names ignored at that line.
	ignores := map[string]map[int][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text, ok := strings.CutPrefix(c.Text, "//lint:ignore ")
					if !ok {
						continue
					}
					fields := strings.Fields(text)
					if len(fields) < 2 {
						continue // a reason is mandatory
					}
					pos := pkg.Fset.Position(c.Pos())
					m := ignores[pos.Filename]
					if m == nil {
						m = map[int][]string{}
						ignores[pos.Filename] = m
					}
					m[pos.Line] = append(m[pos.Line], fields[0])
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		m := ignores[d.Pos.Filename]
		if ignoredAt(m, d.Pos.Line, d.Analyzer) || ignoredAt(m, d.Pos.Line-1, d.Analyzer) {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

func ignoredAt(m map[int][]string, line int, analyzer string) bool {
	for _, name := range m[line] {
		if name == analyzer || name == "*" {
			return true
		}
	}
	return false
}

// pathHasSuffix reports whether pkgPath ends with the path suffix, on a
// path-segment boundary ("x/internal/vcs/store" matches suffix
// "internal/vcs/store"; "x/notinternal/vcs/store" does not).
func pathHasSuffix(pkgPath, suffix string) bool {
	return pkgPath == suffix || strings.HasSuffix(pkgPath, "/"+suffix)
}

// declaredIn reports whether obj is declared in a package whose import
// path ends with the given path suffix.
func declaredIn(obj types.Object, suffix string) bool {
	return obj != nil && obj.Pkg() != nil && pathHasSuffix(obj.Pkg().Path(), suffix)
}

// calleeMethod resolves a call expression to the method or function object
// it invokes, or nil.
func calleeMethod(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel] // package-qualified call (pkg.Fn)
	case *ast.Ident:
		return info.Uses[fn]
	}
	return nil
}

// enclosingFuncName returns the name of the innermost enclosing function
// declaration of a node path, or "".
func enclosingFuncName(stack []ast.Node) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Name.Name
		}
	}
	return ""
}

// walkStack traverses f depth-first, invoking visit with the node and the
// stack of its ancestors (outermost first, node excluded).
func walkStack(f *ast.File, visit func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		visit(n, stack)
		stack = append(stack, n)
		return true
	})
}
