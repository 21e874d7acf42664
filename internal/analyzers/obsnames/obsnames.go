// Package obsnames enforces the observability naming contract of
// internal/obs (see docs/OBSERVABILITY.md): every metric, label, and span
// name handed to the obs API as a string literal must be lowercase_snake
// ([a-z][a-z0-9_]*), and a metric name must be registered at most once per
// package. The registry panics on both violations at runtime — but a
// scrape-path panic fires at first scrape, not first test, so this
// analyzer moves the failure to CI time. Dynamic (non-literal) names are
// out of static reach and left to the runtime check.
package obsnames

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"fairdms/internal/analyzers/anzkit"
	"fairdms/internal/obs"
)

// Analyzer is the package-level instance registered with fairvet.
var Analyzer = &anzkit.Analyzer{
	Name: "obsnames",
	Doc:  "obs metric/span names must be lowercase_snake and each metric registered once per package",
	Run:  run,
}

// registrations maps the *obs.Registry methods that register a metric to
// the index of their name argument. They additionally participate in the
// once-per-package check; StartSpan names recur freely (one per request).
// A method is one of them only on a *Registry receiver: other obs types
// share these names (Logger.Info takes a log message, not a metric name).
var registrations = map[string]int{
	"Counter":      0,
	"CounterFunc":  0,
	"Gauge":        0,
	"GaugeFunc":    0,
	"Histogram":    0,
	"CounterVec":   0,
	"GaugeVec":     0,
	"HistogramVec": 0,
	"Info":         0,
}

// labelArg is the label-name position of the vector registrations.
var labelArg = map[string]int{
	"CounterVec":   2,
	"GaugeVec":     2,
	"HistogramVec": 2,
}

func run(pass *anzkit.Pass) error {
	registered := make(map[string]token.Position) // metric name → first site
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "internal/obs") {
				return true
			}
			switch {
			case fn.Name() == "StartSpan":
				if name, pos, ok := literalArg(call, 1); ok && !obs.ValidName(name) {
					pass.Reportf(pos, "span name %q is not lowercase_snake ([a-z][a-z0-9_]*)", name)
				}
			default:
				idx, isReg := registrations[fn.Name()]
				if !isReg || !onRegistry(fn) {
					return true
				}
				if li, pos, ok := literalArg(call, labelArg[fn.Name()]); ok && labelArg[fn.Name()] > 0 && !obs.ValidName(li) {
					pass.Reportf(pos, "label name %q is not lowercase_snake ([a-z][a-z0-9_]*)", li)
				}
				name, pos, ok := literalArg(call, idx)
				if !ok {
					return true
				}
				if !obs.ValidName(name) {
					pass.Reportf(pos, "metric name %q is not lowercase_snake ([a-z][a-z0-9_]*)", name)
					return true
				}
				if first, dup := registered[name]; dup {
					pass.Reportf(pos, "metric %q is already registered at %s; a second registration panics at runtime", name, first)
					return true
				}
				registered[name] = pass.Fset.Position(call.Pos())
			}
			return true
		})
	}
	return nil
}

// literalArg extracts call argument i when it is a string literal.
func literalArg(call *ast.CallExpr, i int) (string, token.Pos, bool) {
	if i < 0 || i >= len(call.Args) {
		return "", token.NoPos, false
	}
	lit, ok := call.Args[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", token.NoPos, false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", token.NoPos, false
	}
	return s, lit.Pos(), true
}

// onRegistry reports whether fn is a method with a *Registry receiver.
func onRegistry(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	ptr, ok := recv.Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

func calleeFunc(pass *anzkit.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		fn, _ := pass.Info.Uses[fun.Sel].(*types.Func)
		return fn
	case *ast.Ident:
		fn, _ := pass.Info.Uses[fun].(*types.Func)
		return fn
	}
	return nil
}
