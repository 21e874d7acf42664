// Package errboundary enforces the HTTP error boundary of handler
// packages (internal/dmsapi): internal errors must be mapped to explicit
// HTTP statuses at the boundary, never leaked raw to clients. A handler is
// any function or method with the repo's handler shape,
//
//	func (…) handleX(w http.ResponseWriter, r *http.Request) error
//
// and a package containing at least one handler is held to three rules:
//
//  1. No raw internal returns: a handler must not `return err` bare when
//     err's nearest preceding assignment came from another package of this
//     module (a service call). Such errors must pass through a mapping
//     (errf, errc, serviceError, an errors.Is switch) that builds the
//     *StatusError carrying the status and the client-safe message.
//  2. No http.Error: plain-text error bodies bypass the package's JSON
//     error writer; every failure must go through the boundary's encoder.
//  3. Sentinel coverage: for each known sentinel (fairds.ErrNotFitted,
//     trainer.ErrQueueFull, trainer.ErrShutdown, fairms.ErrDuplicateID,
//     fairms.ErrStore),
//     a package that calls error-returning functions of the sentinel's
//     package must map it with errors.Is somewhere — deleting the mapping
//     turns a typed 409/429/503 into an anonymous 500, or a store fault
//     into the caller's 400.
//  4. Envelope writer only: an error status (WriteHeader with a constant
//     >= 400) may be written only inside the envelope writer — a function
//     named WriteStatusError, the one writer both serving tiers' request
//     pipeline calls. An ad-hoc WriteHeader(500) elsewhere ships a body
//     without the unified {"error": {code, message, retryable}} envelope,
//     which clients and the cluster router parse.
package errboundary

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"

	"fairdms/internal/analyzers/anzkit"
)

// A Sentinel names one error value handlers must map, identified by the
// trailing part of its package's import path (suffix match keeps fixture
// modules testable).
type Sentinel struct {
	PkgSuffix string // e.g. "internal/fairds"
	Name      string // e.g. "ErrNotFitted"
	Status    string // documented target, e.g. "409 Conflict"
}

// Config parameterizes the analyzer; tests inject fixture sentinels.
type Config struct {
	Sentinels []Sentinel
}

// DefaultConfig is the repo's boundary contract.
var DefaultConfig = Config{
	Sentinels: []Sentinel{
		{PkgSuffix: "internal/fairds", Name: "ErrNotFitted", Status: "409 Conflict"},
		{PkgSuffix: "internal/trainer", Name: "ErrQueueFull", Status: "429 Too Many Requests"},
		{PkgSuffix: "internal/trainer", Name: "ErrShutdown", Status: "503 Service Unavailable"},
		{PkgSuffix: "internal/fairms", Name: "ErrDuplicateID", Status: "409 Conflict"},
		{PkgSuffix: "internal/fairms", Name: "ErrStore", Status: "500 Internal Server Error"},
		{PkgSuffix: "internal/obs", Name: "ErrDisabled", Status: "404 Not Found"},
	},
}

// Analyzer is the package-level instance registered with fairvet.
var Analyzer = NewAnalyzer(DefaultConfig)

// NewAnalyzer builds an errboundary analyzer over a sentinel contract.
func NewAnalyzer(cfg Config) *anzkit.Analyzer {
	return &anzkit.Analyzer{
		Name: "errboundary",
		Doc:  "HTTP handlers must map internal errors (and known sentinels) to statuses, not leak them raw",
		Run:  func(pass *anzkit.Pass) error { return run(pass, cfg) },
	}
}

func run(pass *anzkit.Pass, cfg Config) error {
	handlers := collectHandlers(pass)
	if len(handlers) == 0 {
		return nil
	}
	for _, fd := range handlers {
		checkRawReturns(pass, fd)
	}
	checkHTTPError(pass)
	checkAdHocStatus(pass)
	checkSentinels(pass, cfg, handlers[0])
	return nil
}

// collectHandlers finds handler-shaped functions: parameters
// (http.ResponseWriter, *http.Request), single error result.
func collectHandlers(pass *anzkit.Pass) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Params().Len() != 2 || sig.Results().Len() != 1 {
				continue
			}
			if !isNetHTTP(sig.Params().At(0).Type(), "ResponseWriter", false) ||
				!isNetHTTP(sig.Params().At(1).Type(), "Request", true) {
				continue
			}
			if !types.Identical(sig.Results().At(0).Type(), types.Universe.Lookup("error").Type()) {
				continue
			}
			out = append(out, fd)
		}
	}
	return out
}

func isNetHTTP(t types.Type, name string, ptr bool) bool {
	if ptr {
		p, ok := t.(*types.Pointer)
		if !ok {
			return false
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == name
}

// moduleOf returns the leading path segment ("fairdms" for
// "fairdms/internal/dmsapi"), the cheap module identity shared by every
// internal package.
func moduleOf(path string) string {
	seg, _, _ := strings.Cut(path, "/")
	return seg
}

// checkRawReturns flags `return err` where err's nearest preceding
// assignment in the handler is a call into another package of this module.
func checkRawReturns(pass *anzkit.Pass, fd *ast.FuncDecl) {
	module := moduleOf(pass.Pkg.Path())

	// taints: positions of assignments whose RHS is an internal
	// cross-package call, per assigned error object.
	taints := make(map[types.Object][]taint)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 {
			return true
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeFunc(pass, call)
		internal := callee != nil && callee.Pkg() != nil &&
			callee.Pkg() != pass.Pkg && moduleOf(callee.Pkg().Path()) == module
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			obj := pass.Info.ObjectOf(id)
			if obj == nil || !types.Identical(obj.Type(), types.Universe.Lookup("error").Type()) {
				continue
			}
			t := taint{pos: as.Pos(), internal: internal}
			if internal {
				t.callee = callee.Pkg().Path() + "." + callee.Name()
			}
			taints[obj] = append(taints[obj], t)
		}
		return true
	})

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok || len(ret.Results) != 1 {
			return true
		}
		id, ok := ret.Results[0].(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return true
		}
		// Nearest assignment before this return decides the error's origin.
		var last *taint
		for i := range taints[obj] {
			t := &taints[obj][i]
			if t.pos < ret.Pos() && (last == nil || t.pos > last.pos) {
				last = t
			}
		}
		if last != nil && last.internal {
			pass.Reportf(ret.Pos(), "handler %s returns the raw error from %s to the client; map it to an HTTP status (errf/serviceError) at the boundary", fd.Name.Name, last.callee)
		}
		return true
	})
}

type taint struct {
	pos      token.Pos
	internal bool
	callee   string
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

// checkHTTPError flags http.Error calls anywhere in a handler package.
func checkHTTPError(pass *anzkit.Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "net/http" && fn.Name() == "Error" {
				pass.Reportf(call.Pos(), "http.Error writes a plain-text body, bypassing the JSON error boundary; use the package's error writer")
			}
			return true
		})
	}
}

// envelopeWriter is the one function name allowed to write error
// statuses directly: dmsapi's shared envelope writer.
const envelopeWriter = "WriteStatusError"

// checkAdHocStatus flags WriteHeader calls with a constant status >= 400
// outside an envelope writer (rule 4).
func checkAdHocStatus(pass *anzkit.Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == envelopeWriter {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 1 {
					return true
				}
				fn := calleeFunc(pass, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" || fn.Name() != "WriteHeader" {
					return true
				}
				tv, ok := pass.Info.Types[call.Args[0]]
				if !ok || tv.Value == nil {
					return true
				}
				if status, ok := constant.Int64Val(tv.Value); ok && status >= 400 {
					pass.Reportf(call.Pos(), "ad-hoc WriteHeader(%d) in %s bypasses the JSON error envelope; return a *StatusError and let WriteStatusError write it", status, fd.Name.Name)
				}
				return true
			})
		}
	}
}

// checkSentinels verifies every applicable sentinel is mapped with
// errors.Is somewhere in the package.
func checkSentinels(pass *anzkit.Pass, cfg Config, anchor *ast.FuncDecl) {
	callsInto := make(map[string]bool) // pkg path suffix key: calls error-returning fn of that pkg
	mapped := make(map[string]bool)    // "suffix.Name" mapped via errors.Is
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if fn.Pkg().Path() == "errors" && fn.Name() == "Is" && len(call.Args) == 2 {
				if obj := exprObject(pass, call.Args[1]); obj != nil && obj.Pkg() != nil {
					for _, s := range cfg.Sentinels {
						if obj.Name() == s.Name && strings.HasSuffix(obj.Pkg().Path(), s.PkgSuffix) {
							mapped[s.PkgSuffix+"."+s.Name] = true
						}
					}
				}
				return true
			}
			if fn.Pkg() != pass.Pkg && returnsError(fn) {
				for _, s := range cfg.Sentinels {
					if strings.HasSuffix(fn.Pkg().Path(), s.PkgSuffix) {
						callsInto[s.PkgSuffix] = true
					}
				}
			}
			return true
		})
	}
	for _, s := range cfg.Sentinels {
		if callsInto[s.PkgSuffix] && !mapped[s.PkgSuffix+"."+s.Name] {
			pass.Reportf(anchor.Pos(), "handler package calls %s but never maps %s.%s (→ %s) with errors.Is; clients would see an anonymous 500", s.PkgSuffix, s.PkgSuffix, s.Name, s.Status)
		}
	}
}

func exprObject(pass *anzkit.Pass, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return pass.Info.Uses[e.Sel]
	case *ast.Ident:
		return pass.Info.ObjectOf(e)
	}
	return nil
}

func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if types.Identical(sig.Results().At(i).Type(), types.Universe.Lookup("error").Type()) {
			return true
		}
	}
	return false
}
