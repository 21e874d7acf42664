// Package fsyncrename enforces crash-safe persistence: code that writes
// files must follow the tmp+fsync+rename discipline the repo's snapshot
// paths rely on (fsx.WriteAtomic, and the WAL checkpoint that
// wal.Log writes through fsx.WriteAtomicFS). Concretely, per function:
//
//   - os.WriteFile is always flagged: it cannot fsync, so a crash after
//     rename (or mid-write, without a rename) can surface a truncated or
//     empty file. Use fsx.WriteFileAtomic.
//   - os.Create is flagged unless the same function also calls
//     (*os.File).Sync and os.Rename — the full atomic-replace shape. Use
//     fsx.WriteAtomic, or keep all three steps together.
//   - os.OpenFile for writing is flagged unless the function also calls
//     Sync (append-style logs need durability too, but not rename).
//
// Read-only opens (os.Open, os.OpenFile with O_RDONLY) are exempt, and a
// call to (*wal.Log).Append counts as a durable-write sink (the WAL owns
// the fsync discipline per its policy), as does File.Sync on the fsx.File
// interface. The legitimate homes for the raw pattern are internal/fsx
// and internal/wal; anything else needs a
// `//lint:ignore fsyncrename <reason>` with a justification.
package fsyncrename

import (
	"go/ast"
	"go/constant"
	"go/types"
	"os"
	"strings"

	"fairdms/internal/analyzers/anzkit"
)

// Analyzer is the package-level instance registered with fairvet.
var Analyzer = &anzkit.Analyzer{
	Name: "fsyncrename",
	Doc:  "file writes must follow the tmp+fsync+rename pattern (use internal/fsx helpers)",
	Run:  run,
}

func run(pass *anzkit.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

type writeSite struct {
	call *ast.CallExpr
	kind string // "create" or "openfile"
}

func checkFunc(pass *anzkit.Pass, fd *ast.FuncDecl) {
	var sites []writeSite
	hasSync, hasRename := false, false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, _ := pass.Info.Uses[sel.Sel].(*types.Func)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		switch {
		case fn.Pkg().Path() == "os" && fn.Name() == "WriteFile":
			pass.Reportf(call.Pos(), "os.WriteFile cannot fsync and is not crash-safe; use fsx.WriteFileAtomic (tmp+fsync+rename)")
		case fn.Pkg().Path() == "os" && fn.Name() == "Create":
			sites = append(sites, writeSite{call, "create"})
		case fn.Pkg().Path() == "os" && fn.Name() == "OpenFile":
			if openFileWrites(pass, call) {
				sites = append(sites, writeSite{call, "openfile"})
			}
		case fn.Pkg().Path() == "os" && fn.Name() == "Rename":
			hasRename = true
		case fn.Name() == "Sync" && (isOSFileMethod(fn) || isRepoFSMethod(fn, "internal/fsx")):
			hasSync = true
		case fn.Name() == "Append" && isRepoFSMethod(fn, "internal/wal"):
			// The WAL owns the fsync discipline (per its policy), so handing
			// bytes to it is this function's durable-write sink.
			hasSync = true
		}
		return true
	})
	for _, s := range sites {
		switch {
		case s.kind == "create" && (!hasSync || !hasRename):
			pass.Reportf(s.call.Pos(), "os.Create outside the tmp+fsync+rename pattern (%s missing in %s); use fsx.WriteAtomic", missing(hasSync, hasRename), fd.Name.Name)
		case s.kind == "openfile" && !hasSync:
			pass.Reportf(s.call.Pos(), "os.OpenFile for writing without a Sync in %s; durable writes must fsync", fd.Name.Name)
		}
	}
}

func missing(hasSync, hasRename bool) string {
	var parts []string
	if !hasSync {
		parts = append(parts, "Sync")
	}
	if !hasRename {
		parts = append(parts, "Rename")
	}
	return strings.Join(parts, " and ")
}

// isRepoFSMethod reports whether fn belongs to one of the repo's
// durability packages, matched by import-path suffix (e.g. "internal/fsx"
// catches both fairdms/internal/fsx and a vendored rename). Interface
// methods (fsx.File.Sync) carry their defining package, so they match too.
func isRepoFSMethod(fn *types.Func, suffix string) bool {
	return fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), suffix)
}

// isOSFileMethod reports whether fn is a method on *os.File.
func isOSFileMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "os" && named.Obj().Name() == "File"
}

// openFileWrites reports whether an os.OpenFile call opens for writing.
// When the flag argument is not a compile-time constant, it is assumed to
// write (conservative).
func openFileWrites(pass *anzkit.Pass, call *ast.CallExpr) bool {
	if len(call.Args) < 2 {
		return true
	}
	tv, ok := pass.Info.Types[call.Args[1]]
	if !ok || tv.Value == nil {
		return true
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	if !exact {
		return true
	}
	const writeBits = os.O_WRONLY | os.O_RDWR | os.O_APPEND | os.O_CREATE | os.O_TRUNC
	return v&int64(writeBits) != 0
}
