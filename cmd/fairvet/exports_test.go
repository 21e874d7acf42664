package main

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyKeep lists the exported names in internal/ that no non-test
// file outside their declaration uses, and that stay anyway, each with
// its reason. A name is "pkg.Name" or "pkg.Type.Method", pkg being the
// directory under internal/.
var testOnlyKeep = map[string]string{
	"tensor.FromSlice":    "fixture: other packages' tests build tensors from literals",
	"tensor.Full":         "fixture: other packages' tests build constant tensors",
	"tensor.Randn":        "fixture: other packages' tests build random tensors",
	"tensor.AllClose":     "fixture: other packages' tests compare tensors",
	"tensor.AddRowVector": "oracle: nn's reference tests build a dense layer's forward from it",
	"tensor.SumRows":      "oracle: nn's reference tests build a bias gradient from it",
	"tensor.Transpose":    "oracle: nn's reference tests build the transposed products from it",

	"fsx.NewFaultFS":    "fixture: the crash sweeps cut writes through it",
	"fsx.FaultFS.Crash": "fixture: the crash sweeps drop unsynced state through it",

	"experiments.CurveSet.EpochsTo":              "result predicate: shape tests and the quality golden's -check read it",
	"experiments.CurvesResult.BAlwaysFirst":      "result predicate: shape tests and the quality golden's -check read it",
	"experiments.ErrJSDResult.MeanCorrelation":   "result predicate: shape tests and the quality golden's -check read it",
	"experiments.Fig02Result.ErrorRise":          "result predicate: shape tests and the quality golden's -check read it",
	"experiments.Fig02Result.UncertaintyRise":    "result predicate: shape tests and the quality golden's -check read it",
	"experiments.Fig16Result.MinAfterTrigger":    "result predicate: shape tests and the quality golden's -check read it",
	"experiments.Fig16Result.MinBeforePostDrift": "result predicate: shape tests and the quality golden's -check read it",

	"fairds.Service.SetEmbedder": "the served-embedder item (ROADMAP 5) gives it a caller",
	"fairds.Service.Reindex":     "the served-embedder item (ROADMAP 5) gives it a caller",

	"analyzers/anzkit.Loader.Import": "implements types.Importer",

	"dmsapi.Client.IngestBatch": "typed client of the production batch route, used by dmsapi and dmscluster tests",
	"fairms.Record.WarmStarted": "hides the meta encoding; three packages' tests read it",
	"obs.TraceDump.SpanNames":   "three packages' tests use it",
	"stats.StdDev":              "datagen's tests use it",
	"docstore.Server.PeakConns": "the pool-cap test's only observable; the gob-stack item (ROADMAP 7) owns it",
}

// TestNoTestOnlyExports fails on every exported top-level declaration in
// internal/ whose identifier occurs in no non-test .go file of the
// repository (bench/ included) apart from its own declaration. Nothing
// outside the module can import internal/, so such a name serves only
// tests: delete it, or give it a caller, or keep it in testOnlyKeep with
// the reason.
func TestNoTestOnlyExports(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	uses := map[string]int{} // identifier -> occurrences over all files
	type decl struct{ key, ident string }
	var decls []decl
	fset := token.NewFileSet()
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				uses[lit]++
			}
		}

		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if !strings.HasPrefix(rel, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(rel)), "internal/")
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		add := func(id *ast.Ident, prefix string) {
			if id.IsExported() {
				decls = append(decls, decl{pkg + "." + prefix + id.Name, id.Name})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				prefix := ""
				if d.Recv != nil && len(d.Recv.List) == 1 {
					prefix = recvName(d.Recv.List[0].Type) + "."
				}
				add(d.Name, prefix)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, "")
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, "")
						}
					}
				}
			}
		}
	}

	var found []string
	listed := map[string]bool{}
	for _, d := range decls {
		if uses[d.ident] != 1 {
			continue
		}
		listed[d.key] = true
		if _, ok := testOnlyKeep[d.key]; !ok {
			found = append(found, d.key)
		}
	}
	sort.Strings(found)
	for _, key := range found {
		t.Errorf("%s: exported, but only tests use it", key)
	}
	for key := range testOnlyKeep {
		if !listed[key] {
			t.Errorf("testOnlyKeep has %s, which the scan no longer lists: drop it", key)
		}
	}
}

// recvName returns the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
