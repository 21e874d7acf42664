package anzkit

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// A Package is one loaded, type-checked package: the unit a Pass runs over.
type Package struct {
	// Path is the import path ("fairdms/internal/stats").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// A Loader parses and type-checks packages without the go command or a
// module proxy: module-internal imports resolve against ModuleRoot,
// GOPATH-style roots (fixture trees) against SrcDirs, and everything else
// — the standard library — from $GOROOT source via go/importer's "source"
// compiler. Loaded packages are cached, so a loader amortizes the cost of
// type-checking shared dependencies across a whole run. Not safe for
// concurrent use.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot is the directory holding go.mod; ModulePath its module
	// path. Both empty for pure fixture loading.
	ModuleRoot string
	ModulePath string
	// SrcDirs are GOPATH-style source roots searched for import paths that
	// are not module-internal (analysistest fixture trees).
	SrcDirs []string

	base    types.ImporterFrom
	pkgs    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module directory (which must
// contain go.mod, unless empty).
func NewLoader(moduleRoot string) (*Loader, error) {
	l := &Loader{
		Fset:    token.NewFileSet(),
		pkgs:    make(map[string]*Package),
		loading: make(map[string]bool),
	}
	l.base = importer.ForCompiler(l.Fset, "source", nil).(types.ImporterFrom)
	if moduleRoot == "" {
		return l, nil
	}
	abs, err := filepath.Abs(moduleRoot)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, err
	}
	l.ModuleRoot = abs
	l.ModulePath = modPath
	return l, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("anzkit: reading %s: %w", gomod, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("anzkit: no module directive in %s", gomod)
}

// dirFor resolves an import path to a source directory, or "" when the
// path is not ours to load from source (i.e. standard library).
func (l *Loader) dirFor(path string) string {
	if l.ModulePath != "" {
		if path == l.ModulePath {
			return l.ModuleRoot
		}
		if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
			return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest))
		}
	}
	for _, src := range l.SrcDirs {
		dir := filepath.Join(src, filepath.FromSlash(path))
		if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
			return dir
		}
	}
	return ""
}

// Load parses and type-checks the package at the given import path
// (module-internal or under a SrcDir), returning the cached result on
// repeat calls.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("anzkit: import cycle through %s", path)
	}
	dir := l.dirFor(path)
	if dir == "" {
		return nil, fmt.Errorf("anzkit: cannot resolve %s to a source directory", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	files, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("anzkit: no buildable Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("anzkit: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// parseDir parses the non-test Go files of dir that the go command would
// build for this GOOS and GOARCH (file-name suffixes and //go:build
// lines), comments included, in stable filename order.
func (l *Loader) parseDir(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("anzkit: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("anzkit: reading %s: %w", name, err)
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	files := make([]*ast.File, 0, len(names))
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("anzkit: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: module-internal and fixture
// paths load from source through this loader (sharing its cache); anything
// else is standard library, resolved from $GOROOT source.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.dirFor(path) != "" {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.base.ImportFrom(path, dir, mode)
}
