package framework

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	PkgPath   string
	Dir       string
	Fset      *token.FileSet
	Syntax    []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	// TypeErrors holds any type-check errors; the passes still run on a
	// partially-checked package, mirroring go/analysis behaviour, but the
	// driver treats them as fatal.
	TypeErrors []error
}

// Config directs a Load.
type Config struct {
	// RootDir is the directory tree the packages live under.
	RootDir string
	// ModulePath, when non-empty, is the import-path prefix that maps to
	// RootDir (read from go.mod by LoadModule).  When empty, import paths
	// are bare directory names under RootDir — the layout analysistest
	// uses for its testdata/src trees.
	ModulePath string
	// IncludeTests parses _test.go files of the target packages too.
	// In-package test files only; external _test packages are not loaded.
	IncludeTests bool
}

// loader loads a tree in three steps.  It parses every tree package
// reachable from the requested paths once, collecting the imports that
// fall outside the tree (the standard library).  One `go list -export`
// resolves those to the toolchain's compiler export data, which
// go/importer's "gc" importer reads.  Finally it type-checks the tree
// packages from the parsed files in dependency order.  Nothing beyond the
// go command and the standard library is needed.
type loader struct {
	cfg      Config
	fset     *token.FileSet
	std      types.ImporterFrom
	parsed   map[string]*parsedPkg
	external map[string]bool
	pkgs     map[string]*Package
	checking map[string]bool
}

// parsedPkg is one tree package's directory and parsed files, or the error
// that reading them hit; the error surfaces when the package is imported.
type parsedPkg struct {
	dir   string
	files []*ast.File
	err   error
}

func newLoader(cfg Config) *loader {
	return &loader{
		cfg:      cfg,
		fset:     token.NewFileSet(),
		parsed:   map[string]*parsedPkg{},
		external: map[string]bool{},
		pkgs:     map[string]*Package{},
		checking: map[string]bool{},
	}
}

// ModuleRoot walks up from dir to the enclosing go.mod and returns the
// module root directory and module path.
func ModuleRoot(dir string) (root, modpath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("framework: no module line in %s/go.mod", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("framework: no go.mod above %s", abs)
		}
	}
}

// LoadModule loads packages of the module containing dir.  Patterns are
// import paths, `./`-relative directories, or `./...` for every package
// under the module root.
func LoadModule(dir string, patterns ...string) ([]*Package, error) {
	root, modpath, err := ModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	return Load(Config{RootDir: root, ModulePath: modpath}, patterns...)
}

// Load loads and type-checks the packages matching patterns under
// cfg.RootDir.  The returned slice is sorted by import path.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	ld := newLoader(cfg)
	paths, err := ld.expand(patterns)
	if err != nil {
		return nil, err
	}
	for _, path := range paths {
		ld.parse(path)
	}
	if err := ld.resolve(); err != nil {
		return nil, err
	}
	var out []*Package
	for _, path := range paths {
		if _, err := ld.importPath(path); err != nil {
			return nil, fmt.Errorf("framework: load %s: %w", path, err)
		}
		if pkg := ld.pkgs[path]; pkg != nil {
			out = append(out, pkg)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PkgPath < out[j].PkgPath })
	return out, nil
}

// expand turns patterns into a sorted list of import paths.
func (ld *loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			dirs, err := ld.walkDirs(ld.cfg.RootDir)
			if err != nil {
				return nil, err
			}
			for _, d := range dirs {
				add(ld.pathForDir(d))
			}
		case strings.HasPrefix(pat, "./"):
			dir := filepath.Join(ld.cfg.RootDir, strings.TrimPrefix(pat, "./"))
			if strings.HasSuffix(pat, "/...") {
				dir = filepath.Join(ld.cfg.RootDir,
					strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/..."))
				dirs, err := ld.walkDirs(dir)
				if err != nil {
					return nil, err
				}
				for _, d := range dirs {
					add(ld.pathForDir(d))
				}
				continue
			}
			if !hasGoFiles(dir) {
				return nil, fmt.Errorf("no Go files in %s", dir)
			}
			add(ld.pathForDir(dir))
		default:
			add(pat)
		}
	}
	sort.Strings(out)
	return out, nil
}

// walkDirs returns every directory under root that contains Go files,
// skipping testdata, vendored and hidden trees.
func (ld *loader) walkDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// pathForDir maps a directory under RootDir to its import path.
func (ld *loader) pathForDir(dir string) string {
	rel, err := filepath.Rel(ld.cfg.RootDir, dir)
	if err != nil || rel == "." {
		return ld.cfg.ModulePath
	}
	rel = filepath.ToSlash(rel)
	if ld.cfg.ModulePath == "" {
		return rel
	}
	return ld.cfg.ModulePath + "/" + rel
}

// dirForPath maps an import path to a directory under RootDir, or "" if the
// path is not part of the loaded tree (i.e. standard library).
func (ld *loader) dirForPath(path string) string {
	if ld.cfg.ModulePath != "" {
		if path == ld.cfg.ModulePath {
			return ld.cfg.RootDir
		}
		if rest, ok := strings.CutPrefix(path, ld.cfg.ModulePath+"/"); ok {
			return filepath.Join(ld.cfg.RootDir, filepath.FromSlash(rest))
		}
		return ""
	}
	dir := filepath.Join(ld.cfg.RootDir, filepath.FromSlash(path))
	if hasGoFiles(dir) {
		return dir
	}
	return ""
}

// parse reads the tree package at path and, depth first in import order,
// every tree package it imports; imports outside the tree are collected
// for resolve.
func (ld *loader) parse(path string) {
	if ld.parsed[path] != nil || ld.external[path] {
		return
	}
	dir := ld.dirForPath(path)
	if dir == "" {
		ld.external[path] = true
		return
	}
	p := &parsedPkg{dir: dir}
	ld.parsed[path] = p
	p.files, p.err = ld.parseDir(dir)
	for _, f := range p.files {
		for _, spec := range f.Imports {
			if imp, err := strconv.Unquote(spec.Path.Value); err == nil {
				ld.parse(imp)
			}
		}
	}
}

// parseDir parses one directory's files of one package.
func (ld *loader) parseDir(dir string) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if strings.HasSuffix(n, "_test.go") && !ld.cfg.IncludeTests {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	var files []*ast.File
	pkgName := ""
	for _, n := range names {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		// In-package files only: external test packages (pkg_test) would
		// need a second type-check universe, which no pass requires.
		if pkgName == "" && !strings.HasSuffix(f.Name.Name, "_test") {
			pkgName = f.Name.Name
		}
		if f.Name.Name == pkgName {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no buildable Go files in %s", dir)
	}
	return files, nil
}

// resolve lists the export data of every import outside the tree, and of
// their dependencies, with one `go list` run in RootDir, and points the
// "gc" importer at it.  A path that go list cannot find gets no export
// data, so importing it becomes a type error in the importing package.
func (ld *loader) resolve() error {
	exports := map[string]string{}
	if len(ld.external) > 0 {
		paths := make([]string, 0, len(ld.external))
		for p := range ld.external {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		args := append([]string{"list", "-e", "-deps", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, paths...)
		cmd := exec.Command("go", args...)
		cmd.Dir = ld.cfg.RootDir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("framework: go list: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		for _, line := range strings.Split(string(out), "\n") {
			if path, file, ok := strings.Cut(line, " "); ok && file != "" {
				exports[path] = file
			}
		}
	}
	ld.std = importer.ForCompiler(ld.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("go list found no export data for %s", path)
		}
		return os.Open(file)
	}).(types.ImporterFrom)
	return nil
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom: tree packages are checked from
// their parsed files, everything else is read from export data.
func (ld *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	return ld.importPath(path)
}

func (ld *loader) importPath(path string) (*types.Package, error) {
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg.Types, nil
	}
	p := ld.parsed[path]
	if p == nil {
		return ld.std.ImportFrom(path, "", 0)
	}
	if p.err != nil {
		return nil, p.err
	}
	if ld.checking[path] {
		return nil, fmt.Errorf("import cycle through %s", path)
	}
	ld.checking[path] = true
	defer delete(ld.checking, path)
	pkg := ld.check(path, p)
	ld.pkgs[path] = pkg
	return pkg.Types, nil
}

// check type-checks one parsed package.
func (ld *loader) check(path string, p *parsedPkg) *Package {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	pkg := &Package{PkgPath: path, Dir: p.dir, Fset: ld.fset, Syntax: p.files, TypesInfo: info}
	conf := types.Config{
		Importer: ld,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Types, _ = conf.Check(path, ld.fset, p.files, info)
	return pkg
}
