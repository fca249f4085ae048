package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loader parses and type-checks packages of one module from source. The
// stdlib source importer resolves standard-library imports; imports below
// the module path are resolved against the module root on disk, so the
// whole pipeline needs nothing beyond the standard library and the
// checkout itself.
type loader struct {
	fset    *token.FileSet
	modPath string
	modRoot string
	std     types.Importer
	pkgs    map[string]*types.Package
	mod     map[string]*modPackage
}

// modPackage is one package of the module: its files, parsed once, and
// what type-checking the non-test ones recorded.
type modPackage struct {
	pkg                  *types.Package
	info                 *types.Info
	files, tests, xtests []*ast.File
}

func newLoader(modRoot, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modPath: modPath,
		modRoot: modRoot,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*types.Package{},
		mod:     map[string]*modPackage{},
	}
}

// Import implements types.Importer over module-internal and stdlib paths.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		mp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		return mp.pkg, nil
	}
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	p, err := l.std.Import(path)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// load parses the module package at importPath and type-checks its
// non-test files, once.
func (l *loader) load(importPath string) (*modPackage, error) {
	if mp, ok := l.mod[importPath]; ok {
		return mp, nil
	}
	dir := filepath.Join(l.modRoot, filepath.FromSlash(strings.TrimPrefix(importPath, l.modPath)))
	mp, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	if len(mp.files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	mp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	if mp.pkg, err = conf.Check(importPath, l.fset, mp.files, mp.info); err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	l.mod[importPath] = mp
	return mp, nil
}

// parseDir parses the Go files in dir, in file-name order: the package's
// own files, its in-package test files and its external (_test package)
// test files.
func (l *loader) parseDir(dir string) (*modPackage, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if name := e.Name(); !e.IsDir() && strings.HasSuffix(name, ".go") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	mp := &modPackage{}
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			mp.files = append(mp.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			mp.xtests = append(mp.xtests, f)
		default:
			mp.tests = append(mp.tests, f)
		}
	}
	return mp, nil
}

// findModule walks upward from dir to the enclosing go.mod and returns
// the module root directory and module path.
func findModule(dir string) (root, path string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// expandPatterns resolves command-line package patterns ("./internal/...",
// "./internal/dist") into directories containing Go files.
func expandPatterns(root string, patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(root, dir)
		}
		if !recursive {
			if hasGoFiles(dir) {
				add(dir)
			}
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				add(p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// relSlash returns dir relative to root in slash form.
func relSlash(root, dir string) (string, error) {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return "", err
	}
	return filepath.ToSlash(rel), nil
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
