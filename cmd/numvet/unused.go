package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// ruleUnusedExport flags a function or method declared under the
// module's internal/ tree, exported or not, that nothing which counts as
// a caller references: no non-test file anywhere in the module (its own
// package included, its own body excluded) and no test file in another
// package. Such code reaches no binary and is checked only by its own
// tests; it is either an oracle another test should use, a capability an
// experiment should show, or dead. A method that satisfies an interface
// is exempt, since it is called through the interface, and so is init,
// which the runtime calls.
const ruleUnusedExport = "unused-export"

// references records what the whole module's code references, for the
// unused-export rule.
type references struct {
	modPath string
	// used holds the types.Func.FullName of every module function and
	// method that counting code references. Names, not objects, because a
	// package checked with its test files is a different types.Package
	// from the one its importers see.
	used map[string]bool
	// ifaces are the interfaces with methods declared at package level in
	// every package the module loads, the standard library's included.
	ifaces []*types.Interface
}

// scanReferences type-checks every package of the module with its test
// files (commands, examples, nested modules and the root package too)
// and records the references that count. Test files in a directory with
// no other Go file are not read.
func (l *loader) scanReferences() (*references, error) {
	dirs, err := expandPatterns(l.modRoot, []string{"./..."})
	if err != nil {
		return nil, err
	}
	refs := &references{modPath: l.modPath, used: map[string]bool{}}
	for _, dir := range dirs {
		path, err := importPathFor(l.modRoot, l.modPath, dir)
		if err != nil {
			return nil, err
		}
		mp, err := l.load(path)
		if err != nil {
			return nil, err
		}
		refs.record(mp.files, mp.info, "")
		// Test files are checked leniently: an external test package may
		// use helpers its package exports only to tests, which the
		// importable (non-test) package lacks. A reference that fails to
		// resolve is one the rule does not count.
		if len(mp.tests) > 0 {
			refs.record(mp.tests, l.checkLenient(path, slices.Concat(mp.files, mp.tests)), path)
		}
		if len(mp.xtests) > 0 {
			refs.record(mp.xtests, l.checkLenient(path+"_test", mp.xtests), path)
		}
	}
	refs.ifaces = l.interfaces()
	return refs, nil
}

// checkLenient type-checks files as the package importPath, ignoring
// type errors, and returns the references it resolved.
func (l *loader) checkLenient(importPath string, files []*ast.File) *types.Info {
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l, Error: func(error) {}}
	_, _ = conf.Check(importPath, l.fset, files, info)
	return info
}

// record marks the module functions the files reference. A function's
// references to itself do not count, and when testOf is set (the files
// are that package's tests) neither do references into testOf.
func (r *references) record(files []*ast.File, info *types.Info, testOf string) {
	for _, f := range files {
		for _, decl := range f.Decls {
			self := token.NoPos
			if fn, ok := decl.(*ast.FuncDecl); ok {
				self = fn.Name.Pos()
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				fn, ok := info.Uses[id].(*types.Func)
				if !ok || fn.Pkg() == nil {
					return true
				}
				fn = fn.Origin()
				path := fn.Pkg().Path()
				if fn.Pos() == self || path == testOf ||
					(path != r.modPath && !strings.HasPrefix(path, r.modPath+"/")) {
					return true
				}
				r.used[fn.FullName()] = true
				return true
			})
		}
	}
}

// interfaces collects error and the package-level interface types with
// methods of every module package and of everything they import.
func (l *loader) interfaces() []*types.Interface {
	out := []*types.Interface{errType.Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
				out = append(out, it)
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, mp := range l.mod {
		visit(mp.pkg)
	}
	return out
}

// satisfiesInterface reports whether fn is a method by which its
// receiver type (or a pointer to it) implements a known interface. The
// errors package finds Unwrap, Is and As through interfaces it declares
// inside its functions, so on an error type those count too.
func (r *references) satisfiesInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	for i, it := range r.ifaces {
		if !types.Implements(t, it) && !types.Implements(ptr, it) {
			continue
		}
		if i == 0 && (fn.Name() == "Unwrap" || fn.Name() == "Is" || fn.Name() == "As") {
			return true
		}
		for j := 0; j < it.NumMethods(); j++ {
			if it.Method(j).Name() == fn.Name() {
				return true
			}
		}
	}
	return false
}

// unusedExports reports the package's functions and methods that
// nothing counting references.
func (r *references) unusedExports(fset *token.FileSet, mp *modPackage) []Finding {
	var findings []Finding
	for _, f := range mp.files {
		allowed := allowMap(fset, f)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || (fd.Recv == nil && fd.Name.Name == "init") {
				continue
			}
			fn, ok := mp.info.Defs[fd.Name].(*types.Func)
			if !ok || r.used[fn.FullName()] || r.satisfiesInterface(fn) {
				continue
			}
			p := fset.Position(fd.Name.Pos())
			if allowed[p.Line][ruleUnusedExport] {
				continue
			}
			findings = append(findings, Finding{Pos: p, Rule: ruleUnusedExport, Msg: fmt.Sprintf(
				"%s is referenced by no non-test code and no other package's tests; delete it, or keep it with an allow comment naming the check or inventory row it serves", fn.FullName())})
		}
	}
	return findings
}
