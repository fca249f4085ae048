package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// The numerical- and robustness-hygiene rules this repo enforces on its
// library packages. Each finding names its rule so a same-line
// "//numvet:allow <rule> <reason>" comment can acknowledge it.
const (
	ruleFloatEq        = "float-eq"
	rulePanic          = "panic"
	ruleIgnoredErr     = "ignored-err"
	ruleTimeSleep      = "time-sleep"
	ruleUnboundedLoop  = "unbounded-loop"
	ruleGoroutineNoCtx = "goroutine-no-ctx"
	ruleDeferInLoop    = "defer-in-loop"
	ruleStrayRecover   = "stray-recover"
	ruleNondet         = "nondeterminism"
	ruleSlogCorr       = "slog-corr"
	ruleMapOrder       = "map-order"
)

// shardExecPkgs are the packages whose results must be pure functions of
// their seeds — sharded sweep execution, where any wall-clock read or
// globally-seeded random draw silently breaks the resume-bit-identical
// contract. time.Now() and the global math/rand functions are flagged
// there; explicitly seeded sources (rand.New, rand.NewSource) are fine.
var shardExecPkgs = map[string]bool{
	"uncertainty": true,
	"jobs":        true,
}

// Finding is one rule violation.
type Finding struct {
	Pos  token.Position
	Rule string
	Msg  string
}

// String formats the finding like a compiler diagnostic.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// vetPackage runs the analyses over one type-checked package.
func vetPackage(fset *token.FileSet, files []*ast.File, info *types.Info, modPath string) []Finding {
	var findings []Finding
	for _, f := range files {
		allowed := allowMap(fset, f)
		v := &visitor{
			fset: fset, info: info, modPath: modPath,
			pkgName: f.Name.Name, allowed: allowed,
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			v.funcName = fn.Name.Name
			v.declIsHandler = v.hasRequestParam(fn.Type)
			v.stack = v.stack[:0]
			v.litHandlers = v.litHandlers[:0]
			ast.Inspect(fn.Body, v.inspect)
		}
		findings = append(findings, v.findings...)
	}
	sortFindings(findings)
	return findings
}

// sortFindings orders findings by file, line and column.
func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// allowMap collects "//numvet:allow <rule> [reason]" comments by line.
func allowMap(fset *token.FileSet, f *ast.File) map[int]map[string]bool {
	out := map[int]map[string]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//numvet:allow")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			line := fset.Position(c.Pos()).Line
			if out[line] == nil {
				out[line] = map[string]bool{}
			}
			out[line][fields[0]] = true
		}
	}
	return out
}

// visitor applies the rules within one function body.
type visitor struct {
	fset     *token.FileSet
	info     *types.Info
	modPath  string
	pkgName  string
	funcName string
	allowed  map[int]map[string]bool
	findings []Finding
	// declIsHandler marks the current FuncDecl as an HTTP handler (has a
	// *http.Request parameter); stack mirrors ast.Inspect's traversal so
	// litHandlers — one entry per enclosing FuncLit — pops at the right
	// time. A slog call is "in a serve path" when the decl or ANY
	// enclosing literal is a handler.
	declIsHandler bool
	stack         []ast.Node
	litHandlers   []bool
}

// inHandler reports whether the visitor is currently inside an HTTP
// handler (the declaration itself or any enclosing function literal
// taking *http.Request).
func (v *visitor) inHandler() bool {
	if v.declIsHandler {
		return true
	}
	for _, h := range v.litHandlers {
		if h {
			return true
		}
	}
	return false
}

// report records a finding unless a same-line allow comment covers it.
func (v *visitor) report(pos token.Pos, rule, format string, args ...any) {
	p := v.fset.Position(pos)
	if v.allowed[p.Line][rule] {
		return
	}
	v.findings = append(v.findings, Finding{Pos: p, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

func (v *visitor) inspect(n ast.Node) bool {
	if n == nil {
		top := v.stack[len(v.stack)-1]
		v.stack = v.stack[:len(v.stack)-1]
		if _, ok := top.(*ast.FuncLit); ok {
			v.litHandlers = v.litHandlers[:len(v.litHandlers)-1]
		}
		return true
	}
	v.stack = append(v.stack, n)
	if lit, ok := n.(*ast.FuncLit); ok {
		v.litHandlers = append(v.litHandlers, v.hasRequestParam(lit.Type))
	}
	switch n := n.(type) {
	case *ast.BinaryExpr:
		if n.Op == token.EQL || n.Op == token.NEQ {
			if v.isFloat(n.X) || v.isFloat(n.Y) {
				v.report(n.OpPos, ruleFloatEq,
					"floating-point %s comparison; compare within a stated tolerance, or add an allow comment giving the reason", n.Op)
			}
		}
	case *ast.ForStmt:
		// A condition-less loop in library code has no structural bound; it
		// must carry an allow comment naming why it terminates (rejection
		// sampling, explicit break on a counted budget, …).
		if n.Cond == nil && v.pkgName != "main" {
			v.report(n.For, ruleUnboundedLoop,
				"unbounded for-loop in library function %s; bound it or justify termination with an allow comment", v.funcName)
		}
		v.checkDeferInLoop(n.Body)
	case *ast.RangeStmt:
		v.checkDeferInLoop(n.Body)
		v.checkMapOrder(n)
	case *ast.GoStmt:
		// A goroutine launched from library code with no context.Context in
		// reach cannot be canceled; solver fan-out must thread one through
		// (or justify fire-and-forget with an allow comment).
		if v.pkgName != "main" && !v.mentionsContext(n.Call) {
			v.report(n.Go, ruleGoroutineNoCtx,
				"goroutine in library function %s has no context.Context in scope of the launch; thread one through for cancellation", v.funcName)
		}
	case *ast.CallExpr:
		if id, ok := n.Fun.(*ast.Ident); ok && isBuiltinPanic(id, v.info) {
			// A library package must return errors; panics are reserved
			// for Must* convenience constructors.
			if v.pkgName != "main" && !strings.HasPrefix(v.funcName, "Must") {
				v.report(n.Pos(), rulePanic,
					"panic in library function %s; return an error instead", v.funcName)
			}
		}
		if id, ok := n.Fun.(*ast.Ident); ok && isBuiltinRecover(id, v.info) {
			// Panic recovery is centralized in internal/guard
			// (RecoverPanic/Isolate) so every recovered panic becomes a
			// typed *guard.InternalError and is counted; a scattered
			// recover() silently swallows failures the chaos invariants
			// need to see.
			if v.pkgName != "guard" {
				v.report(n.Pos(), ruleStrayRecover,
					"recover() outside internal/guard in function %s; use guard.RecoverPanic or guard.Isolate so the panic stays typed and counted", v.funcName)
			}
		}
		// Blocking sleeps ignore cancellation; solvers must use a timer in
		// a select so a context can interrupt the wait.
		if v.pkgName != "main" && v.isTimeSleep(n) {
			v.report(n.Pos(), ruleTimeSleep,
				"time.Sleep in library function %s; use time.NewTimer with select so waits stay cancellable", v.funcName)
		}
		// Serve-path logging must carry the request's correlation ID so
		// every log line joins to its trace and wide event. The rule
		// fires only in main packages (the serve layer), only inside HTTP
		// handlers, and only on calls that resolve to log/slog.
		if v.pkgName == "main" && v.inHandler() {
			if name, ok := v.slogCall(n); ok && !hasCorrKey(n) {
				v.report(n.Pos(), ruleSlogCorr,
					"slog.%s in HTTP handler %s without a \"corr\" field; thread the correlation ID through (or justify with an allow comment)", name, v.funcName)
			}
		}
		if shardExecPkgs[v.pkgName] {
			if v.isTimeNow(n) {
				v.report(n.Pos(), ruleNondet,
					"time.Now in shard-execution function %s; results must be pure functions of the seed — pass timestamps in or justify with an allow comment", v.funcName)
			}
			if name, ok := v.globalRandCall(n); ok {
				v.report(n.Pos(), ruleNondet,
					"globally-seeded rand.%s in shard-execution function %s; draw from an explicitly seeded source (uncertainty.ShardRNG, rand.New) instead", name, v.funcName)
			}
		}
	case *ast.ExprStmt:
		call, ok := n.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if v.returnsError(call) && v.isModuleCall(call) {
			v.report(call.Pos(), ruleIgnoredErr,
				"result of %s includes an error that is discarded", callName(call))
		}
	}
	return true
}

// checkDeferInLoop flags defers placed directly inside a loop body: they
// pile up until the surrounding function returns, which in a solver's
// hot loop means unbounded memory and late cleanup. Defers inside
// function literals run at that literal's return and are fine; nested
// loops report their own bodies when the visitor reaches them.
func (v *visitor) checkDeferInLoop(body *ast.BlockStmt) {
	if v.pkgName == "main" || body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit, *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.DeferStmt:
			v.report(n.Defer, ruleDeferInLoop,
				"defer inside a loop in function %s runs only at function return; hoist it or wrap the body in a closure", v.funcName)
		}
		return true
	})
}

// checkMapOrder flags work inside a range over a map whose outcome
// follows Go's random map order, done on a variable declared outside the
// loop:
//   - a float +=, -=, *= or /=, reported at the assignment: the
//     reduction's bits change from run to run, and no later sort can
//     mend it;
//   - an append, unless the function sorts that slice after the loop;
//   - a method call passed the loop's key or value (chain.AddRate(b, tb,
//     rate)), whose receiver keeps the order it was called in.
//
// The last two are reported at the loop, where ranging over sorted keys
// mends them.
//
// A per-key update (out[k] += v, out[k] = v) is order-free and is not
// flagged. Function literals are skipped, and a nested map range reports
// its own body.
func (v *visitor) checkMapOrder(rs *ast.RangeStmt) {
	if v.pkgName == "main" || !v.isMap(rs.X) {
		return
	}
	outside := func(e ast.Expr) bool {
		root := rootIdent(e)
		if root == nil {
			return false
		}
		obj := v.info.ObjectOf(root)
		return obj != nil && (obj.Pos() < rs.Pos() || obj.Pos() >= rs.End())
	}
	var loopVars []token.Pos
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			loopVars = append(loopVars, id.Pos())
		}
	}
	// usesLoopVar reports whether e reads the loop's key or value.
	usesLoopVar := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && v.info.Uses[id] != nil {
				found = found || slices.Contains(loopVars, v.info.Uses[id].Pos())
			}
			return !found
		})
		return found
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			return !v.isMap(n.X)
		case *ast.AssignStmt:
			if len(n.Lhs) != 1 || !outside(n.Lhs[0]) {
				return true
			}
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
				if v.isFloat(n.Lhs[0]) {
					v.report(n.TokPos, ruleMapOrder,
						"float %s on %s inside a range over a map in function %s runs in random map order; range over sorted keys or an indexed slice", n.Tok, types.ExprString(n.Lhs[0]), v.funcName)
				}
			case token.ASSIGN:
				if len(n.Rhs) == 1 && v.isAppend(n.Rhs[0]) && !v.sortedAfter(n.Lhs[0], rs.End()) {
					v.report(rs.For, ruleMapOrder,
						"range over a map in function %s appends to %s (line %d) in random map order; sort it after the loop or range over sorted keys", v.funcName, types.ExprString(n.Lhs[0]), v.fset.Position(n.Pos()).Line)
				}
			}
		case *ast.CallExpr:
			sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
			if !ok || !v.isMethod(sel) || !outside(sel.X) {
				return true
			}
			for _, arg := range n.Args {
				if usesLoopVar(arg) {
					v.report(rs.For, ruleMapOrder,
						"range over a map in function %s calls %s with its key or value (line %d) in random map order; range over sorted keys", v.funcName, types.ExprString(n.Fun), v.fset.Position(n.Pos()).Line)
					break
				}
			}
		}
		return true
	})
}

// isMethod reports whether the selector names a method (not a package
// function or a func-typed field).
func (v *visitor) isMethod(sel *ast.SelectorExpr) bool {
	fn, ok := v.info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// isAppend reports whether e is a call of the builtin append.
func (v *visitor) isAppend(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := v.info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedAfter reports whether the function enclosing the visitor's
// position sorts the slice target (sort.Strings(target), sort.Slice(
// target, ...), slices.Sort(target), sort.Sort(byName(target)), ...)
// somewhere after pos.
func (v *visitor) sortedAfter(target ast.Expr, pos token.Pos) bool {
	body := v.stack[0]
	for i := len(v.stack) - 1; i > 0; i-- {
		if lit, ok := v.stack[i].(*ast.FuncLit); ok {
			body = lit.Body
			break
		}
	}
	want := types.ExprString(target)
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if found || !ok || call.Pos() < pos || len(call.Args) == 0 || !v.isSortCall(call) {
			return !found
		}
		arg := call.Args[0]
		if conv, ok := arg.(*ast.CallExpr); ok && len(conv.Args) == 1 {
			arg = conv.Args[0]
		}
		found = types.ExprString(arg) == want
		return !found
	})
	return found
}

// isSortCall reports whether the call resolves to a sort or slices
// function that sorts its first argument in place.
func (v *visitor) isSortCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	obj := v.info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "sort.Strings", "sort.Ints", "sort.Float64s", "sort.Slice", "sort.SliceStable",
		"sort.Sort", "sort.Stable", "slices.Sort", "slices.SortFunc", "slices.SortStableFunc":
		return true
	}
	return false
}

// isMap reports whether the expression's type is a map.
func (v *visitor) isMap(e ast.Expr) bool {
	t := v.info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rootIdent returns the variable an assignment target is rooted in (x
// for x, x.f and (*x).f), or nil for an indexed element, which is a
// per-key update.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// mentionsContext reports whether any expression in the launched call —
// arguments, callee, or a function-literal body — has type
// context.Context. That covers the common shapes: passing a ctx
// argument, launching a method on a ctx-holding value, or a closure
// capturing ctx.
func (v *visitor) mentionsContext(call *ast.CallExpr) bool {
	found := false
	ast.Inspect(call, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if isContextType(v.info.TypeOf(e)) {
			found = true
			return false
		}
		// A function literal whose parameters include a context counts even
		// though the parameter names are declarations, not expressions.
		if lit, ok := e.(*ast.FuncLit); ok && lit.Type.Params != nil {
			for _, field := range lit.Type.Params.List {
				if isContextType(v.info.TypeOf(field.Type)) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isTimeSleep reports whether the call resolves to the standard library's
// time.Sleep (and not a method or local function sharing the name).
func (v *visitor) isTimeSleep(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Sleep" {
		return false
	}
	obj := v.info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == "time"
}

// isTimeNow reports whether the call resolves to the standard library's
// time.Now.
func (v *visitor) isTimeNow(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Now" {
		return false
	}
	obj := v.info.Uses[sel.Sel]
	return obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "time"
}

// globalRandCall reports whether the call is a package-level math/rand
// (or math/rand/v2) function drawing from the process-global source.
// Constructors for explicitly seeded sources are exempt: determinism is
// exactly what they exist for.
func (v *visitor) globalRandCall(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := v.info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return "", false
	}
	if p := obj.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
		return "", false
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() != nil {
		return "", false // a method on *rand.Rand draws from its own source
	}
	switch fn.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return "", false
	}
	return fn.Name(), true
}

// hasRequestParam reports whether the function type takes *http.Request
// — the marker numvet uses for "this is an HTTP handler".
func (v *visitor) hasRequestParam(ft *ast.FuncType) bool {
	if ft == nil || ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		ptr, ok := v.info.TypeOf(field.Type).(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj != nil && obj.Pkg() != nil &&
			obj.Pkg().Path() == "net/http" && obj.Name() == "Request" {
			return true
		}
	}
	return false
}

// slogCall reports whether the call resolves to a log/slog logging
// function or *slog.Logger method (Info, Warn, Error, Debug, their
// *Context variants, Log, LogAttrs).
func (v *visitor) slogCall(call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch sel.Sel.Name {
	case "Debug", "Info", "Warn", "Error",
		"DebugContext", "InfoContext", "WarnContext", "ErrorContext",
		"Log", "LogAttrs":
	default:
		return "", false
	}
	obj := v.info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "log/slog" {
		return "", false
	}
	return sel.Sel.Name, true
}

// hasCorrKey reports whether the string literal "corr" — the attr key
// the serve layer threads correlation IDs under — appears anywhere in
// the call's arguments, including nested attr constructors like
// slog.String("corr", id).
func hasCorrKey(call *ast.CallExpr) bool {
	found := false
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found {
				return false
			}
			lit, ok := n.(*ast.BasicLit)
			if ok && lit.Kind == token.STRING && lit.Value == `"corr"` {
				found = true
				return false
			}
			return true
		})
	}
	return found
}

// isFloat reports whether the expression has a floating-point type.
func (v *visitor) isFloat(e ast.Expr) bool {
	t := v.info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// isBuiltinPanic reports whether the identifier resolves to the builtin
// panic (and not a local function or variable shadowing the name).
func isBuiltinPanic(id *ast.Ident, info *types.Info) bool {
	if id.Name != "panic" {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}

// isBuiltinRecover reports whether the identifier resolves to the
// builtin recover.
func isBuiltinRecover(id *ast.Ident, info *types.Info) bool {
	if id.Name != "recover" {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "recover"
}

// errType is the universe error type.
var errType = types.Universe.Lookup("error").Type()

// returnsError reports whether the call's results include an error value.
func (v *visitor) returnsError(call *ast.CallExpr) bool {
	t := v.info.TypeOf(call)
	if t == nil {
		return false
	}
	isErr := func(t types.Type) bool {
		return types.Identical(t, errType)
	}
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErr(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErr(t)
	}
}

// isModuleCall reports whether the callee is defined inside this module —
// the rule targets the repo's own solver APIs, not fmt.Fprintf and
// friends whose errors are routinely irrelevant.
func (v *visitor) isModuleCall(call *ast.CallExpr) bool {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = v.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = v.info.Uses[fun.Sel]
	default:
		return false
	}
	if obj == nil {
		return false
	}
	pkg := obj.Pkg()
	if pkg == nil {
		return false
	}
	// Same package under analysis (its path is the module-relative import
	// path) or any package below the module path.
	return pkg.Path() == v.modPath || strings.HasPrefix(pkg.Path(), v.modPath+"/")
}

// callName renders the callee for a message.
func callName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	default:
		return "call"
	}
}
