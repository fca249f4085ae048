package main

import (
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

var _ types.Importer = (*loader)(nil)

// writeModule lays out a throwaway module on disk and returns its root.
// Fixture packages import nothing but the standard library, so the
// loader's stdlib importer covers everything.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module tmpmod\n\ngo 1.22\n"
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// vetFixture analyzes the given package directories of a fixture module.
func vetFixture(t *testing.T, root string, patterns ...string) []Finding {
	t.Helper()
	findings, err := vetDirs(root, "tmpmod", patterns)
	if err != nil {
		t.Fatal(err)
	}
	return findings
}

func rules(fs []Finding) map[string]int {
	out := map[string]int{}
	for _, f := range fs {
		out[f.Rule]++
	}
	return out
}

func TestFloatEqRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

func Cmp(a, b float64) bool { return a == b }

func CmpNeq(a, b float32) bool { return a != b }

func IntCmp(a, b int) bool { return a == b }

func Allowed(a, b float64) bool {
	return a == b //numvet:allow float-eq sentinel check
}
`,
	})
	fs := vetFixture(t, root, "./lib")
	if got := rules(fs)[ruleFloatEq]; got != 2 {
		t.Fatalf("want 2 float-eq findings (float64 ==, float32 !=), got %d: %v", got, fs)
	}
	for _, f := range fs {
		if f.Pos.Line != 3 && f.Pos.Line != 5 {
			t.Errorf("finding on unexpected line %d: %v", f.Pos.Line, f)
		}
	}
}

func TestMapOrderFloatRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

import "sort"

type acc struct{ total float64 }

func Sum(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v
	}
	return total
}

func Product(m map[int]float64, a *acc) float64 {
	p := 1.0
	for _, v := range m {
		p *= v
		a.total -= v
	}
	return p
}

func SortedSum(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var total float64
	for _, k := range keys {
		total += m[k]
	}
	return total
}

func PerKey(m map[string]float64, out map[string]float64) {
	for k, v := range m {
		out[k] += v
		local := 0.0
		local += v
		out[k] *= local
	}
}

func Counts(m map[string]float64) int {
	n := 0
	for range m {
		n += 1
	}
	return n
}
`,
		"cmd/tool/main.go": `package main

func main() {
	var total float64
	for _, v := range map[string]float64{"a": 1, "b": 2} {
		total += v
	}
	println(total)
}
`,
	})
	fs := vetFixture(t, root, "./lib", "./cmd/tool")
	if got := rules(fs)[ruleMapOrder]; got != 3 {
		t.Fatalf("want 3 map-order findings (a sum, a product, a field), got %d: %v", got, fs)
	}
	for i, line := range []int{10, 18, 19} {
		if fs[i].Pos.Line != line {
			t.Errorf("finding %d at line %d, want %d: %v", i, fs[i].Pos.Line, line, fs[i])
		}
	}
}

func TestMapOrderAppendRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

import "sort"

type chain struct{ from, to []string }

func (c *chain) Add(from, to string) { c.from, c.to = append(c.from, from), append(c.to, to) }
func (c *chain) Reset()              { c.from, c.to = nil, nil }

func Keys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

func Build(m map[string]string, c *chain) {
	for from, to := range m {
		c.Add(from, to)
	}
}

func SortedBefore(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	sort.Strings(keys)
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

type byLen []string

func (b byLen) Len() int           { return len(b) }
func (b byLen) Less(i, j int) bool { return len(b[i]) < len(b[j]) }
func (b byLen) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

func SortedAfter(m map[string]int) ([]string, []int, []string) {
	var keys, long []string
	var vals []int
	for k, v := range m {
		keys = append(keys, k)
		vals = append(vals, v)
		long = append(long, k+k)
	}
	sort.Strings(keys)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	sort.Sort(byLen(long))
	return keys, vals, long
}

func PerKey(m map[string]int, out map[string][]int, idx map[string]int, c *chain) {
	for k, v := range m {
		out[k] = append(out[k], v)
		idx[k] = v
		c.Reset()
		local := &chain{}
		local.Add(k, k)
	}
}
`,
		"cmd/tool/main.go": `package main

type chain struct{ names []string }

func (c *chain) Add(name string) { c.names = append(c.names, name) }

func main() {
	var keys []string
	c := &chain{}
	for k := range map[string]int{"a": 1, "b": 2} {
		keys = append(keys, k)
		c.Add(k)
	}
	println(len(keys), len(c.names))
}
`,
	})
	fs := vetFixture(t, root, "./lib", "./cmd/tool")
	if got := rules(fs)[ruleMapOrder]; got != 3 {
		t.Fatalf("want 3 map-order findings (an unsorted append, a method call, a sort before the loop), got %d: %v", got, fs)
	}
	for i, line := range []int{12, 19, 27} {
		if fs[i].Pos.Line != line {
			t.Errorf("finding %d at line %d, want %d: %v", i, fs[i].Pos.Line, line, fs[i])
		}
	}
}

func TestPanicRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

func New(x float64) (float64, error) {
	if x < 0 {
		panic("negative")
	}
	return x, nil
}

// MustNew is the documented convenience wrapper; Must* names are exempt.
func MustNew(x float64) float64 {
	v, err := New(x)
	if err != nil {
		panic(err)
	}
	return v
}

// Shadowed calls a local function named panic, which is not the builtin.
func Shadowed() {
	panic := func(string) {}
	panic("fine")
}
`,
		"cmd/tool/main.go": `package main

func main() {
	panic("mains may panic")
}
`,
	})
	fs := vetFixture(t, root, "./lib", "./cmd/tool")
	if got := rules(fs)[rulePanic]; got != 1 {
		t.Fatalf("want exactly 1 panic finding (in New), got %d: %v", got, fs)
	}
	if fs[0].Pos.Line != 5 {
		t.Errorf("panic finding at line %d, want 5: %v", fs[0].Pos.Line, fs[0])
	}
}

func TestIgnoredErrRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

import (
	"fmt"
	"strings"
)

func Fallible() error { return nil }

func Pair() (int, error) { return 0, nil }

func Clean() int { return 1 }

func Use(b *strings.Builder) {
	Fallible()            // finding: module API error discarded
	Pair()                // finding: tuple including error discarded
	Clean()               // no finding: no error in results
	fmt.Fprintln(b, "ok") // no finding: stdlib callee
	_ = Fallible()        // no finding: explicitly assigned away
}

func UseAllowed() {
	Fallible() //numvet:allow ignored-err best-effort cache warm
}
`,
	})
	fs := vetFixture(t, root, "./lib")
	if got := rules(fs)[ruleIgnoredErr]; got != 2 {
		t.Fatalf("want 2 ignored-err findings, got %d: %v", got, fs)
	}
	for _, f := range fs {
		if f.Pos.Line != 15 && f.Pos.Line != 16 {
			t.Errorf("finding on unexpected line %d: %v", f.Pos.Line, f)
		}
	}
}

func TestCrossPackageImportResolution(t *testing.T) {
	// The dep package must be loaded through the module-aware importer for
	// the caller package to type-check at all.
	root := writeModule(t, map[string]string{
		"dep/dep.go": `package dep

func Do() error { return nil }
`,
		"lib/lib.go": `package lib

import "tmpmod/dep"

func Use() {
	dep.Do()
}
`,
	})
	fs := vetFixture(t, root, "./lib")
	if got := rules(fs)[ruleIgnoredErr]; got != 1 {
		t.Fatalf("want 1 ignored-err finding via cross-package call, got %d: %v", got, fs)
	}
}

func TestTestFilesAreSkipped(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

func Sq(x float64) float64 { return x * x }
`,
		"lib/lib_test.go": `package lib

import "testing"

func TestSq(t *testing.T) {
	if Sq(2) == 4 { // float-eq is fine in tests; the file is never parsed
		t.Log("ok")
	}
}
`,
	})
	fs := vetFixture(t, root, "./lib")
	if len(fs) != 0 {
		t.Fatalf("test files must be excluded, got: %v", fs)
	}
}

func TestExpandPatternsRecursive(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a/a.go":          "package a\n",
		"a/b/b.go":        "package b\n",
		"a/testdata/x.go": "package x\n",
		"docs/readme.txt": "no go files here\n",
	})
	dirs, err := expandPatterns(root, []string{"./a/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 2 {
		t.Fatalf("want 2 dirs (a, a/b; testdata skipped), got %v", dirs)
	}
}

func TestFindModule(t *testing.T) {
	root := writeModule(t, map[string]string{"a/a.go": "package a\n"})
	gotRoot, gotPath, err := findModule(filepath.Join(root, "a"))
	if err != nil {
		t.Fatal(err)
	}
	if gotPath != "tmpmod" {
		t.Errorf("module path = %q, want tmpmod", gotPath)
	}
	resolvedRoot, _ := filepath.EvalSymlinks(root)
	resolvedGot, _ := filepath.EvalSymlinks(gotRoot)
	if resolvedGot != resolvedRoot {
		t.Errorf("module root = %q, want %q", gotRoot, root)
	}
}

// TestRepoIsClean pins the acceptance criterion: the repo's own library
// packages carry zero unacknowledged findings.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	modRoot, modPath, err := findModule(cwd)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := vetDirs(modRoot, modPath, []string{"./internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 0 {
		t.Errorf("numvet findings in ./internal/...:")
		for _, f := range fs {
			t.Errorf("  %s", f)
		}
	}
}

func TestTimeSleepRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

import "time"

func Wait() {
	time.Sleep(time.Second)
}

func Allowed() {
	time.Sleep(time.Millisecond) //numvet:allow time-sleep test-only shim
}

// Shadowed calls a method named Sleep on a local type, not time.Sleep.
type snoozer struct{}

func (snoozer) Sleep(d time.Duration) {}

func Local() {
	var s snoozer
	s.Sleep(time.Second)
}
`,
		"cmd/tool/main.go": `package main

import "time"

func main() {
	time.Sleep(time.Second) // mains may block
}
`,
	})
	fs := vetFixture(t, root, "./lib", "./cmd/tool")
	if got := rules(fs)[ruleTimeSleep]; got != 1 {
		t.Fatalf("want exactly 1 time-sleep finding (in Wait), got %d: %v", got, fs)
	}
	if fs[0].Pos.Line != 6 {
		t.Errorf("time-sleep finding at line %d, want 6: %v", fs[0].Pos.Line, fs[0])
	}
}

func TestUnboundedLoopRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

func Spin() {
	for {
	}
}

func NoCond() {
	for i := 0; ; i++ {
		if i > 10 {
			break
		}
	}
}

func Bounded(n int) {
	for i := 0; i < n; i++ {
	}
}

func Ranged(xs []int) {
	for range xs {
	}
}

func Allowed() {
	for { //numvet:allow unbounded-loop breaks on sentinel
		break
	}
}
`,
		"cmd/tool/main.go": `package main

func main() {
	for { // event loops in mains are fine
		break
	}
}
`,
	})
	fs := vetFixture(t, root, "./lib", "./cmd/tool")
	if got := rules(fs)[ruleUnboundedLoop]; got != 2 {
		t.Fatalf("want 2 unbounded-loop findings (Spin, NoCond), got %d: %v", got, fs)
	}
	for _, f := range fs {
		if f.Pos.Line != 4 && f.Pos.Line != 9 {
			t.Errorf("finding on unexpected line %d: %v", f.Pos.Line, f)
		}
	}
}

func TestGoroutineNoCtxRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

import "context"

func Fire() {
	go func() {}()
}

func WithCtxArg(ctx context.Context) {
	go handle(ctx)
}

func WithCtxCapture(ctx context.Context) {
	go func() {
		<-ctx.Done()
	}()
}

func WithCtxParam(f func(context.Context)) {
	go func(ctx context.Context) {
		f(ctx)
	}(context.Background())
}

func Allowed() {
	go func() {}() //numvet:allow goroutine-no-ctx fire-and-forget metric flush
}

func handle(ctx context.Context) {}
`,
		"cmd/tool/main.go": `package main

func main() {
	go func() {}() // mains own their process lifetime
	select {}
}
`,
	})
	fs := vetFixture(t, root, "./lib", "./cmd/tool")
	if got := rules(fs)[ruleGoroutineNoCtx]; got != 1 {
		t.Fatalf("want exactly 1 goroutine-no-ctx finding (in Fire), got %d: %v", got, fs)
	}
	if fs[0].Pos.Line != 6 {
		t.Errorf("goroutine-no-ctx finding at line %d, want 6: %v", fs[0].Pos.Line, fs[0])
	}
}

func TestDeferInLoopRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

import "sync"

func Leaky(mus []*sync.Mutex) {
	for _, mu := range mus {
		mu.Lock()
		defer mu.Unlock()
	}
}

func LeakyFor(mu *sync.Mutex, n int) {
	for i := 0; i < n; i++ {
		mu.Lock()
		defer mu.Unlock()
	}
}

// Hoisted defers inside a closure run per iteration; that is the fix the
// rule message recommends.
func Hoisted(mus []*sync.Mutex) {
	for _, mu := range mus {
		func() {
			mu.Lock()
			defer mu.Unlock()
		}()
	}
}

func Outside(mu *sync.Mutex, xs []int) {
	mu.Lock()
	defer mu.Unlock()
	for range xs {
	}
}

func Allowed(mus []*sync.Mutex) {
	for _, mu := range mus {
		mu.Lock()
		defer mu.Unlock() //numvet:allow defer-in-loop bounded by the fixed handle count
	}
}

// Nested loops must not double-report the inner defer.
func Nested(mus [][]*sync.Mutex) {
	for _, row := range mus {
		for _, mu := range row {
			mu.Lock()
			defer mu.Unlock()
		}
	}
}
`,
	})
	fs := vetFixture(t, root, "./lib")
	if got := rules(fs)[ruleDeferInLoop]; got != 3 {
		t.Fatalf("want 3 defer-in-loop findings (Leaky, LeakyFor, Nested once), got %d: %v", got, fs)
	}
	for _, f := range fs {
		if f.Rule != ruleDeferInLoop {
			continue
		}
		if f.Pos.Line != 8 && f.Pos.Line != 15 && f.Pos.Line != 49 {
			t.Errorf("finding on unexpected line %d: %v", f.Pos.Line, f)
		}
	}
}

func TestStrayRecoverRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"lib/lib.go": `package lib

func Risky() (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = nil
		}
	}()
	return nil
}

// Allowed documents why this recover may live outside guard.
func Allowed() {
	defer func() {
		recover() //numvet:allow stray-recover fuzz harness keeps the worker alive
	}()
}

// Shadowed calls a local function named recover, not the builtin.
func Shadowed() {
	recover := func() any { return nil }
	_ = recover()
}
`,
		// The guard package is where recovery is centralized; its own
		// recover() calls are the implementation, not strays.
		"guard/guard.go": `package guard

func RecoverPanic(err *error) {
	if r := recover(); r != nil {
		*err = nil
	}
}
`,
	})
	fs := vetFixture(t, root, "./lib", "./guard")
	if got := rules(fs)[ruleStrayRecover]; got != 1 {
		t.Fatalf("want exactly 1 stray-recover finding (in Risky), got %d: %v", got, fs)
	}
	if fs[0].Pos.Line != 5 {
		t.Errorf("stray-recover finding at line %d, want 5: %v", fs[0].Pos.Line, fs[0])
	}
}

// TestNondeterminismRule pins the shard-execution purity rule: packages
// named uncertainty or jobs may not read the wall clock or draw from the
// globally seeded math/rand source; explicitly seeded sources and other
// packages are untouched.
func TestNondeterminismRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"jobs/jobs.go": `package jobs

import (
	"math/rand"
	"time"
)

func Stamp() time.Time {
	return time.Now()
}

func Draw() float64 {
	return rand.Float64()
}

func Seeded(seed int64) float64 {
	return rand.New(rand.NewSource(seed)).Float64()
}

func Allowed() time.Time {
	return time.Now() //numvet:allow nondeterminism wall-clock bookkeeping only
}
`,
		// The same constructs outside a shard-execution package are fine.
		"other/other.go": `package other

import (
	"math/rand"
	"time"
)

func Stamp() time.Time { return time.Now() }

func Draw() float64 { return rand.Float64() }
`,
	})
	fs := vetFixture(t, root, "./jobs", "./other")
	if got := rules(fs)[ruleNondet]; got != 2 {
		t.Fatalf("want 2 nondeterminism findings (Stamp, Draw in jobs), got %d: %v", got, fs)
	}
	for _, f := range fs {
		if f.Rule == ruleNondet && f.Pos.Line != 9 && f.Pos.Line != 13 {
			t.Errorf("nondeterminism finding on unexpected line %d: %v", f.Pos.Line, f)
		}
	}
}

func TestSlogCorrRule(t *testing.T) {
	root := writeModule(t, map[string]string{
		"cmd/srv/main.go": `package main

import (
	"log/slog"
	"net/http"
)

func main() {}

// handler logs without corr: flagged.
func handler(w http.ResponseWriter, r *http.Request) {
	slog.Info("request started")
	slog.Warn("odd input", "remote", r.RemoteAddr)
}

// correlated threads the ID through: clean.
func correlated(w http.ResponseWriter, r *http.Request) {
	corr := r.Header.Get("X-Rel-Correlation-Id")
	slog.Info("request started", "corr", corr)
	slog.LogAttrs(r.Context(), slog.LevelWarn, "odd", slog.String("corr", corr))
}

// closureInHandler: a literal inside a handler inherits the handler
// context (any-enclosing semantics) even without its own request param.
func closureInHandler(w http.ResponseWriter, r *http.Request) {
	defer func() {
		slog.Error("panic isolated")
	}()
}

// notAHandler has no *http.Request anywhere: the rule stays quiet.
func notAHandler() {
	slog.Info("background loop tick")
}

// allowed acknowledges the finding in place.
func allowed(w http.ResponseWriter, r *http.Request) {
	slog.Info("health probe") //numvet:allow slog-corr probes are uncorrelated
}

// methodValue: a *slog.Logger method without corr is flagged too.
func methodValue(l *slog.Logger, w http.ResponseWriter, r *http.Request) {
	l.Error("solve failed")
}
`,
		"lib/lib.go": `package lib

import "log/slog"

// Library packages are exempt: the rule targets the serve layer.
func Handlerish(h func(int), n int) {
	slog.Info("library log, no corr needed")
}
`,
	})
	fs := vetFixture(t, root, "./cmd/srv", "./lib")
	if got := rules(fs)[ruleSlogCorr]; got != 4 {
		t.Fatalf("want 4 slog-corr findings (2 in handler, 1 in closure, 1 method), got %d: %v", got, fs)
	}
	wantLines := map[int]bool{12: true, 13: true, 27: true, 43: true}
	for _, f := range fs {
		if f.Rule == ruleSlogCorr && !wantLines[f.Pos.Line] {
			t.Errorf("slog-corr finding on unexpected line %d: %v", f.Pos.Line, f)
		}
	}
}

// TestSlogCorrLogAttrsSlogString: slog.LogAttrs carries the key inside a
// slog.String("corr", ...) attr constructor — hasCorrKey sees only the
// call's direct args, so the nested literal must still satisfy the rule
// via the constructor's own argument position.
func TestSlogCorrClosurePopsScope(t *testing.T) {
	root := writeModule(t, map[string]string{
		"cmd/srv/main.go": `package main

import (
	"log/slog"
	"net/http"
)

func main() {}

// After a handler-literal closes, logging outside it is clean again.
func builder() {
	_ = func(w http.ResponseWriter, r *http.Request) {
		slog.Info("inside handler literal")
	}
	slog.Info("outside again: not a serve path")
}
`,
	})
	fs := vetFixture(t, root, "./cmd/srv")
	if got := rules(fs)[ruleSlogCorr]; got != 1 {
		t.Fatalf("want 1 slog-corr finding (inside the literal only), got %d: %v", got, fs)
	}
	if fs[0].Pos.Line != 13 {
		t.Errorf("finding at line %d, want 13 (inside the handler literal)", fs[0].Pos.Line)
	}
}
