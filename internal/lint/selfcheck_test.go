package lint

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"sync"
	"testing"
)

// repo is the real module, loaded once for every test that inspects
// it: a load takes seconds, and analyzers only read a Module (the call
// graph is built on first use and then reused), so sharing it changes
// no check.
var repo struct {
	once    sync.Once
	mod     *Module
	modPath string
	err     error
}

// loadRepo returns the shared load of the module this package lives
// in, and its module path.
func loadRepo(t *testing.T) (*Module, string) {
	t.Helper()
	repo.once.Do(func() {
		var root string
		root, repo.modPath, repo.err = FindModuleRoot(".")
		if repo.err == nil {
			repo.mod, repo.err = LoadModule(root, repo.modPath)
		}
	})
	if repo.err != nil {
		t.Fatalf("load module: %v", repo.err)
	}
	return repo.mod, repo.modPath
}

// TestRepoIsLintClean runs the full analyzer suite over the real
// module and fails on any unsuppressed finding — the permanent guard
// that keeps the repository lint-clean: a future raw float comparison,
// global-rand draw, undeclared import edge, dropped error or unended
// span fails `go test ./...`, not just `make lint`.
func TestRepoIsLintClean(t *testing.T) {
	mod, modPath := loadRepo(t)

	findings := Run(mod, All())
	for _, f := range unsuppressed(findings) {
		t.Errorf("%s", f)
	}
	if t.Failed() {
		t.Log("fix the finding or add `//epoc:lint-ignore <analyzer> <reason>` on (or above) the line; see DESIGN.md §8")
	}

	// Table hygiene: every layeringDAG entry must name a real package,
	// and every edge it declares must be an import of a non-test file,
	// so deleted packages and dropped imports cannot leave stale rows.
	for rel, deps := range layeringDAG {
		pkg, ok := mod.Packages[modPath+"/"+rel]
		if !ok {
			t.Errorf("layeringDAG entry %q names no package in the module; update the table and ARCHITECTURE.md", rel)
			continue
		}
		imported := map[string]bool{}
		for _, imp := range pkg.Types.Imports() {
			imported[imp.Path()] = true
		}
		for _, dep := range deps {
			if !imported[modPath+"/"+dep] {
				t.Errorf("layeringDAG edge %s → %s is no import of a non-test file; drop it from the table and ARCHITECTURE.md", rel, dep)
			}
		}
	}

	// Suppression audit: count stays visible in -v output so reviewers
	// notice when the ignore inventory grows.
	suppressed := 0
	for _, f := range findings {
		if f.Suppressed {
			suppressed++
		}
	}
	t.Logf("suite clean: %d analyzers over %d packages, %d reasoned suppressions", len(All()), len(mod.Packages), suppressed)
}

// TestSuiteRoster pins the registered analyzer set: adding an
// analyzer means registering it in All(), giving it a fixture
// (TestFixtures enforces that) and listing it here and in DESIGN.md §8.
func TestSuiteRoster(t *testing.T) {
	want := []string{
		"floatcmp", "globalrand", "layering", "errcheck", "ctxflow",
		"spanend", "maporder", "lockguard", "goleak", "allochot",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d: %v", len(got), len(want), got)
	}
	for i, name := range want {
		if got[i] != name {
			t.Errorf("analyzer %d = %q, want %q", i, got[i], name)
		}
	}
}

// TestHotAnnotationsPresent pins the //epoc:hot seed set: the GRAPE
// propagator path and the dense linalg kernels must stay annotated so
// allochot keeps watching them (acceptance criterion for the
// hot-path allocation budget).
func TestHotAnnotationsPresent(t *testing.T) {
	mod, modPath := loadRepo(t)
	want := map[string][]string{
		"internal/qoc": {"grapeFrom", "traceProduct", "update", "stepInto", "slotHamiltonianInto",
			"evaluate", "step", "suffixes", "rhoInto"},
		"internal/linalg": {"Adjoint", "Kron", "EigHermitian", "ExpIHermitianInto",
			"ExpmInto", "padeInto", "luFactor", "luSolvePermuted", "padeSmall", "luSolveSmall"},
		"internal/opt":      {"LBFGS"},
		"internal/densesim": {"ApplyUnitary"},
	}
	for rel, fns := range want {
		pkg := mod.Packages[modPath+"/"+rel]
		if pkg == nil {
			t.Fatalf("package %s missing", rel)
		}
		hot := map[string]bool{}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && isHotFunc(fn) {
					hot[fn.Name.Name] = true
				}
			}
		}
		for _, name := range fns {
			if !hot[name] {
				t.Errorf("%s.%s has lost its //epoc:hot annotation", rel, name)
			}
		}
	}
}

// testOnlyAllowed lists the exported internal functions and methods
// that may have no caller in shipped code: each is an oracle other
// packages' tests compare against, or an invariant checker or fixture
// the tests share. A method is named package.Type.Method.
var testOnlyAllowed = map[string]string{
	"internal/sim.RunCircuit":         "state-vector oracle the benchmark, QASM and densesim tests compare against",
	"internal/sim.FromAmplitudes":     "builds oracle states for the simulator and equivalence tests",
	"internal/partition.Validate":     "invariant checker: a partition is a faithful reordering of its circuit",
	"internal/route.Validate":         "invariant checker: every routed multi-qubit gate sits on a coupler",
	"internal/route.Linear":           "topology fixture for the routing tests",
	"internal/route.Grid":             "topology fixture for the routing tests",
	"internal/faultclock.NewFake":     "fake clock fixture that makes budget expiry deterministic in tests",
	"internal/faultclock.NewInjector": "trip-point fixture that fires cancellation at an exact loop iteration",
	"internal/faultclock.Sites":       "lists every trip point for the table-driven conformance tests",

	"internal/linalg.Matrix.IsUnitary":       "invariant checker: the gate, circuit, partition and linalg tests assert unitarity with it",
	"internal/linalg.Matrix.IsHermitian":     "invariant checker: the linalg and QOC tests assert Hermitian generators with it",
	"internal/sim.State.Probability":         "outcome-probability oracle the benchmark-circuit, QASM and simulator tests read results through",
	"internal/circuit.Circuit.Clone":         "copy the routing tests append layout-restoring SWAPs to before the equivalence check",
	"internal/faultclock.Fake.Advance":       "moves the fake clock so tests expire budgets at an exact instant",
	"internal/faultclock.Injector.TripAfter": "arms a trip point to fire at an exact loop iteration",
	"internal/faultclock.Injector.Hits":      "counts a trip point's passes so tests can place TripAfter inside a loop",
}

// testSupportPackages hold only oracles for other packages' tests.
var testSupportPackages = map[string]bool{
	"internal/densesim":          true, // dense density-matrix reference simulator
	"internal/linalg/kerneltest": true, // differential and metamorphic kernel checks
}

// TestNoTestOnlyFuncs keeps production packages free of code that only
// tests use: every exported package-level function and exported method
// under internal/ must be referenced from a non-test file of the module
// (LoadModule parses no test files), or be allowlisted above with its
// reason. A method that implements an interface the module can see,
// from the standard library (fmt.Stringer, error, json.Marshaler,
// sort.Interface, http.Handler, …) or declared in the module, counts as
// called, because interface dispatch is not resolved statically.
func TestNoTestOnlyFuncs(t *testing.T) {
	mod, modPath := loadRepo(t)
	if mod.Packages[modPath+"/perfbench"] == nil {
		t.Fatalf("perfbench is not in the load; its calls into internal/ would go unseen")
	}

	type site struct {
		name string
		decl *ast.FuncDecl
	}
	funcs := map[types.Object]site{}
	for _, pkg := range mod.Sorted() {
		rel := strings.TrimPrefix(pkg.Path, modPath+"/")
		if !strings.HasPrefix(rel, "internal/") || testSupportPackages[rel] {
			continue
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				obj := pkg.Info.Defs[fn.Name]
				name := rel + "." + fn.Name.Name
				if recv := receiverNamed(obj); recv != nil {
					name = rel + "." + recv.Obj().Name() + "." + fn.Name.Name
				}
				funcs[obj] = site{name, fn}
			}
		}
	}

	used := map[types.Object]bool{}
	for _, pkg := range mod.Sorted() {
		for id, obj := range pkg.Info.Uses {
			if f, ok := obj.(*types.Func); ok {
				obj = f.Origin()
			}
			// A recursive call is not a caller.
			if s, ok := funcs[obj]; ok && (id.Pos() < s.decl.Pos() || id.Pos() >= s.decl.End()) {
				used[obj] = true
			}
		}
	}
	ifaces := visibleInterfaces(mod)
	for obj := range funcs {
		if recv := receiverNamed(obj); recv != nil && implementsVisible(recv, obj.Name(), ifaces) {
			used[obj] = true
		}
	}

	var unused []string
	declared := map[string]bool{}
	for obj, s := range funcs {
		declared[s.name] = true
		if !used[obj] && testOnlyAllowed[s.name] == "" {
			unused = append(unused, s.name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s has no caller outside tests: delete it, or allowlist it in testOnlyAllowed with a reason", name)
	}
	// Table hygiene, as for layeringDAG: no stale allowlist rows, and
	// no row for a function that shipped code calls after all.
	for obj, s := range funcs {
		if used[obj] && testOnlyAllowed[s.name] != "" {
			t.Errorf("testOnlyAllowed names %s, which has a caller outside tests; drop its row", s.name)
		}
	}
	for name := range testOnlyAllowed {
		if !declared[name] {
			t.Errorf("testOnlyAllowed names %s, which is not an exported internal function or method", name)
		}
	}
}

// receiverNamed returns the named type a method is declared on, or nil
// for a package-level function.
func receiverNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	named, _ := typ.(*types.Named)
	return named
}

// visibleInterfaces indexes by method name every method-set interface
// the module can see: error, the interfaces declared at package level
// in the module and everything it imports, and the interface literals
// written in the module's own code.
func visibleInterfaces(mod *Module) map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(typ types.Type) {
		it, ok := typ.(*types.Interface)
		if !ok || !it.IsMethodSet() {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
					add(tn.Type().Underlying())
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range mod.Sorted() {
		visit(pkg.Types)
		for _, tv := range pkg.Info.Types {
			add(tv.Type)
		}
	}
	return byMethod
}

// implementsVisible reports whether the method name of recv is part of
// an interface in ifaces that *recv implements.
func implementsVisible(recv *types.Named, name string, ifaces map[string][]*types.Interface) bool {
	if recv.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces[name] {
		if types.Implements(ptr, it) {
			return true
		}
	}
	return false
}
