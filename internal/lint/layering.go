package lint

import (
	"sort"
	"strconv"
	"strings"
)

// Layering enforces the package import DAG documented in
// ARCHITECTURE.md ("Enforced import DAG"). The table below is the
// machine-readable copy: each internal package lists the in-module
// packages it may import, and anything else is a finding. On top of
// the table, three structural rules always hold:
//
//   - cmd/* is never imported by anyone;
//   - internal/* never imports cmd/*, examples/*, or the root facade;
//   - an internal package with in-module imports must appear in the
//     table, so the DAG cannot drift undocumented.
//
// cmd/* may import the facade and any internal package; examples/*
// may import anything except cmd/* and other examples; the root
// facade imports only internal/*.
var Layering = &Analyzer{
	Name: "layering",
	Doc:  "enforces the ARCHITECTURE.md import DAG (obs/linalg/opt are leaves, internal never imports cmd)",
	Run:  runLayering,
}

// layeringDAG is the single source of truth for the internal import
// DAG, keyed by module-relative package path. Keep the table and the
// ARCHITECTURE.md "Enforced import DAG" section in sync — the
// self-check test fails if code drifts from this table, or if the
// table declares an edge no non-test file imports.
var layeringDAG = map[string][]string{
	// Leaves: depend on nothing in-module. obs must stay dependency-free
	// (PR 1), linalg and opt are the numerical foundation, and
	// faultclock is the cancellation/budget gate threaded through the
	// pipeline's loops (PR 4) — a leaf so every layer can carry it.
	// logx is a leaf too: it takes the trace ID as a plain string, so
	// any layer can carry a logger without new edges.
	"internal/faultclock": {},
	"internal/gate":       {"internal/linalg"},
	"internal/lint":       {},
	"internal/logx":       {},
	"internal/obs":        {},
	"internal/opt":        {},

	// trace sits directly on the two telemetry leaves: its Region
	// handle opens an obs timer and a span together and writes the
	// stage log records. It declares its own Clock interface (satisfied
	// structurally by faultclock's fake) rather than importing
	// faultclock, so every layer can carry regions without further
	// edges.
	"internal/trace": {"internal/logx", "internal/obs"},

	// The profiled kernel layer sits beneath linalg: raw []complex128
	// kernels, no in-module deps. linalg routes every product through
	// it. kerneltest is the differential harness proving kernel ≡
	// naive reference; only its test files import the kernel.
	"internal/linalg":            {"internal/linalg/kernel"},
	"internal/linalg/kernel":     {},
	"internal/linalg/kerneltest": {"internal/linalg"},

	// Circuit IR and its direct consumers.
	"internal/benchcirc": {"internal/circuit", "internal/gate"},
	"internal/circuit":   {"internal/gate", "internal/linalg"},
	"internal/densesim":  {"internal/circuit", "internal/gate", "internal/linalg"},
	"internal/optimize":  {"internal/circuit", "internal/gate", "internal/linalg"},
	"internal/partition": {"internal/circuit", "internal/gate", "internal/linalg"},
	"internal/qasm":      {"internal/circuit", "internal/gate"},
	"internal/route":     {"internal/circuit", "internal/gate"},
	"internal/sim":       {"internal/circuit", "internal/linalg"},
	"internal/zx":        {"internal/circuit", "internal/gate", "internal/optimize"},

	// The telemetry exposition sits directly on obs: it renders
	// snapshots, never records.
	"internal/metrics": {"internal/obs"},

	// Pulse/QOC layer.
	"internal/debugsrv": {"internal/metrics", "internal/obs"},
	"internal/hardware": {"internal/gate", "internal/qoc"},
	"internal/pulse":    {"internal/linalg"},
	"internal/qoc":      {"internal/faultclock", "internal/gate", "internal/linalg", "internal/trace"},
	"internal/report":   {"internal/obs"},
	"internal/synth":    {"internal/circuit", "internal/faultclock", "internal/gate", "internal/linalg", "internal/opt", "internal/optimize", "internal/trace"},

	// Persistence for the pulse library and synthesis cache: sits beside
	// the caches it serializes, plus report for the namespace
	// fingerprint. core and serve sit above it; it never imports them.
	"internal/store": {
		"internal/circuit", "internal/gate", "internal/linalg",
		"internal/pulse", "internal/report", "internal/synth",
	},

	// The pipeline orchestrator sits on top of everything.
	"internal/core": {
		"internal/circuit", "internal/faultclock", "internal/gate",
		"internal/hardware", "internal/linalg", "internal/logx",
		"internal/obs", "internal/optimize", "internal/partition",
		"internal/pulse", "internal/qoc", "internal/route",
		"internal/sim", "internal/store", "internal/synth",
		"internal/trace", "internal/zx",
	},

	// The HTTP compile service sits above core: it is the in-process
	// equivalent of a cmd/* entry point, packaged as a library so
	// cmd/epoc-serve stays a flag-parsing shell and the handler suite
	// tests against httptest.
	"internal/serve": {
		"internal/benchcirc", "internal/circuit", "internal/core",
		"internal/debugsrv", "internal/faultclock", "internal/hardware",
		"internal/logx", "internal/metrics", "internal/obs",
		"internal/pulse", "internal/qasm", "internal/report",
		"internal/store", "internal/synth",
	},
}

func runLayering(p *Pass) {
	rel := p.Module.relPath(p.Pkg.Path)
	allowed, inTable := layeringDAG[rel]
	allowedSet := map[string]bool{}
	for _, a := range allowed {
		allowedSet[a] = true
	}

	for _, file := range p.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !p.Module.InModule(path) {
				continue
			}
			impRel := p.Module.relPath(path)
			switch {
			case strings.HasPrefix(impRel, "cmd/"):
				p.Reportf(imp.Pos(), "import of %s: cmd/* packages are entry points and are never imported", path)
			case strings.HasPrefix(rel, "internal/"):
				switch {
				case !strings.HasPrefix(impRel, "internal/"):
					p.Reportf(imp.Pos(), "internal package imports %s; internal/* may only depend on other internal packages", path)
				case !inTable:
					p.Reportf(imp.Pos(), "package %s is not in the layering DAG table; add it to layeringDAG and the ARCHITECTURE.md import-DAG section", p.Pkg.Path)
				case !allowedSet[impRel]:
					p.Reportf(imp.Pos(), "import of %s is not in the DAG: %s may import {%s}", path, rel, strings.Join(sortedCopy(allowed), ", "))
				}
			case strings.HasPrefix(rel, "examples/"):
				if strings.HasPrefix(impRel, "examples/") {
					p.Reportf(imp.Pos(), "examples are standalone; %s must not import %s", rel, path)
				}
			case rel == ".": // the root facade
				if !strings.HasPrefix(impRel, "internal/") {
					p.Reportf(imp.Pos(), "the root facade imports only internal/*, not %s", path)
				}
			}
		}
	}
}

// relPath maps an in-module import path to its module-relative form
// ("." for the root package).
func (m *Module) relPath(path string) string {
	if path == m.Path {
		return "."
	}
	return strings.TrimPrefix(path, m.Path+"/")
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}
