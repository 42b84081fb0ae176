package lint

import (
	"go/types"
	"strings"
)

// PhaseSafety enforces the two-phase cycle engine's compute-phase write
// contract (DESIGN.md §9/§10) interprocedurally inside internal/noc.
//
// The engine runs every (*Router).compute* stage over all routers before
// any of that stage's commits, so that every router arbitrates against
// prior-cycle state. That rests on a contract no test can fully pin:
// compute code reads prior-cycle state freely but may WRITE only state
// owned by its router — its own fields, its own VC buffers and engine
// scratch, and its staged-effect slices. A cross-router write would let
// routers later in index order see a same-cycle effect earlier ones did
// not. The analyzer computes the closure of functions reachable from the
// compute-phase roots (methods on Router named compute*) over the
// package call graph and reports:
//
//   - any field write whose target chain reaches another Router or the
//     Network (including writes through local aliases of foreign state,
//     e.g. `dst := d.in[ip][v]; dst.reserved++`);
//   - any call that mutates a foreign Router or the Network, however
//     deep the write is (mutation facts are propagated to callers);
//   - any direct (*Network).trace emission — compute phases must emit
//     through the (*Router).trace wrapper, the one sanctioned path from
//     compute code to Network state;
//   - any call into internal/obs — the observability package is the
//     sanctioned wall-clock island, but its clock may be read only by
//     the engine driver, which brackets whole stages. A compute method
//     timing itself would read the wall clock once per router per cycle
//     and skew the very phase attribution the profiler exists to report.
//
// commit* methods are the serial half of the engine and are exempt:
// traversal is pruned at any function whose name starts with "commit",
// and at the (*Router).trace wrapper itself.
var PhaseSafety = &Analyzer{
	Name:  "phasesafety",
	Doc:   "compute-phase code may write only its own router's state; cross-router/Network writes and direct trace emission are findings",
	Match: isNocCore,
	Run:   runPhaseSafety,
}

// isNocCore restricts an analyzer to the NoC cycle-engine package.
func isNocCore(path string) bool {
	return strings.HasSuffix(path, "internal/noc")
}

// isObsFunc reports whether fn belongs to internal/obs, the sanctioned
// observability (wall-clock) package.
func isObsFunc(fn *types.Func) bool {
	pkg := fn.Pkg()
	return pkg != nil && isObsPkg(pkg.Path())
}

func runPhaseSafety(pass *Pass) error {
	pf := pass.facts()
	roots := pf.rootsNamed("Router", func(name string) bool {
		return strings.HasPrefix(name, "compute")
	})
	if len(roots) == 0 {
		return nil
	}
	for _, ff := range pf.orderedReachable(roots, phaseSafetySkip) {
		checkPhaseWrites(pass, pf, ff)
	}
	return nil
}

// phaseSafetySkip prunes the traversal at commit-phase roots (the serial
// half of a stage — cross-router effects are their whole point) and at
// the (*Router).trace wrapper (the one sanctioned path from a compute
// phase to the tracer).
func phaseSafetySkip(fn *types.Func) bool {
	if strings.HasPrefix(fn.Name(), "commit") {
		return true
	}
	return fn.Name() == "trace" && recvTypeName(fn) == "Router"
}

// checkPhaseWrites reports every compute-phase contract violation in one
// reachable function.
func checkPhaseWrites(pass *Pass, pf *pkgFacts, ff *funcFacts) {
	where := funcDisplayName(ff.fn)
	for _, w := range ff.writes {
		if kind := classifyForeign(pass, ff, w.expr); kind != foreignNone {
			pass.Reportf(w.pos, "compute-phase write to %s (%s in %s); stage the effect for a commit phase instead",
				kind, exprString(w.expr), where)
		}
	}
	for _, cs := range ff.calls {
		if isObsFunc(cs.callee) {
			pass.Reportf(cs.pos, "compute-phase call to obs.%s (in %s); wall-clock observation belongs to the engine driver, not compute code whose timing it would skew", cs.callee.Name(), where)
			continue
		}
		if cs.callee.Name() == "trace" && recvTypeName(cs.callee) == "Network" {
			pass.Reportf(cs.pos, "direct trace emission from compute phase (%s); use the (*Router).trace staging wrapper so events flush in canonical order", where)
			continue
		}
		callee := pf.funcs[cs.callee]
		if callee == nil {
			continue // cross-package leaf: outside this contract's scope
		}
		if callee.mutatesRecv && cs.recv != nil {
			if kind := classifyForeign(pass, ff, cs.recv); kind != foreignNone {
				pass.Reportf(cs.pos, "compute-phase call %s.%s mutates %s (in %s); stage the effect for a commit phase instead",
					exprString(cs.recv), cs.callee.Name(), kind, where)
			}
		}
		for i, arg := range cs.args {
			if i >= len(callee.mutatesParam) || !callee.mutatesParam[i] {
				continue
			}
			if kind := classifyForeign(pass, ff, arg); kind != foreignNone {
				pass.Reportf(cs.pos, "compute-phase call %s(...) mutates %s through argument %s (in %s); stage the effect for a commit phase instead",
					cs.callee.Name(), kind, exprString(arg), where)
			}
		}
	}
}
