package lint

// Interprocedural analysis framework (PR 6). The single-function AST
// matching of the original analyzers cannot enforce contracts that span
// calls — "no allocation reachable from the cycle loop", "no cross-router
// write reachable from a compute-phase root". This file builds, per
// package:
//
//   - a static call graph (direct calls, method calls on concrete
//     receivers, method expressions, and functions passed as call
//     arguments, so a stage dispatched as a method value is followed);
//   - per-function facts: allocation sites (make/new/escaping composite
//     literals/capturing closures/growing appends), map-iteration sites,
//     field writes with their target expression, and whether the
//     function mutates its receiver or pointer parameters;
//   - a fixpoint propagation of the mutation facts through the graph, so
//     "d.bump()" on a foreign router is a finding even though bump's
//     write is three calls deep.
//
// Facts are computed once per package and cached on the Package; the
// phasesafety and hotalloc analyzers are built on top. The graph is
// per-package: cross-package callees are unresolved leaves, which is the
// right approximation here — each analyzer declares roots inside the
// package whose contract it enforces.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// allocKind classifies a heap-allocation site.
type allocKind int

const (
	allocMake    allocKind = iota // make(T, ...)
	allocNew                      // new(T)
	allocCompLit                  // &T{...}, []T{...}, map[K]V{...}
	allocClosure                  // func literal capturing outer variables
	allocAppend                   // append that can grow a non-local slice
)

// String names the allocation kind for diagnostics.
func (k allocKind) String() string {
	switch k {
	case allocMake:
		return "make"
	case allocNew:
		return "new"
	case allocCompLit:
		return "composite literal"
	case allocClosure:
		return "capturing closure"
	case allocAppend:
		return "growing append"
	}
	return "alloc"
}

// allocSite is one potential heap allocation inside a function.
type allocSite struct {
	pos  token.Pos
	kind allocKind
	desc string
	// recycled marks an append into a slice slot that is reset with
	// s = s[:0] somewhere in the package: amortized to zero allocations
	// in steady state (the staged-effect and pending-arrival scratch
	// idiom of internal/noc).
	recycled bool
	// escapes marks an allocation bound to a value the enclosing
	// function returns — the function's product rather than scratch
	// (codec output buffers must be fresh: payloads are retained by
	// caches and packets and shared copy-on-write).
	escapes bool
}

// fieldWrite is one assignment/inc-dec through a selector chain.
type fieldWrite struct {
	pos  token.Pos
	expr ast.Expr // the written expression, e.g. d.stalls
	// root is the object the selector chain starts at (variable,
	// parameter, receiver), or nil when the chain roots at a call result
	// or other non-identifier expression.
	root types.Object
}

// callSite is one resolved static call.
type callSite struct {
	pos    token.Pos
	callee *types.Func
	// recv is the receiver expression for method calls (nil for plain
	// function calls and for function values passed as arguments).
	recv ast.Expr
	// recvRoot is the resolved root object of recv (nil when unknown).
	recvRoot types.Object
	// args are the call's argument expressions (indexed like the
	// callee's parameters for non-variadic matching; nil for function
	// values passed as arguments).
	args []ast.Expr
	// argRoots are the resolved root objects of args (nil per entry when
	// unknown).
	argRoots []types.Object
}

// funcFacts are the per-function analysis facts.
type funcFacts struct {
	fn   *types.Func
	decl *ast.FuncDecl
	file *ast.File

	calls     []callSite
	allocs    []allocSite
	mapRanges []token.Pos // positions of range statements over maps

	// recvObj/paramObjs resolve the receiver and parameter variables.
	recvObj   types.Object
	paramObjs []types.Object

	// mutatesRecv/mutatesParam are fixpoint facts: the function writes a
	// field of its receiver / i-th parameter, directly or via calls.
	mutatesRecv  bool
	mutatesParam []bool

	// writes are the function's field writes (used by phasesafety).
	writes []fieldWrite

	// tainted holds local variables initialized from expressions that
	// reach outside the function's own state (another router, the
	// network) — phasesafety provenance for writes through local
	// aliases like `dst := d.in[ip][v]`.
	tainted map[types.Object]bool
}

// pkgFacts caches the interprocedural facts of one package.
type pkgFacts struct {
	funcs map[*types.Func]*funcFacts
	// order preserves source order for deterministic iteration.
	order []*funcFacts
}

// facts returns the package's interprocedural facts, computing and
// caching them on first use.
func (p *Pass) facts() *pkgFacts {
	if p.pkg.facts == nil {
		p.pkg.facts = computeFacts(p)
	}
	return p.pkg.facts
}

// computeFacts builds the call graph and per-function facts for the
// package under analysis.
func computeFacts(pass *Pass) *pkgFacts {
	pf := &pkgFacts{funcs: make(map[*types.Func]*funcFacts)}
	recycledSlots := collectRecycledSlots(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			ff := analyzeFunc(pass, fd, file, obj, recycledSlots)
			pf.funcs[obj] = ff
			pf.order = append(pf.order, ff)
		}
	}
	propagateMutation(pf)
	return pf
}

// slotKey identifies a slice storage slot for the recycled-scratch rule:
// either a (named type, field) pair rendered as "T.f" for struct fields,
// or the types.Object of a package-level or local variable.
type slotKey any

// collectRecycledSlots finds every `s = s[:0]` reset in the package and
// returns the slot keys so appends into those slots count as amortized.
func collectRecycledSlots(pass *Pass) map[slotKey]bool {
	out := make(map[slotKey]bool)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != len(as.Lhs) {
				return true
			}
			for i, rhs := range as.Rhs {
				sl, ok := rhs.(*ast.SliceExpr)
				if !ok || sl.High == nil || sl.Slice3 {
					continue
				}
				if !isZeroConst(pass, sl.High) || (sl.Low != nil && !isZeroConst(pass, sl.Low)) {
					continue
				}
				if key := slotOf(pass, as.Lhs[i]); key != nil {
					out[key] = true
				}
			}
			return true
		})
	}
	return out
}

// isZeroConst reports whether e is the constant 0.
func isZeroConst(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	return tv.Value.String() == "0"
}

// slotOf resolves the storage slot of a slice expression: struct fields
// map to a "T.f" key (so r.saStalls and any alias of it share a slot),
// plain variables map to their object. Index expressions resolve to
// their base's slot (wants[p] shares saWants' slot).
func slotOf(pass *Pass, e ast.Expr) slotKey {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := pass.Info.Uses[e]
		if obj == nil {
			obj = pass.Info.Defs[e]
		}
		if obj == nil {
			return nil
		}
		// A local alias introduced by `x := recv.field` or `x := &recv.field`
		// shares the field's slot; resolve through single-assignment defs.
		if v, ok := obj.(*types.Var); ok {
			if key, ok := aliasSlot(pass, v); ok {
				return key
			}
		}
		return obj
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if named := namedOf(pass.TypeOf(e.X)); named != nil {
				return named.Obj().Name() + "." + e.Sel.Name
			}
		}
		return nil
	case *ast.IndexExpr:
		return slotOf(pass, e.X)
	case *ast.StarExpr:
		return slotOf(pass, e.X)
	}
	return nil
}

// aliasSlot resolves a local variable to the slot of its initializer
// (`reqs := &r.vaReqs` shares Router.vaReqs' slot). Single-assignment
// defines only; reassigned aliases keep their own object as the slot.
func aliasSlot(pass *Pass, v *types.Var) (slotKey, bool) {
	for _, file := range pass.Files {
		if file.Pos() > v.Pos() || v.Pos() > file.End() {
			continue
		}
		var key slotKey
		ast.Inspect(file, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || pass.Info.Defs[id] != v {
					continue
				}
				rhs := ast.Unparen(as.Rhs[i])
				if ue, ok := rhs.(*ast.UnaryExpr); ok && ue.Op == token.AND {
					rhs = ast.Unparen(ue.X)
				}
				switch rhs := rhs.(type) {
				case *ast.SelectorExpr:
					key = slotOf(pass, rhs)
				case *ast.IndexExpr:
					key = slotOf(pass, rhs)
				}
			}
			return key == nil
		})
		if key != nil {
			return key, true
		}
	}
	return nil, false
}

// namedOf unwraps pointers and returns the named type of t, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// analyzeFunc computes the intra-function facts of one declaration in a
// single walk over the body. Allocation sites are classified wherever
// they appear (call arguments included); escape marking happens in a
// post-pass once the return statements and assignment bindings are
// known.
func analyzeFunc(pass *Pass, fd *ast.FuncDecl, file *ast.File, obj *types.Func, recycled map[slotKey]bool) *funcFacts {
	ff := &funcFacts{fn: obj, decl: fd, file: file, tainted: make(map[types.Object]bool)}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		ff.recvObj = pass.Info.Defs[fd.Recv.List[0].Names[0]]
	}
	sig := obj.Type().(*types.Signature)
	ff.paramObjs = make([]types.Object, sig.Params().Len())
	ff.mutatesParam = make([]bool, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		ff.paramObjs[i] = sig.Params().At(i)
	}

	returned := returnedIdents(pass, fd)
	// bindings records each RHS expression span with the object it is
	// assigned to (for the escape rule): an allocation anywhere inside the
	// RHS — w := bitWriter{buf: make(...)} included — is bound to the LHS.
	// returnRanges are the spans of return statements (allocations inside
	// them escape by construction).
	type span struct{ lo, hi token.Pos }
	type bindSpan struct {
		span
		obj types.Object
	}
	var bindings []bindSpan
	var returnRanges []span
	// consumedLit marks composite literals already charged to an
	// enclosing &T{...} so they are not double-counted.
	consumedLit := make(map[ast.Node]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				ff.recordWrite(pass, lhs)
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok {
						o := pass.Info.Defs[id]
						if o == nil {
							o = pass.Info.Uses[id]
						}
						if o != nil {
							bindings = append(bindings, bindSpan{span{rhs.Pos(), rhs.End()}, o})
							if exprReachesForeign(pass, ff, rhs) {
								ff.tainted[o] = true
							}
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, val := range n.Values {
				if i < len(n.Names) {
					if o := pass.Info.Defs[n.Names[i]]; o != nil {
						bindings = append(bindings, bindSpan{span{val.Pos(), val.End()}, o})
						if exprReachesForeign(pass, ff, val) {
							ff.tainted[o] = true
						}
					}
				}
			}
		case *ast.IncDecStmt:
			ff.recordWrite(pass, n.X)
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					ff.mapRanges = append(ff.mapRanges, n.Pos())
				}
			}
		case *ast.ReturnStmt:
			returnRanges = append(returnRanges, span{n.Pos(), n.End()})
		case *ast.CallExpr:
			ff.recordCall(pass, n)
			if site, ok := ff.classifyAllocCall(pass, n, recycled); ok {
				ff.allocs = append(ff.allocs, site)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if cl, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					consumedLit[cl] = true
					ff.allocs = append(ff.allocs, allocSite{pos: n.Pos(), kind: allocCompLit, desc: exprString(n)})
				}
			}
		case *ast.CompositeLit:
			if consumedLit[n] {
				return true
			}
			if t := pass.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					ff.allocs = append(ff.allocs, allocSite{pos: n.Pos(), kind: allocCompLit, desc: exprString(n)})
				}
			}
		case *ast.FuncLit:
			if capturesOutside(pass, n) {
				ff.allocs = append(ff.allocs, allocSite{
					pos: n.Pos(), kind: allocClosure,
					desc: "func literal capturing outer variables",
				})
			}
			return true // still walk the body: its effects run in this context
		}
		return true
	})

	for i := range ff.allocs {
		a := &ff.allocs[i]
		for _, b := range bindings {
			if b.lo <= a.pos && a.pos < b.hi && returned[b.obj] {
				a.escapes = true
			}
		}
		for _, r := range returnRanges {
			if r.lo <= a.pos && a.pos < r.hi {
				a.escapes = true
			}
		}
	}
	return ff
}

// returnedIdents collects every identifier object mentioned inside the
// function's return statements (plus named results): allocations bound
// to them are the function's product, not scratch.
func returnedIdents(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	if fd.Type.Results != nil {
		for _, f := range fd.Type.Results.List {
			for _, name := range f.Names {
				if obj := pass.Info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // nested function's returns are not ours
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			ast.Inspect(res, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if obj := pass.Info.Uses[id]; obj != nil {
						out[obj] = true
					}
				}
				return true
			})
		}
		return true
	})
	return out
}

// recordWrite classifies one assignment target as a field write.
func (ff *funcFacts) recordWrite(pass *Pass, lhs ast.Expr) {
	root, isField := writeRoot(pass, lhs)
	if !isField {
		// Plain variable assignment (x = ...): not a field write.
		return
	}
	ff.writes = append(ff.writes, fieldWrite{pos: lhs.Pos(), expr: lhs, root: root})
	if root != nil {
		if root == ff.recvObj {
			ff.mutatesRecv = true
		}
		for i, p := range ff.paramObjs {
			if root == p {
				ff.mutatesParam[i] = true
			}
		}
	}
}

// writeRoot peels a selector/index/deref chain and returns the root
// identifier's object (nil for non-ident roots) and whether the target
// is a field/element rather than a plain variable.
func writeRoot(pass *Pass, e ast.Expr) (types.Object, bool) {
	isField := false
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			isField = true
			e = x.X
		case *ast.IndexExpr:
			isField = true
			e = x.X
		case *ast.StarExpr:
			isField = true
			e = x.X
		case *ast.Ident:
			obj := pass.Info.Uses[x]
			if obj == nil {
				obj = pass.Info.Defs[x]
			}
			return obj, isField
		default:
			return nil, isField
		}
	}
}

// classifyAllocCall recognizes make/new/append allocation calls.
func (ff *funcFacts) classifyAllocCall(pass *Pass, n *ast.CallExpr, recycled map[slotKey]bool) (allocSite, bool) {
	id, ok := ast.Unparen(n.Fun).(*ast.Ident)
	if !ok {
		return allocSite{}, false
	}
	if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
		return allocSite{}, false
	}
	switch id.Name {
	case "make":
		return allocSite{pos: n.Pos(), kind: allocMake, desc: exprString(n)}, true
	case "new":
		return allocSite{pos: n.Pos(), kind: allocNew, desc: exprString(n)}, true
	case "append":
		if len(n.Args) == 0 {
			return allocSite{}, false
		}
		if obj, isField := writeRoot(pass, n.Args[0]); !isField && obj != nil && isFuncLocal(obj, ff.decl) {
			// Growing a function-local slice: charged to the local's own
			// creation site (or it escapes and the escape rule applies);
			// skip to avoid double reporting.
			return allocSite{}, false
		}
		site := allocSite{pos: n.Pos(), kind: allocAppend, desc: "append to " + exprString(n.Args[0])}
		if key := slotOf(pass, n.Args[0]); key != nil && recycled[key] {
			site.recycled = true
		}
		return site, true
	}
	return allocSite{}, false
}

// isFuncLocal reports whether obj is declared inside fd's body (not a
// parameter, receiver, or package-level variable).
func isFuncLocal(obj types.Object, fd *ast.FuncDecl) bool {
	if obj == nil || fd.Body == nil {
		return false
	}
	return obj.Pos() >= fd.Body.Pos() && obj.Pos() <= fd.Body.End()
}

// capturesOutside reports whether the func literal references variables
// declared outside itself (a capturing closure, which heap-allocates).
func capturesOutside(pass *Pass, fl *ast.FuncLit) bool {
	captured := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || captured {
			return !captured
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if pkg := v.Pkg(); pkg == nil {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true // package-level or universe: no capture
		}
		if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
			captured = true
		}
		return true
	})
	return captured
}

// recordCall resolves a call's static callee: direct function calls,
// method calls on concrete receivers, method expressions, and in-package
// functions passed as arguments.
func (ff *funcFacts) recordCall(pass *Pass, call *ast.CallExpr) {
	if fn, recv := staticCallee(pass, call.Fun); fn != nil {
		cs := callSite{pos: call.Pos(), callee: fn, recv: recv, args: call.Args}
		if recv != nil {
			cs.recvRoot, _ = writeRoot(pass, recv)
		}
		cs.argRoots = make([]types.Object, len(call.Args))
		for i, arg := range call.Args {
			cs.argRoots[i], _ = writeRoot(pass, arg)
		}
		ff.calls = append(ff.calls, cs)
	}
	for _, arg := range call.Args {
		if fn, _ := staticCallee(pass, arg); fn != nil {
			// A function value passed into a call: assume the callee may
			// invoke it (sound for reachability).
			ff.calls = append(ff.calls, callSite{pos: arg.Pos(), callee: fn})
		}
	}
}

// staticCallee resolves e to a *types.Func when it statically names a
// function or method; for method-value selections it also returns the
// receiver expression.
func staticCallee(pass *Pass, e ast.Expr) (*types.Func, ast.Expr) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[e].(*types.Func); ok {
			return fn, nil
		}
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[e]; ok {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return nil, nil
			}
			if sel.Kind() == types.MethodExpr {
				return fn, nil // (*Router).computeX: no receiver at this site
			}
			return fn, e.X
		}
		// Package-qualified name (pkg.Func).
		if fn, ok := pass.Info.Uses[e.Sel].(*types.Func); ok {
			return fn, nil
		}
	}
	return nil, nil
}

// propagateMutation closes mutatesRecv/mutatesParam over the call graph:
// a method that calls another mutator on its own receiver (or passes its
// receiver/params into mutating parameter slots) is itself a mutator.
func propagateMutation(pf *pkgFacts) {
	changed := true
	for changed {
		changed = false
		for _, ff := range pf.order {
			for _, cs := range ff.calls {
				callee := pf.funcs[cs.callee]
				if callee == nil {
					continue
				}
				if callee.mutatesRecv && cs.recvRoot != nil {
					changed = markMutation(ff, cs.recvRoot) || changed
				}
				for i, root := range cs.argRoots {
					if root == nil || i >= len(callee.mutatesParam) || !callee.mutatesParam[i] {
						continue
					}
					changed = markMutation(ff, root) || changed
				}
			}
		}
	}
}

// markMutation records that ff mutates obj when obj is its receiver or a
// parameter; reports whether a fact changed.
func markMutation(ff *funcFacts, obj types.Object) bool {
	changed := false
	if obj == ff.recvObj && !ff.mutatesRecv {
		ff.mutatesRecv = true
		changed = true
	}
	for i, p := range ff.paramObjs {
		if obj == p && !ff.mutatesParam[i] {
			ff.mutatesParam[i] = true
			changed = true
		}
	}
	return changed
}

// reachableFrom computes the closure of functions reachable from roots
// over the package call graph. skip prunes traversal (the function and
// everything only reachable through it are excluded).
func (pf *pkgFacts) reachableFrom(roots []*types.Func, skip func(*types.Func) bool) map[*types.Func]bool {
	seen := make(map[*types.Func]bool)
	var stack []*types.Func
	for _, r := range roots {
		if pf.funcs[r] != nil && (skip == nil || !skip(r)) {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, cs := range pf.funcs[fn].calls {
			if cs.callee == nil || seen[cs.callee] || pf.funcs[cs.callee] == nil {
				continue
			}
			if skip != nil && skip(cs.callee) {
				continue
			}
			seen[cs.callee] = true
			stack = append(stack, cs.callee)
		}
	}
	return seen
}

// orderedReachable returns the reachable set as funcFacts in source
// order, for deterministic diagnostics.
func (pf *pkgFacts) orderedReachable(roots []*types.Func, skip func(*types.Func) bool) []*funcFacts {
	seen := pf.reachableFrom(roots, skip)
	out := make([]*funcFacts, 0, len(seen))
	for _, ff := range pf.order {
		if seen[ff.fn] {
			out = append(out, ff)
		}
	}
	return out
}

// rootsNamed collects the package's functions whose (method) name
// matches pred, optionally restricted to methods on the named receiver
// type.
func (pf *pkgFacts) rootsNamed(recvType string, pred func(name string) bool) []*types.Func {
	var out []*types.Func
	for _, ff := range pf.order {
		if !pred(ff.fn.Name()) {
			continue
		}
		if recvType != "" && recvTypeName(ff.fn) != recvType {
			continue
		}
		out = append(out, ff.fn)
	}
	return out
}

// recvTypeName returns the name of fn's receiver's named type ("" for
// plain functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if named := namedOf(sig.Recv().Type()); named != nil {
		return named.Obj().Name()
	}
	return ""
}

// Foreign-state classification results for classifyForeign.
const (
	foreignNone    = ""
	foreignRouter  = "another router"
	foreignNetwork = "Network-global state"
)

// classifyForeign reports whether e contains a sub-expression that
// reaches state outside the enclosing function's own router: an
// expression of type Router that is not the receiver or a parameter, an
// expression of type Network, or a use of an already-tainted local.
// Used both to taint local variables at their initialization and to
// classify write targets (phasesafety). Cross-router beats
// Network-global when both appear in the chain — a write to
// net.Routers[i].f targets that router, the network is just the path.
func classifyForeign(pass *Pass, ff *funcFacts, e ast.Expr) string {
	kind := foreignNone
	mark := func(k string) {
		if kind == foreignNone || k == foreignRouter {
			kind = k
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if kind == foreignRouter {
			return false
		}
		ex, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		named := namedOf(pass.TypeOf(ex))
		name := ""
		if named != nil {
			name = named.Obj().Name()
		}
		switch name {
		case "Network", "Router":
			foreign := foreignRouter
			if name == "Network" {
				foreign = foreignNetwork
			}
			id, ok := ast.Unparen(ex).(*ast.Ident)
			if !ok {
				// A selector (r.net), call result (r.downstream(p)) or
				// index (net.Routers[i]): state beyond the vouched roots.
				mark(foreign)
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				obj = pass.Info.Defs[id]
			}
			if obj == nil || ff.tainted[obj] {
				mark(foreign)
				return true
			}
			if obj == ff.recvObj {
				// Own receiver: a (*Network).helper reached in traversal
				// writes its own fields; the violation is the call site
				// that handed compute a Network, and that is where the
				// finding lands (trace/mutation call checks).
				return true
			}
			for _, p := range ff.paramObjs {
				if obj == p {
					return true // the caller vouched for this value
				}
			}
			mark(foreign)
		default:
			if id, ok := ast.Unparen(ex).(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && ff.tainted[obj] {
					mark(foreignRouter)
				}
			}
		}
		return true
	})
	return kind
}

// exprReachesForeign is classifyForeign as a predicate (local taint).
func exprReachesForeign(pass *Pass, ff *funcFacts, e ast.Expr) bool {
	return classifyForeign(pass, ff, e) != foreignNone
}

// exprString renders a (small) expression for diagnostics.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.UnaryExpr:
		return e.Op.String() + exprString(e.X)
	case *ast.CompositeLit:
		if e.Type != nil {
			return exprString(e.Type) + "{...}"
		}
		return "{...}"
	case *ast.ArrayType:
		return "[]" + exprString(e.Elt)
	case *ast.MapType:
		return fmt.Sprintf("map[%s]%s", exprString(e.Key), exprString(e.Value))
	default:
		return "expr"
	}
}

// funcDisplayName renders fn for diagnostics: "(*Router).computeSA" or
// "stepInjection".
func funcDisplayName(fn *types.Func) string {
	if recv := recvTypeName(fn); recv != "" {
		return "(*" + recv + ")." + fn.Name()
	}
	return fn.Name()
}

// hasPrefixFold reports whether name starts with prefix, ignoring the
// case of the first rune (New/new, Init/init).
func hasPrefixFold(name, prefix string) bool {
	return strings.HasPrefix(strings.ToLower(name), strings.ToLower(prefix))
}
