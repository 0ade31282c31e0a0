// Package allocdiscipline watches the allocation discipline of hot paths
// with the interval engine's cost model. It has two modes:
//
//   - the analyzer proper reports the mechanically fixable pattern: a
//     zero-capacity make([]T, 0) grown by append inside a loop whose trip
//     count the interval engine proves. The diagnostic carries a
//     suggested fix that preallocates the proven capacity, applied by the
//     driver's -fix mode;
//   - Report ranks every allocation site (make, append, the
//     append([]T(nil), src...) deep-copy idiom) by how hot it is — the
//     interprocedural loop multiplicity of its function times its
//     syntactic loop depth — and how big it is, with sizes derived from
//     proven intervals. The driver's -allocreport mode prints the top
//     entries; the engine.Admit snapshot path is the expected leader on
//     this repository.
package allocdiscipline

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"rups/internal/analysis"
	"rups/internal/analysis/dataflow"
)

// Analyzer reports provably preallocatable append loops with a fix.
var Analyzer = &analysis.Analyzer{
	Name: "allocdiscipline",
	Doc: "flags zero-capacity slices grown by append in loops with a proven " +
		"trip bound, suggesting the preallocated capacity (see also -allocreport)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	prog := dataflow.ProgramOf(pass)
	df := prog.AnalysisFor(pass.Pkg)
	if df == nil {
		return nil
	}
	it := df.Interp()
	for _, pf := range prog.Functions() {
		if pf.Pkg.Path() != pass.Pkg.Path() {
			continue
		}
		flow := df.FlowOf(pf.Decl)
		if flow == nil {
			continue
		}
		checkPrealloc(pass, it, flow)
	}
	return nil
}

// growth is one `obj = append(obj, ...)` site inside a loop.
type growth struct {
	loop    ast.Stmt
	perIter int64 // elements appended per call; -1 when a spread defeats counting
}

// checkPrealloc finds `xs := make([]T, 0)` defs whose every growth is an
// append inside a loop with a proven trip bound, and suggests the summed
// capacity.
func checkPrealloc(pass *analysis.Pass, it *dataflow.Interp, flow *dataflow.FuncFlow) {
	info := pass.TypesInfo
	makes := zeroCapMakes(info, flow)
	if len(makes) == 0 {
		return
	}
	grows, ok := collectGrowth(info, flow, makes)
	for obj, mk := range makes {
		gs := grows[obj]
		if !ok[obj] || len(gs) == 0 {
			continue
		}
		total := int64(0)
		proven := true
		for _, g := range gs {
			trips, tok := it.LoopTrips(g.loop, flow)
			if !tok || !trips.HiBounded() || g.perIter < 0 {
				proven = false
				break
			}
			total += trips.Hi * g.perIter
		}
		if !proven || total <= 0 {
			continue
		}
		fix := analysis.Fix{
			Message: fmt.Sprintf("preallocate capacity %d", total),
			Edits: []analysis.TextEdit{
				pass.Edit(mk.Args[1].End(), mk.Args[1].End(), fmt.Sprintf(", %d", total)),
			},
		}
		pass.ReportWithFix(mk.Pos(),
			fmt.Sprintf("append loop provably adds at most %d element(s) to this zero-capacity "+
				"slice: preallocate with make(%s, 0, %d)", total, types.TypeString(info.TypeOf(mk), nil), total),
			fix)
	}
}

// zeroCapMakes maps slice objects to their `make([]T, 0)` initializer.
func zeroCapMakes(info *types.Info, flow *dataflow.FuncFlow) map[types.Object]*ast.CallExpr {
	out := make(map[types.Object]*ast.CallExpr)
	for _, ev := range flow.Events {
		if ev.Kind != dataflow.Def || ev.Compound || ev.Rhs == nil {
			continue
		}
		call, ok := ev.Rhs.(*ast.CallExpr)
		if !ok || builtinName(info, call) != "make" || len(call.Args) != 2 {
			continue
		}
		if _, isSlice := info.TypeOf(call).Underlying().(*types.Slice); !isSlice {
			continue
		}
		if tv, ok := info.Types[call.Args[1]]; !ok || tv.Value == nil || !isZero(tv.Value) {
			continue
		}
		out[ev.Obj] = call
	}
	return out
}

// collectGrowth walks the body once: for each tracked object it gathers
// `obj = append(obj, ...)` sites with their innermost enclosing loop, and
// records in ok whether every other write to obj keeps the analysis valid
// (any non-append reassignment disqualifies the object).
func collectGrowth(info *types.Info, flow *dataflow.FuncFlow, makes map[types.Object]*ast.CallExpr) (map[types.Object][]growth, map[types.Object]bool) {
	grows := make(map[types.Object][]growth)
	ok := make(map[types.Object]bool, len(makes))
	for obj := range makes {
		ok[obj] = true
	}
	var loops []ast.Stmt
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(nd ast.Node) bool {
			switch s := nd.(type) {
			case *ast.ForStmt:
				loops = append(loops, s)
				walk(s.Body)
				loops = loops[:len(loops)-1]
				return false
			case *ast.RangeStmt:
				loops = append(loops, s)
				walk(s.Body)
				loops = loops[:len(loops)-1]
				return false
			case *ast.AssignStmt:
				for i, lhs := range s.Lhs {
					id, isIdent := lhs.(*ast.Ident)
					if !isIdent {
						continue
					}
					obj := info.Defs[id]
					if obj == nil {
						obj = info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if _, tracked := makes[obj]; !tracked {
						continue
					}
					if mk := makes[obj]; i < len(s.Rhs) && s.Rhs[i] == mk {
						continue // the defining make itself
					}
					g, isGrow := appendGrowth(info, s, i, obj)
					if !isGrow || len(loops) == 0 {
						ok[obj] = false
						continue
					}
					g.loop = loops[len(loops)-1]
					grows[obj] = append(grows[obj], g)
				}
			}
			return true
		})
	}
	walk(flow.Decl.Body)
	return grows, ok
}

// appendGrowth matches `obj = append(obj, e1, e2, ...)` at assignment
// slot i and counts the appended elements.
func appendGrowth(info *types.Info, s *ast.AssignStmt, i int, obj types.Object) (growth, bool) {
	if s.Tok != token.ASSIGN || i >= len(s.Rhs) {
		return growth{}, false
	}
	call, ok := s.Rhs[i].(*ast.CallExpr)
	if !ok || builtinName(info, call) != "append" || len(call.Args) < 2 {
		return growth{}, false
	}
	base, ok := call.Args[0].(*ast.Ident)
	if !ok || (info.Uses[base] != obj && info.Defs[base] != obj) {
		return growth{}, false
	}
	if call.Ellipsis != token.NoPos {
		return growth{perIter: -1}, true
	}
	return growth{perIter: int64(len(call.Args) - 1)}, true
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

func isZero(v constant.Value) bool {
	n, ok := constant.Int64Val(constant.ToInt(v))
	return ok && n == 0
}

// ---- ranked allocation report ------------------------------------------

// Site is one allocation expression with its cost model, for -allocreport.
type Site struct {
	Fn    string         // label of the containing function
	Pos   token.Position // allocation expression
	Kind  string         // "make", "append", "clone-append"
	Depth int            // loop multiplicity: interprocedural + syntactic
	// Count is the proven interval of allocated element count.
	Count dataflow.Interval
	// ElemBytes is the element size under 64-bit gc sizes.
	ElemBytes int64
	// Amortized marks an allocation that runs once per capacity high-water
	// mark or cache miss, not once per call: it sits behind a cap() guard
	// or inside a memoized constructor, so caller loop multiplicity does
	// not multiply it and Depth carries only the syntactic nesting.
	Amortized bool
	// Chain names the hottest caller path that gives Depth, outermost first.
	Chain []string
	// Score orders the report.
	Score float64
}

// maxMult caps interprocedural loop multiplicity: past a few nested
// levels of loop-resident calls, "hotter" stops being meaningful.
const maxMult = 4

// unboundedCount stands in for an unbounded element count when scoring.
const unboundedCount = 1 << 16

// Report ranks every allocation site of the loaded program, hottest
// first. Deterministic: ties break by position.
func Report(prog *dataflow.Program) []Site {
	mult, pred := loopMultiplicity(prog)
	var sites []Site
	for _, pf := range prog.Functions() {
		df := prog.AnalysisFor(pf.Pkg)
		if df == nil {
			continue
		}
		flow := df.FlowOf(pf.Decl)
		if flow == nil {
			continue
		}
		sites = append(sites, collectSites(prog, df, pf, flow, mult[pf.ID], chainOf(prog, pred, pf))...)
	}
	for i := range sites {
		sites[i].Score = score(sites[i])
	}
	sort.Slice(sites, func(i, j int) bool {
		// Scores are products of small integers, so ordered comparison is
		// exact; ties fall through to position for determinism.
		if sites[i].Score > sites[j].Score {
			return true
		}
		if sites[i].Score < sites[j].Score {
			return false
		}
		a, b := sites[i].Pos, sites[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return sites
}

// score weighs loop depth exponentially and size linearly: one more loop
// level multiplies the per-operation count, while size only scales bytes.
// Three refinements keep the ranking honest:
//
//   - a proven interval as wide as a machine integer type (a wire-decoded
//     uint32 gives [0, 2^32-1]) is a type artifact, not a size proof, so
//     counts are capped at the unbounded stand-in rather than letting a
//     4-billion "proof" swamp the report;
//   - plain append growth reallocates O(log n) times for n appends, so an
//     append site is charged one loop level less than its nesting;
//   - a clone-append deep copy allocates, copies, and retains every byte
//     on every call — nothing about it amortizes — so it is charged two
//     levels hotter.
func score(s Site) float64 {
	count := float64(unboundedCount)
	if s.Count.HiBounded() && s.Count.Hi < unboundedCount {
		count = float64(s.Count.Hi)
		if count < 1 {
			count = 1
		}
	}
	depth := s.Depth
	switch s.Kind {
	case "append":
		if depth > 0 {
			depth--
		}
	case "clone-append":
		depth += 2
	}
	if depth > 16 {
		depth = 16
	}
	bytes := count * float64(s.ElemBytes)
	return float64(int64(1)<<(2*uint(depth))) * bytes // 4^depth × bytes
}

// loopMultiplicity runs a monotone fixpoint over the call graph: a
// function called from a loop inherits its caller's multiplicity plus
// one, capped at maxMult. pred records the caller that supplied the
// maximum, for chain reconstruction.
func loopMultiplicity(prog *dataflow.Program) (map[string]int, map[string]string) {
	mult := make(map[string]int)
	pred := make(map[string]string)
	for changed := true; changed; {
		changed = false
		for _, pf := range prog.Functions() {
			for _, cs := range pf.Calls {
				d := mult[pf.ID]
				if cs.InLoop {
					d++
				}
				if d > maxMult {
					d = maxMult
				}
				for _, callee := range prog.Callees(cs) {
					if d > mult[callee.ID] {
						mult[callee.ID] = d
						pred[callee.ID] = pf.ID
						changed = true
					}
				}
			}
		}
	}
	return mult, pred
}

// chainOf reconstructs the hottest caller chain, outermost first, capped.
func chainOf(prog *dataflow.Program, pred map[string]string, pf *dataflow.ProgFunc) []string {
	var rev []string
	for id, hops := pf.ID, 0; id != "" && hops < maxMult+1; hops++ {
		f := prog.FuncByID(id)
		if f == nil {
			break
		}
		rev = append(rev, dataflow.FuncLabel(f.Fn))
		id = pred[id]
	}
	out := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i])
	}
	return out
}

// collectSites gathers make/append allocations of one function with their
// syntactic loop depth added to the function's call-graph multiplicity.
func collectSites(prog *dataflow.Program, df *dataflow.Analysis, pf *dataflow.ProgFunc, flow *dataflow.FuncFlow, mult int, chain []string) []Site {
	info := pf.Info
	it := df.Interp()
	var out []Site
	depth := 0
	amort := memoGuarded(flow.Decl)
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(nd ast.Node) bool {
			switch e := nd.(type) {
			case *ast.ForStmt:
				depth++
				walk(e.Body)
				depth--
				return false
			case *ast.RangeStmt:
				depth++
				walk(e.Body)
				depth--
				return false
			case *ast.IfStmt:
				// Allocation behind a capacity check runs once per
				// high-water mark, not once per call.
				if capGuarded(info, e.Cond) {
					saved := amort
					amort = true
					walk(e.Body)
					amort = saved
					if e.Else != nil {
						walk(e.Else)
					}
					return false
				}
				return true
			case *ast.CallExpr:
				s, ok := allocSite(info, it, flow, e)
				if !ok {
					return true
				}
				s.Fn = dataflow.FuncLabel(pf.Fn)
				s.Pos = prog.Fset().Position(e.Pos())
				s.Depth = mult + depth
				s.Chain = chain
				if amort {
					s.Amortized = true
					s.Depth = depth
					s.Chain = nil
				}
				out = append(out, s)
			}
			return true
		})
	}
	walk(flow.Decl.Body)
	return out
}

// capGuarded reports whether the condition tests a cap() — the signature
// of grow-on-demand scratch that amortizes its allocations.
func capGuarded(info *types.Info, cond ast.Expr) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && builtinName(info, call) == "cap" {
			found = true
		}
		return !found
	})
	return found
}

// memoGuarded recognizes the memoized-constructor shape: the function's
// first statement returns early when a cached result already exists
// (a `!= nil` test), so the allocations below run once per cache miss and
// caller loop multiplicity does not multiply them.
func memoGuarded(decl *ast.FuncDecl) bool {
	if decl == nil || decl.Body == nil || len(decl.Body.List) == 0 {
		return false
	}
	ifs, ok := decl.Body.List[0].(*ast.IfStmt)
	if !ok || ifs.Else != nil || len(ifs.Body.List) == 0 {
		return false
	}
	if _, ok := ifs.Body.List[len(ifs.Body.List)-1].(*ast.ReturnStmt); !ok {
		return false
	}
	found := false
	ast.Inspect(ifs.Cond, func(n ast.Node) bool {
		b, ok := n.(*ast.BinaryExpr)
		if ok && b.Op == token.NEQ && (isNilIdent(b.X) || isNilIdent(b.Y)) {
			found = true
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// allocSite classifies one call expression as an allocation.
func allocSite(info *types.Info, it *dataflow.Interp, flow *dataflow.FuncFlow, call *ast.CallExpr) (Site, bool) {
	switch builtinName(info, call) {
	case "make":
		t := info.TypeOf(call)
		count := dataflow.AtLeast(0)
		if len(call.Args) >= 2 {
			count = it.Eval(call.Args[1], flow, call.Pos())
		}
		return Site{Kind: "make", Count: count, ElemBytes: elemBytes(t)}, true
	case "append":
		if len(call.Args) < 2 {
			return Site{}, false
		}
		kind := "append"
		count := dataflow.Range(0, int64(len(call.Args)-1))
		if call.Ellipsis != token.NoPos {
			count = it.LenOf(call.Args[1], flow, call.Pos())
			if isNilConversion(info, call.Args[0]) {
				kind = "clone-append" // append([]T(nil), src...): a deep copy
			}
		}
		return Site{Kind: kind, Count: count, ElemBytes: elemBytes(info.TypeOf(call))}, true
	}
	return Site{}, false
}

// isNilConversion matches `[]T(nil)` and `T(nil)`.
func isNilConversion(info *types.Info, e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return false
	}
	if tv, ok := info.Types[call.Fun]; !ok || !tv.IsType() {
		return false
	}
	tv, ok := info.Types[call.Args[0]]
	return ok && tv.IsNil()
}

// elemBytes sizes the element of a slice/map/chan type under the 64-bit
// gc layout; 8 when no element applies.
func elemBytes(t types.Type) int64 {
	if t == nil {
		return 8
	}
	sizes := types.SizesFor("gc", "amd64")
	if sizes == nil {
		sizes = &types.StdSizes{WordSize: 8, MaxAlign: 8}
	}
	switch u := t.Underlying().(type) {
	case *types.Slice:
		return sizeof(sizes, u.Elem())
	case *types.Map:
		return sizeof(sizes, u.Key()) + sizeof(sizes, u.Elem())
	case *types.Chan:
		return sizeof(sizes, u.Elem())
	}
	return 8
}

// sizeof is sizes.Sizeof, except that a type whose size depends on a type
// parameter counts as one word: its size is the instantiation's, and
// go/types asserts rather than size it.
func sizeof(sizes types.Sizes, t types.Type) int64 {
	if sizedByTypeParam(t) {
		return 8
	}
	return sizes.Sizeof(t)
}

// sizedByTypeParam reports whether t's size depends on a type parameter:
// t is one, or an array or struct (named or not) holding one by value.
// Pointers, slices, maps, chans, funcs and interfaces have a fixed size
// whatever they refer to, so they are not entered — which also keeps
// recursive types from recursing here.
func sizedByTypeParam(t types.Type) bool {
	switch u := types.Unalias(t).(type) {
	case *types.TypeParam:
		return true
	case *types.Named:
		return sizedByTypeParam(u.Underlying())
	case *types.Array:
		return sizedByTypeParam(u.Elem())
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if sizedByTypeParam(u.Field(i).Type()) {
				return true
			}
		}
	}
	return false
}

// FormatReport renders the top n sites as the driver's -allocreport text.
func FormatReport(sites []Site, n int) string {
	if n > len(sites) {
		n = len(sites)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "top %d allocation site(s) by loop depth × interval-derived size:\n", n)
	for i := 0; i < n; i++ {
		s := sites[i]
		count := "unbounded"
		if s.Count.HiBounded() {
			count = s.Count.String()
		}
		fmt.Fprintf(&b, "%2d. depth=%d %-12s count=%s elem=%dB est=%s  %s\n      at %s\n",
			i+1, s.Depth, s.Kind, count, s.ElemBytes, estimate(s), s.Fn, s.Pos)
		if s.Amortized {
			fmt.Fprintf(&b, "      amortized: behind a capacity/memo guard, charged once per high-water mark\n")
		} else if len(s.Chain) > 0 {
			fmt.Fprintf(&b, "      via %s\n", strings.Join(s.Chain, " -> "))
		}
	}
	return b.String()
}

// estimate renders the interval-derived per-execution byte estimate: exact
// when the count interval is usefully bounded, a conservative ">=" floor
// when the proof is absent or only a type-width artifact.
func estimate(s Site) string {
	if s.Count.HiBounded() && s.Count.Hi < unboundedCount {
		hi := s.Count.Hi
		if hi < 1 {
			hi = 1
		}
		return fmtBytes(hi * s.ElemBytes)
	}
	return ">=" + fmtBytes(unboundedCount*s.ElemBytes)
}

// fmtBytes prints a byte count with a binary unit.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
