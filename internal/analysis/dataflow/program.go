// Interprocedural layer: a Program is the whole-load view the
// concurrency-discipline analyzers work on — every function declaration in
// every loaded package, a static call graph between them, and per-function
// effect summaries (channel operations, lock acquisition order, atomic
// versus plain field access, wall-clock and global-randomness sources,
// telemetry-handle discipline) computed to a cross-package fixpoint.
//
// The loader type-checks each target package from source while its
// importers see export-data twins of the same packages, so *types.Object
// identity does not hold across package boundaries. Everything
// program-wide is therefore keyed by stable string IDs: functions by
// "pkgpath.(Recv).Name", struct fields and channels by
// "pkgpath.Type.field", locks by the same scheme. Positions stay exact —
// every recorded site carries its token.Pos and owning function.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"

	"rups/internal/analysis"
	"rups/internal/analysis/loader"
)

// Program is the interprocedural view over one load.
type Program struct {
	fset  *token.FileSet
	funcs []*ProgFunc          // deterministic: declaration order
	byID  map[string]*ProgFunc // funcID → function

	analyses map[string]*Analysis // pkg path → per-package dataflow
	taints   map[string]*Summary  // funcID → taint summary (cross-package)

	chanOps  map[string][]ChanOp // chanKey → operations, program-wide
	chanKeys []string            // deterministic iteration order
	fields   map[string]*FieldAccess
	fieldIDs []string

	lockEdges   []LockEdge
	lockEdgeSet map[lockEdgeKey]bool

	// dynMu guards dynCache: it is populated lazily by callees(), which
	// analyzers reach concurrently once the driver parallelizes packages.
	dynMu    sync.Mutex
	dynCache map[string][]*ProgFunc // interface method ID → matching impls

	// ivalRets holds the interval fixpoint's per-function return
	// intervals, keyed by canonical function ID (see computeIntervals).
	ivalRets map[string]Interval

	// ivalNoNarrow marks functions whose identifier is referenced outside
	// call position somewhere in the load: calls through the escaped value
	// are invisible to the call-site walk, so parameter narrowing is
	// unsound for them (see collectValueRefFuncs).
	ivalNoNarrow map[string]bool
}

// ProgFunc is one declared function (methods included) with its syntax,
// package, direct call sites, and effect summary.
type ProgFunc struct {
	ID      string
	Fn      *types.Func
	Decl    *ast.FuncDecl
	Pkg     *types.Package
	Info    *types.Info
	Calls   []*CallSite
	Effects *Effects

	// sanctionedObs marks functions inside internal/obs itself: the View
	// cache and friends are the sanctioned owners of raw registry lookups,
	// so they record their sites but do not export the RawObs effect —
	// otherwise every cached View.Get chain would flag as a raw lookup.
	sanctionedObs bool
}

// CallSite is one static call edge out of a declared function. Calls from
// closures are attributed to the enclosing declaration; a closure defined
// inside a loop inherits the loop context (it typically runs per
// iteration).
type CallSite struct {
	Caller   *types.Func
	CalleeID string      // canonical ID; resolve with Program.Func
	Callee   *types.Func // the caller's view of the callee (may be an export-data twin)
	Pos      token.Pos
	InLoop   bool
	InGo     bool
	InDefer  bool
	Held     []string // lock IDs held at the call, in acquisition order

	// Dynamic marks an interface-method call. CalleeID then names the
	// interface method; the fixpoint joins effects over every loaded
	// concrete method named MethodName whose receiver's method set covers
	// IfaceNames (a structural-implements approximation that survives the
	// source/export-data type-identity split).
	Dynamic    bool
	MethodName string
	IfaceNames []string
}

// Site is one recorded source position with its concurrency context.
type Site struct {
	Fn     *types.Func
	FnID   string
	Pos    token.Pos
	InLoop bool
	InGo   bool
	InOnce bool
	Held   []string
}

// ChanOpKind classifies channel operations.
type ChanOpKind uint8

const (
	// ChanSend is ch <- v.
	ChanSend ChanOpKind = iota
	// ChanClose is close(ch).
	ChanClose
	// ChanRecv is <-ch (recorded for completeness).
	ChanRecv
)

// String names the operation for diagnostics.
func (k ChanOpKind) String() string {
	switch k {
	case ChanSend:
		return "send"
	case ChanClose:
		return "close"
	default:
		return "receive"
	}
}

// ChanOp is one send/close/receive on an abstract channel.
type ChanOp struct {
	Kind ChanOpKind
	// Key identifies the channel program-wide (see chanKey).
	Key string
	// Name is the channel's short name for diagnostics (field or var name).
	Name string
	// FromParam reports that the channel reached this function as a
	// parameter — ownership lives with the caller.
	FromParam bool
	Site
}

// FieldAccess aggregates every access to one struct field program-wide:
// the sites that touch it through sync/atomic (or a typed atomic's
// methods) and the plain reads/writes.
type FieldAccess struct {
	ID          string
	Name        string // short field name for diagnostics
	Atomic      []Site
	PlainReads  []Site
	PlainWrites []Site
}

// LockEdge records "From was held while To was acquired" with the position
// of the acquisition (or of the call that leads to it) and the function
// the evidence sits in. Via names the callee chain when the acquisition is
// interprocedural; empty for a direct acquire.
type LockEdge struct {
	From, To string
	Pos      token.Pos
	Fn       *types.Func
	FnID     string
	Via      string
}

type lockEdgeKey struct {
	from, to string
	pos      token.Pos
}

// NewProgram builds the interprocedural program over every loaded package:
// call graph, effect summaries to fixpoint, and cross-package taint
// summaries feeding the existing intraprocedural layer.
func NewProgram(pkgs []*loader.Package) *Program {
	passes := make([]*analysis.Pass, len(pkgs))
	for i, pkg := range pkgs {
		passes[i] = &analysis.Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
	}
	return newProgram(passes)
}

// ProgramOf returns the program the driver attached to the pass, or — when
// the pass runs without one (single-package analysistest goldens, direct
// analyzer invocation) — a program built from just this package. The
// fallback keeps every interprocedural analyzer usable on one package; it
// simply cannot see across imports.
func ProgramOf(pass *analysis.Pass) *Program {
	if p, ok := pass.Program.(*Program); ok && p != nil {
		return p
	}
	return newProgram([]*analysis.Pass{{
		Fset:      pass.Fset,
		Files:     pass.Files,
		Pkg:       pass.Pkg,
		TypesInfo: pass.TypesInfo,
	}})
}

func newProgram(passes []*analysis.Pass) *Program {
	p := &Program{
		byID:        make(map[string]*ProgFunc),
		analyses:    make(map[string]*Analysis),
		taints:      make(map[string]*Summary),
		chanOps:     make(map[string][]ChanOp),
		fields:      make(map[string]*FieldAccess),
		lockEdgeSet: make(map[lockEdgeKey]bool),
	}
	for _, pass := range passes {
		if p.fset == nil {
			p.fset = pass.Fset
		}
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				pf := &ProgFunc{
					ID:      FuncID(fn),
					Fn:      fn,
					Decl:    fd,
					Pkg:     pass.Pkg,
					Info:    pass.TypesInfo,
					Effects: newEffects(),
					sanctionedObs: strings.HasSuffix(pass.Pkg.Path(), "internal/obs") ||
						strings.HasSuffix(pass.Pkg.Path(), "internal/obs/flight"),
				}
				p.funcs = append(p.funcs, pf)
				p.byID[pf.ID] = pf
			}
		}
	}
	sort.SliceStable(p.funcs, func(i, j int) bool { return p.funcs[i].Decl.Pos() < p.funcs[j].Decl.Pos() })

	for _, pf := range p.funcs {
		p.walkFunc(pf)
	}
	p.fixpoint()

	// Cross-package taint: per-package intraprocedural analyses whose call
	// summaries consult every other package's, iterated to a global
	// fixpoint. Facts only climb the lattice, so this terminates.
	for _, pass := range passes {
		a := New(pass)
		a.SetForeign(p.foreignSummary(pass.Pkg))
		p.analyses[pass.Pkg.Path()] = a
		for fn, s := range a.summaries {
			p.taints[FuncID(fn)] = s
		}
	}
	for changed := true; changed; {
		changed = false
		for _, pass := range passes {
			if p.analyses[pass.Pkg.Path()].Recompute() {
				changed = true
			}
		}
	}

	// Interval layer: interprocedural argument/return interval propagation
	// over the same per-package analyses, to a widened fixpoint.
	p.computeIntervals(passes)

	sort.Strings(p.chanKeys)
	sort.Strings(p.fieldIDs)
	sort.Slice(p.lockEdges, func(i, j int) bool {
		a, b := p.lockEdges[i], p.lockEdges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Pos < b.Pos
	})
	return p
}

// foreignSummary resolves call summaries across package boundaries by
// canonical function ID, so a caller's export-data view of a callee finds
// the summary computed from the callee's source.
func (p *Program) foreignSummary(self *types.Package) func(*types.Func) *Summary {
	return func(fn *types.Func) *Summary {
		if fn == nil || fn.Pkg() == nil || fn.Pkg() == self {
			return nil // same package: the local summary map already answered
		}
		return p.taints[FuncID(fn)]
	}
}

// ---- accessors ---------------------------------------------------------

// Functions returns every declared function in declaration order.
func (p *Program) Functions() []*ProgFunc { return p.funcs }

// Fset is the shared fileset every loaded package was parsed into.
func (p *Program) Fset() *token.FileSet { return p.fset }

// Func resolves a function (possibly an export-data twin from another
// package's view) to its program entry, or nil when it is not part of the
// load (standard library, unexported foreign helpers, interface methods).
func (p *Program) Func(fn *types.Func) *ProgFunc {
	if fn == nil {
		return nil
	}
	return p.byID[FuncID(fn)]
}

// FuncByID resolves a canonical function ID.
func (p *Program) FuncByID(id string) *ProgFunc { return p.byID[id] }

// EffectsOf returns fn's effect summary, or nil for functions outside the
// load.
func (p *Program) EffectsOf(fn *types.Func) *Effects {
	if pf := p.Func(fn); pf != nil {
		return pf.Effects
	}
	return nil
}

// ChanKeys lists every abstract channel with at least one recorded
// operation, sorted.
func (p *Program) ChanKeys() []string { return p.chanKeys }

// ChanOpsOf returns the program-wide operations on one abstract channel.
func (p *Program) ChanOpsOf(key string) []ChanOp { return p.chanOps[key] }

// FieldIDs lists every struct field with a recorded access, sorted.
func (p *Program) FieldIDs() []string { return p.fieldIDs }

// FieldAccessOf returns the aggregated accesses of one field.
func (p *Program) FieldAccessOf(id string) *FieldAccess { return p.fields[id] }

// LockEdges returns the "held From while acquiring To" graph, sorted.
func (p *Program) LockEdges() []LockEdge { return p.lockEdges }

// AnalysisFor returns the per-package intraprocedural dataflow analysis
// with cross-package summaries wired in, or nil for unloaded packages.
func (p *Program) AnalysisFor(pkg *types.Package) *Analysis {
	if pkg == nil {
		return nil
	}
	return p.analyses[pkg.Path()]
}

// AnalysisOf is the analyzer-facing entry point for the intraprocedural
// layer: the pass's per-package analysis out of the shared program (so
// flows and summaries are built once per run and cross-package call
// summaries resolve), falling back to a standalone analysis when the pass
// carries no program.
func AnalysisOf(pass *analysis.Pass) *Analysis {
	if a := ProgramOf(pass).AnalysisFor(pass.Pkg); a != nil {
		return a
	}
	return New(pass)
}

// TaintSummaryByID resolves a cross-package taint summary.
func (p *Program) TaintSummaryByID(id string) *Summary { return p.taints[id] }

// ---- canonical IDs -----------------------------------------------------

// FuncID is the canonical program-wide identity of a function:
// "pkgpath.Name" for package functions, "pkgpath.(Recv).Name" for methods.
// Export-data twins of a source-checked function produce the same ID.
func FuncID(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	fn = fn.Origin()
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		return path + ".(" + recvName(sig.Recv().Type()) + ")." + fn.Name()
	}
	return path + "." + fn.Name()
}

func recvName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		return "*" + recvName(ptr.Elem())
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Alias:
		return recvName(types.Unalias(t))
	}
	return t.String()
}

// typeID names a type for field/lock identity: package path + type name.
func typeID(t types.Type) string {
	if t == nil {
		return "?"
	}
	if ptr, ok := t.(*types.Pointer); ok {
		return typeID(ptr.Elem())
	}
	t = types.Unalias(t)
	if n, ok := t.(*types.Named); ok {
		obj := n.Obj()
		if obj.Pkg() != nil {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		return obj.Name()
	}
	return t.String()
}

// fieldID keys a struct field program-wide. The owning struct type comes
// from the selection's receiver, so promoted fields key on the embedded
// type that declares them only when accessed through it explicitly.
func fieldID(recv types.Type, field *types.Var) string {
	return typeID(recv) + "." + field.Name()
}

// objectKey keys a non-field variable: package-level vars by path.name,
// locals by their declaration position (stable within one load, never
// shared across packages).
func objectKey(fset *token.FileSet, obj types.Object) string {
	if obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
		return obj.Pkg().Path() + "." + obj.Name()
	}
	pos := fset.Position(obj.Pos())
	return "local:" + pos.Filename + ":" + pos.String() + ":" + obj.Name()
}
