// Package andersen implements an inclusion-based, flow- and
// context-insensitive, field-insensitive points-to analysis in the
// style of Andersen's thesis. It plays the role of CF in the paper's
// Figure 10: the CFL/inclusion-based comparator whose strengths
// (distinguishing allocation sites through loads and stores) are
// complementary to the strict-inequality analysis.
//
// Abstract objects are allocation sites (allocas, mallocs, globals)
// plus a distinguished universal object standing for memory unknown
// to the module (externally supplied pointers). Constraints:
//
//	p = &obj    pts(p) ⊇ {obj}
//	p = q       pts(p) ⊇ pts(q)          (copy, phi, sigma, gep)
//	p = *q      pts(p) ⊇ pts(o) ∀o∈pts(q)  (load)
//	*q = p      pts(o) ⊇ pts(p) ∀o∈pts(q)  (store)
//
// plus parameter/argument and return-value copies for calls, solved
// with a worklist to the least fixed point.
//
// The solver works on a dense constraint graph: every pointer value
// and every abstract object's contents gets an integer node, points-to
// sets are sparse bitmaps (internal/bitvec), and propagation is by
// difference — a node forwards only the objects its set gained since
// its last visit, not the whole set. Copy cycles (which force every
// node on the cycle to the same fixed point) are collapsed online with
// a union-find: periodic Tarjan passes over the copy edges merge
// strongly connected components mid-solve, so a cycle discovered
// through a load or store edge stops costing quadratic re-propagation.
// Final sets are hash-consed, so the many values that end with equal
// points-to sets share one allocation. The fixed point — and therefore
// every PointsTo and Alias answer — is identical to the test-only
// reference solver's (see reference_test.go); only the route there
// differs.
package andersen

import (
	"context"

	"repro/internal/alias"
	"repro/internal/bitvec"
	"repro/internal/budget"
	"repro/internal/ir"
)

// object identifiers are dense indices; object 0 is the universal
// unknown object.
const unknownObj = 0

// Analysis holds the solved points-to sets in resolved form: one
// hash-consed sparse bitmap of object ids per pointer value.
type Analysis struct {
	// pts maps each pointer value to the set of object ids it may
	// point to. Sets are interned: equal sets share one instance and
	// must not be mutated.
	pts map[ir.Value]*bitvec.Set
	// objOf maps allocation sites to their object id.
	objOf map[ir.Value]int
	// objs[i] is the allocation site of object i (nil for unknown).
	objs []ir.Value
	// degraded records budget exhaustion. Andersen's solver grows
	// sets toward the least fixed point, so an interrupted run
	// UNDER-approximates: partial sets must not be trusted. While
	// degraded is set, Alias answers MayAlias and PointsTo reports
	// unknown for every query.
	degraded error
}

// Name returns "CF", the label used in the paper's Figure 10.
func (a *Analysis) Name() string { return "CF" }

// Degraded returns the budget-exhaustion error when the solve was
// interrupted (the error wraps budget.ErrExceeded), or nil when the
// points-to sets reached their fixed point and are fully trustworthy.
func (a *Analysis) Degraded() error { return a.degraded }

// Opts configures a hardened run.
type Opts struct {
	// Budget bounds the whole-module solve.
	Budget budget.Spec
	// Skip lists functions whose bodies must not be traversed (the
	// harness passes functions broken by an upstream stage). Calls to
	// a skipped function are treated like calls to external code:
	// pointer arguments escape to unknown memory and pointer results
	// are unknown — the sound over-approximation of whatever the
	// skipped body would have done.
	Skip map[*ir.Func]bool
}

// Unanalyzed returns a degraded Analysis carrying cause: every Alias
// query answers MayAlias and every PointsTo reports unknown. The
// harness substitutes it when the whole stage fails.
func Unanalyzed(cause error) *Analysis {
	return &Analysis{
		pts:      map[ir.Value]*bitvec.Set{},
		objOf:    map[ir.Value]int{},
		objs:     []ir.Value{nil},
		degraded: cause,
	}
}

// Analyze runs the analysis on a whole module.
func Analyze(m *ir.Module) *Analysis {
	return AnalyzeCtx(context.Background(), m, Opts{})
}

// AnalyzeCtx is Analyze under a context, budget and skip set.
func AnalyzeCtx(ctx context.Context, m *ir.Module, opt Opts) *Analysis {
	a := &Analysis{
		pts:   map[ir.Value]*bitvec.Set{},
		objOf: map[ir.Value]int{},
		objs:  []ir.Value{nil}, // unknown
	}
	s := newSolver(a, nodeHint(m))
	applyConstraints(m, opt, s)
	bgt := opt.Budget.Start(ctx)
	s.run(bgt)
	a.degraded = bgt.Err()
	s.resolve()
	return a
}

// applyConstraints walks the module once and feeds every constraint to
// gen. The traversal (and therefore node numbering and seeding order)
// is deterministic: globals, then functions in module order, then
// instructions in block order.
func applyConstraints(m *ir.Module, opt Opts, gen constraintSink) {
	// Seed address-of constraints.
	for _, g := range m.Globals {
		gen.addPoints(g, gen.newObj(g))
	}
	callers := map[*ir.Func]bool{}
	for _, f := range m.Funcs {
		if opt.Skip[f] {
			continue
		}
		f.Instrs(func(in *ir.Instr) bool {
			switch in.Op {
			case ir.OpAlloca, ir.OpMalloc:
				gen.addPoints(in, gen.newObj(in))
			case ir.OpCall:
				if in.Callee != nil && !opt.Skip[in.Callee] {
					callers[in.Callee] = true
				}
			}
			return true
		})
	}
	// The unknown object's contents point to unknown.
	gen.seedUnknownContents()

	// Structural constraints.
	for _, f := range m.Funcs {
		if opt.Skip[f] {
			continue
		}
		f.Instrs(func(in *ir.Instr) bool {
			switch in.Op {
			case ir.OpGEP:
				// Field-insensitive: derived pointer inherits the
				// base's objects.
				gen.addCopy(in.Args[0], in)
			case ir.OpCopy, ir.OpSigma:
				gen.addCopy(in.Args[0], in)
			case ir.OpPhi:
				for _, v := range in.Args {
					gen.addCopy(v, in)
				}
			case ir.OpLoad:
				if ir.IsPtr(in.Typ) {
					gen.addLoad(in.Args[0], in)
				}
			case ir.OpStore:
				if ir.IsPtr(in.Args[0].Type()) {
					gen.addStore(in.Args[0], in.Args[1])
				}
			case ir.OpCall:
				if in.Callee != nil && !opt.Skip[in.Callee] {
					for i, arg := range in.Args {
						if i < len(in.Callee.Params) && ir.IsPtr(in.Callee.Params[i].Typ) {
							gen.addCopy(arg, in.Callee.Params[i])
						}
					}
					if ir.IsPtr(in.Typ) {
						in.Callee.Instrs(func(r *ir.Instr) bool {
							if r.Op == ir.OpRet && len(r.Args) == 1 {
								gen.addCopy(r.Args[0], in)
							}
							return true
						})
					}
				} else {
					// External (or skipped) call: pointer arguments
					// escape into unknown memory; a pointer result is
					// unknown.
					for _, arg := range in.Args {
						if ir.IsPtr(arg.Type()) {
							gen.addStoreUnknown(arg)
						}
					}
					if ir.IsPtr(in.Typ) {
						gen.addPoints(in, unknownObj)
					}
				}
			}
			return true
		})
	}
	// Parameters of functions with no in-module caller hold unknown
	// pointers.
	for _, f := range m.Funcs {
		if callers[f] || opt.Skip[f] {
			continue
		}
		for _, p := range f.Params {
			if ir.IsPtr(p.Typ) {
				gen.addPoints(p, unknownObj)
			}
		}
	}
}

// constraintSink receives the module's constraints; the sparse solver
// and the test-only reference solver both implement it, which is what
// lets the differential test drive them off one traversal.
type constraintSink interface {
	newObj(site ir.Value) int
	seedUnknownContents()
	addPoints(v ir.Value, obj int)
	addCopy(src, dst ir.Value)
	addLoad(p, dst ir.Value)
	addStore(val, p ir.Value)
	addStoreUnknown(p ir.Value)
}

func isPtrLike(v ir.Value) bool {
	// Null constants typed as pointers carry no objects; they are
	// handled implicitly by empty sets.
	_, isConst := v.(*ir.Const)
	return !isConst
}

// solver is the sparse constraint-graph solver.
type solver struct {
	a *Analysis
	// nodeOf maps a value to its (initial) node id; query time
	// resolves through the union-find.
	nodeOf map[ir.Value]int32
	// vals records node creation order for the final resolve.
	vals []ir.Value
	// memNode[o] is the node holding the contents of object o, created
	// lazily (most objects never have pointers stored into them).
	memNode map[int]int32

	// Per-node state, indexed by node id. Only representatives carry
	// meaningful sets after a collapse.
	parent []int32
	rank   []uint8
	pts    []*bitvec.Set // current points-to set
	delta  []*bitvec.Set // gained objects not yet propagated
	succ   []*bitvec.Set // copy edges out of this node (node ids)
	// loadsTo / storesFrom are the complex constraints: targets of
	// x = *p and sources of *p = x.
	loadsTo    [][]int32
	storesFrom [][]int32
	storeUnk   []bool

	work   []int32
	inWork []bool
	// setChunk backs allocSet's bulk allocation.
	setChunk []bitvec.Set
	// edgesSinceSCC triggers the periodic online collapse pass.
	edgesSinceSCC int
	sccThreshold  int
}

// nodeHint upper-bounds the solver's node count: one node per value
// (instruction results, params, globals) plus one lazy contents node
// per potential object (allocation sites, globals, unknown). Sizing
// the per-node slices and maps once up front keeps the build phase
// out of append-doubling and incremental map rehashes, which dominate
// constraint generation on multi-million-instruction modules.
func nodeHint(m *ir.Module) int {
	n := 2*len(m.Globals) + 2
	for _, f := range m.Funcs {
		for _, p := range f.Params {
			if ir.IsPtr(p.Typ) {
				n++
			}
		}
		f.Instrs(func(in *ir.Instr) bool {
			if in.HasResult() && ir.IsPtr(in.Typ) {
				n++
			}
			if in.Op == ir.OpAlloca || in.Op == ir.OpMalloc {
				n++
			}
			return true
		})
	}
	return n
}

func newSolver(a *Analysis, hint int) *solver {
	return &solver{
		a:          a,
		nodeOf:     make(map[ir.Value]int32, hint),
		memNode:    map[int]int32{},
		parent:     make([]int32, 0, hint),
		rank:       make([]uint8, 0, hint),
		pts:        make([]*bitvec.Set, 0, hint),
		delta:      make([]*bitvec.Set, 0, hint),
		succ:       make([]*bitvec.Set, 0, hint),
		loadsTo:    make([][]int32, 0, hint),
		storesFrom: make([][]int32, 0, hint),
		storeUnk:   make([]bool, 0, hint),
		inWork:     make([]bool, 0, hint),

		sccThreshold: 256,
	}
}

// allocSet hands out zero-value sets from a chunk, two per node:
// individual &bitvec.Set{} allocations are the single largest
// constraint-generation cost at scale. Chunks are only ever re-sliced,
// never regrown, so handed-out pointers stay valid.
func (s *solver) allocSet() *bitvec.Set {
	if len(s.setChunk) == 0 {
		s.setChunk = make([]bitvec.Set, 4096)
	}
	p := &s.setChunk[0]
	s.setChunk = s.setChunk[1:]
	return p
}

func (s *solver) newNode() int32 {
	id := int32(len(s.parent))
	s.parent = append(s.parent, id)
	s.rank = append(s.rank, 0)
	s.pts = append(s.pts, s.allocSet())
	s.delta = append(s.delta, nil)
	s.succ = append(s.succ, s.allocSet())
	s.loadsTo = append(s.loadsTo, nil)
	s.storesFrom = append(s.storesFrom, nil)
	s.storeUnk = append(s.storeUnk, false)
	s.inWork = append(s.inWork, false)
	return id
}

func (s *solver) node(v ir.Value) int32 {
	if n, ok := s.nodeOf[v]; ok {
		return n
	}
	n := s.newNode()
	s.nodeOf[v] = n
	s.vals = append(s.vals, v)
	return n
}

func (s *solver) mem(o int) int32 {
	if n, ok := s.memNode[o]; ok {
		return n
	}
	n := s.newNode()
	s.memNode[o] = n
	return n
}

// find resolves a node to its representative with path halving.
func (s *solver) find(n int32) int32 {
	for s.parent[n] != n {
		s.parent[n] = s.parent[s.parent[n]]
		n = s.parent[n]
	}
	return n
}

// union merges two representatives and returns the surviving one. The
// loser's sets, edges and pending delta fold into the winner.
func (s *solver) union(a, b int32) int32 {
	a, b = s.find(a), s.find(b)
	if a == b {
		return a
	}
	if s.rank[a] < s.rank[b] {
		a, b = b, a
	} else if s.rank[a] == s.rank[b] {
		s.rank[a]++
	}
	s.parent[b] = a
	// Fold b's state into a.
	s.pts[a].UnionWith(s.pts[b])
	s.succ[a].UnionWith(s.succ[b])
	s.loadsTo[a] = append(s.loadsTo[a], s.loadsTo[b]...)
	s.storesFrom[a] = append(s.storesFrom[a], s.storesFrom[b]...)
	s.storeUnk[a] = s.storeUnk[a] || s.storeUnk[b]
	s.pts[b], s.delta[b], s.succ[b] = nil, nil, nil
	s.loadsTo[b], s.storesFrom[b] = nil, nil
	// Each side's edges and complex constraints have only seen that
	// side's objects, so the merged node must re-propagate its whole
	// set; everything downstream deduplicates, so this is idempotent.
	s.requeueAll(a)
	return a
}

func (s *solver) enqueue(n int32) {
	if !s.inWork[n] {
		s.inWork[n] = true
		s.work = append(s.work, n)
	}
}

// queueDelta registers d (already folded into pts[n]) for propagation.
func (s *solver) queueDelta(n int32, d *bitvec.Set) {
	if d == nil || d.Empty() {
		return
	}
	if s.delta[n] == nil {
		s.delta[n] = d.Clone()
	} else {
		s.delta[n].UnionWith(d)
	}
	s.enqueue(n)
}

// --- constraintSink ---

func (s *solver) newObj(site ir.Value) int {
	id := len(s.a.objs)
	s.a.objs = append(s.a.objs, site)
	s.a.objOf[site] = id
	return id
}

func (s *solver) seedUnknownContents() {
	s.addObj(s.mem(unknownObj), unknownObj)
}

func (s *solver) addPoints(v ir.Value, obj int) {
	s.addObj(s.node(v), obj)
}

func (s *solver) addObj(n int32, obj int) {
	n = s.find(n)
	if s.pts[n].Add(obj) {
		d := &bitvec.Set{}
		d.Add(obj)
		s.queueDelta(n, d)
	}
}

func (s *solver) addCopy(src, dst ir.Value) {
	if !ir.IsPtr(src.Type()) && !isPtrLike(src) {
		return
	}
	s.addEdge(s.node(src), s.node(dst))
}

// addEdge inserts the copy edge u→v and pushes u's current set across
// it.
func (s *solver) addEdge(u, v int32) {
	u, v = s.find(u), s.find(v)
	if u == v {
		return
	}
	if !s.succ[u].Add(int(v)) {
		return
	}
	s.edgesSinceSCC++
	if d := s.pts[v].UnionDelta(s.pts[u]); d != nil {
		s.queueDelta(v, d)
	}
}

func (s *solver) addLoad(p, dst ir.Value) {
	pn, dn := s.find(s.node(p)), s.node(dst)
	s.loadsTo[pn] = append(s.loadsTo[pn], dn)
	// Objects already in pts(p) must be wired now; re-queue the full
	// set as delta so run() adds the contents edges.
	s.requeueAll(pn)
}

func (s *solver) addStore(val, p ir.Value) {
	pn, vn := s.find(s.node(p)), s.node(val)
	s.storesFrom[pn] = append(s.storesFrom[pn], vn)
	s.requeueAll(pn)
}

func (s *solver) addStoreUnknown(p ir.Value) {
	pn := s.find(s.node(p))
	s.storeUnk[pn] = true
	s.requeueAll(pn)
}

// requeueAll marks n's whole current set as unpropagated, so a newly
// attached complex constraint sees every object already present.
func (s *solver) requeueAll(n int32) {
	n = s.find(n)
	if !s.pts[n].Empty() {
		s.queueDelta(n, s.pts[n])
	} else {
		s.enqueue(n)
	}
}

// run drains the worklist to the least fixed point, collapsing copy
// cycles as they appear.
func (s *solver) run(bgt *budget.B) {
	for len(s.work) > 0 {
		if bgt.Tick() != nil {
			// Interrupted before the least fixed point: the partial
			// sets under-approximate and must not answer queries. The
			// caller records bgt.Err() as Analysis.degraded.
			return
		}
		if s.edgesSinceSCC >= s.sccThreshold {
			s.collapseCycles()
			s.edgesSinceSCC = 0
			// Back off geometrically, with a floor proportional to the
			// graph, so huge modules are not dominated by repeated
			// full-graph SCC passes: each pass costs O(nodes+edges), so
			// it must not recur until a comparable amount of new edges
			// could have formed new cycles.
			s.sccThreshold *= 2
			if min := len(s.parent) / 4; s.sccThreshold < min {
				s.sccThreshold = min
			}
			continue
		}
		n := s.work[0]
		s.work = s.work[1:]
		s.inWork[n] = false
		if s.parent[n] != n {
			// Collapsed into another node; its delta moved there.
			continue
		}
		d := s.delta[n]
		s.delta[n] = nil
		if d == nil || d.Empty() {
			continue
		}
		// Complex constraints over the gained objects.
		if loads := s.loadsTo[n]; len(loads) > 0 {
			d.ForEach(func(o int) bool {
				mn := s.mem(o)
				for _, dst := range loads {
					s.addEdge(mn, dst)
				}
				return true
			})
		}
		if stores := s.storesFrom[n]; len(stores) > 0 {
			d.ForEach(func(o int) bool {
				mn := s.mem(o)
				for _, val := range stores {
					s.addEdge(val, mn)
				}
				return true
			})
		}
		if s.storeUnk[n] {
			d.ForEach(func(o int) bool {
				s.addObj(s.mem(o), unknownObj)
				return true
			})
		}
		// Difference propagation along copy edges: forward only the
		// gained objects.
		s.succ[n].ForEach(func(m int) bool {
			mr := s.find(int32(m))
			if mr == n {
				return true
			}
			if nd := s.pts[mr].UnionDelta(d); nd != nil {
				s.queueDelta(mr, nd)
			}
			return true
		})
	}
}

// collapseCycles runs Tarjan's SCC algorithm over the copy edges of
// the current representatives and unions every non-trivial component:
// all nodes on a copy cycle share one fixed point, so solving them as
// one node removes the cycle's re-propagation cost. Components are
// collected first and unioned only after the DFS completes — merging
// mid-DFS would invalidate Tarjan's on-stack bookkeeping. Safe
// mid-solve because union() re-queues anything that still needs
// forwarding.
func (s *solver) collapseCycles() {
	var components [][]int32
	n := int32(len(s.parent))
	index := make([]int32, n) // 0 = unvisited; else order+1
	lowlink := make([]int32, n)
	onStack := make([]bool, n)
	var stack []int32
	var order int32

	// Iterative Tarjan: frame carries the node and its progress
	// through the successor list.
	type frame struct {
		v     int32
		succs []int32
		i     int
	}
	succsOf := func(v int32) []int32 {
		var out []int32
		s.succ[v].ForEach(func(m int) bool {
			mr := s.find(int32(m))
			if mr != v {
				out = append(out, mr)
			}
			return true
		})
		return out
	}
	var frames []frame
	for root := int32(0); root < n; root++ {
		if s.parent[root] != root || index[root] != 0 {
			continue
		}
		frames = append(frames[:0], frame{v: root, succs: succsOf(root)})
		order++
		index[root], lowlink[root] = order, order
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.i < len(f.succs) {
				w := f.succs[f.i]
				f.i++
				if index[w] == 0 {
					order++
					index[w], lowlink[w] = order, order
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, succs: succsOf(w)})
				} else if onStack[w] && index[w] < lowlink[f.v] {
					lowlink[f.v] = index[w]
				}
				continue
			}
			// f.v done: pop component if root.
			if lowlink[f.v] == index[f.v] {
				var comp []int32
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == f.v {
						break
					}
				}
				if len(comp) > 1 {
					components = append(components, comp)
				}
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := &frames[len(frames)-1]
				if lowlink[v] < lowlink[p.v] {
					lowlink[p.v] = lowlink[v]
				}
			}
		}
	}
	for _, comp := range components {
		rep := comp[0]
		for _, w := range comp[1:] {
			rep = s.union(rep, w)
		}
	}
}

// resolve snapshots the solved graph into Analysis.pts, hash-consing
// the final sets so equal points-to sets share one allocation.
func (s *solver) resolve() {
	in := bitvec.NewInterner()
	empty := in.Intern(&bitvec.Set{})
	cache := map[int32]*bitvec.Set{}
	for _, v := range s.vals {
		rep := s.find(s.nodeOf[v])
		set, ok := cache[rep]
		if !ok {
			if s.pts[rep].Empty() {
				set = empty
			} else {
				set = in.Intern(s.pts[rep])
			}
			cache[rep] = set
		}
		if set != empty {
			s.a.pts[v] = set
		}
	}
}

// PointsTo returns the allocation sites v may point to; a nil slice
// with unknown=true means the set includes unanalyzable memory.
func (a *Analysis) PointsTo(v ir.Value) (sites []ir.Value, unknown bool) {
	if a.degraded != nil {
		return nil, true
	}
	set := a.pts[v]
	if set == nil {
		return nil, false
	}
	set.ForEach(func(o int) bool {
		if o == unknownObj {
			unknown = true
		} else {
			sites = append(sites, a.objs[o])
		}
		return true
	})
	return sites, unknown
}

// Alias answers a query from disjointness of points-to sets: two
// pointers with non-empty, disjoint, fully known sets cannot alias.
func (a *Analysis) Alias(la, lb alias.Location) alias.Result {
	return pair(a.knownSet(la.Ptr), a.knownSet(lb.Ptr))
}

// knownSet is the per-pointer half of Alias: v's points-to set when it
// is non-empty and fully known, nil otherwise.
func (a *Analysis) knownSet(v ir.Value) *bitvec.Set {
	if a.degraded != nil {
		return nil
	}
	s := a.pts[v]
	if s == nil || s.Empty() || s.Has(unknownObj) {
		return nil
	}
	return s
}

func pair(x, y *bitvec.Set) alias.Result {
	if x == nil || y == nil || x.Intersects(y) {
		return alias.MayAlias
	}
	return alias.NoAlias
}

// NewPrepared implements alias.FuncPreparer: each pointer's set is
// looked up once per function.
func (a *Analysis) NewPrepared() alias.Prepared { return &prepared{a: a} }

type prepared struct {
	a    *Analysis
	sets []*bitvec.Set
}

func (p *prepared) Prepare(_ *ir.Func, ptrs []alias.Pointer) {
	p.sets = p.sets[:0]
	for i := range ptrs {
		p.sets = append(p.sets, p.a.knownSet(ptrs[i].Loc.Ptr))
	}
}

func (p *prepared) Pair(i, j int) alias.Result { return pair(p.sets[i], p.sets[j]) }
