// The reference solver: the original map-based worklist implementation
// of the same constraint system. It computes the identical least fixed
// point as the sparse solver in andersen.go but without dense nodes,
// difference propagation, or cycle collapsing. It is test-only: the
// differential oracle the sparse solver is checked against, and the
// baseline BenchmarkSolvers measures it relative to.
package andersen

import (
	"context"

	"repro/internal/bitvec"
	"repro/internal/budget"
	"repro/internal/ir"
)

// AnalyzeReference runs the reference solver on a whole module.
func AnalyzeReference(m *ir.Module) *Analysis {
	return AnalyzeReferenceCtx(context.Background(), m, Opts{})
}

// AnalyzeReferenceCtx is AnalyzeReference under a context, budget and
// skip set. The returned Analysis answers every PointsTo and Alias
// query identically to AnalyzeCtx on the same inputs.
func AnalyzeReferenceCtx(ctx context.Context, m *ir.Module, opt Opts) *Analysis {
	a := &Analysis{
		pts:   map[ir.Value]*bitvec.Set{},
		objOf: map[ir.Value]int{},
		objs:  []ir.Value{nil}, // unknown
	}
	s := &refSolver{
		a:      a,
		pts:    map[ir.Value]map[int]bool{},
		copies: map[ir.Value][]ir.Value{},
		objMem: map[int]*refMemNode{},
	}
	applyConstraints(m, opt, s)
	bgt := opt.Budget.Start(ctx)
	s.run(bgt)
	a.degraded = bgt.Err()
	s.resolve()
	return a
}

// refMemNode tracks the points-to set of an abstract object's contents.
type refMemNode struct {
	pts map[int]bool
	// outs are value nodes that load from this object.
	outs   []ir.Value
	outSet map[ir.Value]bool
}

func (n *refMemNode) addOut(dst ir.Value) bool {
	if n.outSet == nil {
		n.outSet = map[ir.Value]bool{}
	}
	if n.outSet[dst] {
		return false
	}
	n.outSet[dst] = true
	n.outs = append(n.outs, dst)
	return true
}

func (n *refMemNode) addObj(o int, s *refSolver) bool {
	if n.pts == nil {
		n.pts = map[int]bool{}
	}
	if n.pts[o] {
		return false
	}
	n.pts[o] = true
	for _, dst := range n.outs {
		s.propagate(dst, o)
	}
	return true
}

type refSolver struct {
	a *Analysis
	// pts holds the in-flight sets; resolve() converts them to the
	// Analysis's bitmap form.
	pts    map[ir.Value]map[int]bool
	copies map[ir.Value][]ir.Value // src -> dsts
	// loads[p] lists destinations of x = *p.
	loads map[ir.Value][]ir.Value
	// stores[p] lists sources of *p = x.
	stores map[ir.Value][]ir.Value
	// storeUnknownSet marks pointers whose contents escape entirely.
	storeUnknownSet map[ir.Value]bool
	// memStores links stored values to the memory nodes they flow
	// into, so later points-to growth keeps propagating.
	memStores map[ir.Value][]*refMemNode
	objMem    map[int]*refMemNode

	work []ir.Value
	in   map[ir.Value]bool
}

func (s *refSolver) ptsOf(v ir.Value) map[int]bool {
	m := s.pts[v]
	if m == nil {
		m = map[int]bool{}
		s.pts[v] = m
	}
	return m
}

func (s *refSolver) enqueue(v ir.Value) {
	if s.in == nil {
		s.in = map[ir.Value]bool{}
	}
	if !s.in[v] {
		s.in[v] = true
		s.work = append(s.work, v)
	}
}

func (s *refSolver) memOf(o int) *refMemNode {
	if n, ok := s.objMem[o]; ok {
		return n
	}
	n := &refMemNode{}
	s.objMem[o] = n
	return n
}

// --- constraintSink ---

func (s *refSolver) newObj(site ir.Value) int {
	id := len(s.a.objs)
	s.a.objs = append(s.a.objs, site)
	s.a.objOf[site] = id
	return id
}

func (s *refSolver) seedUnknownContents() {
	s.memOf(unknownObj).addObj(unknownObj, s)
}

func (s *refSolver) addPoints(v ir.Value, obj int) {
	if !s.ptsOf(v)[obj] {
		s.ptsOf(v)[obj] = true
		s.enqueue(v)
	}
}

func (s *refSolver) propagate(dst ir.Value, obj int) {
	if !s.ptsOf(dst)[obj] {
		s.ptsOf(dst)[obj] = true
		s.enqueue(dst)
	}
}

func (s *refSolver) addCopy(src, dst ir.Value) {
	if !ir.IsPtr(src.Type()) && !isPtrLike(src) {
		return
	}
	s.copies[src] = append(s.copies[src], dst)
	for o := range s.ptsOf(src) {
		s.propagate(dst, o)
	}
}

func (s *refSolver) addLoad(p, dst ir.Value) {
	if s.loads == nil {
		s.loads = map[ir.Value][]ir.Value{}
	}
	s.loads[p] = append(s.loads[p], dst)
	s.enqueue(p)
}

func (s *refSolver) addStore(val, p ir.Value) {
	if s.stores == nil {
		s.stores = map[ir.Value][]ir.Value{}
	}
	s.stores[p] = append(s.stores[p], val)
	s.enqueue(p)
}

func (s *refSolver) addStoreUnknown(p ir.Value) {
	if s.storeUnknownSet == nil {
		s.storeUnknownSet = map[ir.Value]bool{}
	}
	s.storeUnknownSet[p] = true
	s.enqueue(p)
}

func (s *refSolver) run(bgt *budget.B) {
	for len(s.work) > 0 {
		if bgt.Tick() != nil {
			// Interrupted before the least fixed point: the partial
			// sets under-approximate and must not answer queries. The
			// caller records bgt.Err() as Analysis.degraded.
			return
		}
		v := s.work[0]
		s.work = s.work[1:]
		s.in[v] = false
		vp := s.ptsOf(v)
		// Copy edges.
		for _, dst := range s.copies[v] {
			for o := range vp {
				s.propagate(dst, o)
			}
		}
		// Load edges: dst ⊇ contents(o) for each pointee o.
		for _, dst := range s.loads[v] {
			for o := range vp {
				n := s.memOf(o)
				n.addOut(dst)
				for po := range n.pts {
					s.propagate(dst, po)
				}
			}
		}
		// Store edges: contents(o) ⊇ pts(val), now and as pts(val)
		// grows later (via memStores).
		for _, val := range s.stores[v] {
			for o := range vp {
				n := s.memOf(o)
				s.linkValToMem(val, n)
				for po := range s.ptsOf(val) {
					n.addObj(po, s)
				}
			}
		}
		if s.storeUnknownSet[v] {
			for o := range vp {
				s.memOf(o).addObj(unknownObj, s)
			}
		}
		// If v is itself the source of earlier store links, push its
		// full set into the linked memory nodes.
		for _, n := range s.memStores[v] {
			for o := range vp {
				n.addObj(o, s)
			}
		}
	}
}

// linkValToMem records that every object in pts(val) must flow into
// memory node n, including objects discovered later.
func (s *refSolver) linkValToMem(val ir.Value, n *refMemNode) {
	if s.memStores == nil {
		s.memStores = map[ir.Value][]*refMemNode{}
	}
	for _, existing := range s.memStores[val] {
		if existing == n {
			return
		}
	}
	s.memStores[val] = append(s.memStores[val], n)
}

// resolve converts the map-based sets into the Analysis's interned
// bitmap form.
func (s *refSolver) resolve() {
	in := bitvec.NewInterner()
	for v, m := range s.pts {
		if len(m) == 0 {
			continue
		}
		set := &bitvec.Set{}
		for o := range m {
			set.Add(o)
		}
		s.a.pts[v] = in.Intern(set)
	}
}
