package core

import (
	"fmt"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/ir"
)

// Memoization of per-function results. The less-than solve is a pure
// function of one function's e-SSA body, the intervals of its values,
// the analysis options, and (in inter-procedural mode) the parameter
// seed pairs — nothing else. Callers that can fingerprint those
// inputs (internal/harness hashes the canonical IR text plus the
// range environment) plug a Memo into Options and repeated solves of
// identical functions become table lookups. The artifact format is
// positional — variable index i of the artifact is variable index i
// of a fresh analysis of the same function text — so rebinding onto a
// different (but textually identical) ir.Func instance is exact.

// Memo is a store of per-function analysis artifacts keyed by an
// opaque content hash. Implementations must be safe for concurrent
// use when Options.Workers > 1 (per-function solves run on a worker
// pool and look up / store artifacts concurrently).
type Memo interface {
	// Lookup returns the artifact stored under key, if any.
	Lookup(key string) (*FuncArtifact, bool)
	// Store records the artifact of a completed (non-degraded)
	// per-function solve under key.
	Store(key string, a *FuncArtifact)
}

// FuncStats is the per-function slice of Stats, preserved in
// artifacts so a memoized run reports byte-identical solver
// statistics to a recomputation.
type FuncStats struct {
	Instrs      int
	Vars        int
	Constraints int
	Pops        int
	SetSizes    map[int]int
}

// FuncArtifact is the portable form of one function's solved LT
// result: variable references in index order and, per variable, the
// ascending member indices of its LT set. It contains no ir.Value
// pointers, so it may outlive the module it was computed from and be
// rebound onto any function with the same canonical text.
type FuncArtifact struct {
	Vars  []string
	Sets  [][]int32
	Stats FuncStats
}

// exportFunc converts a solved per-function result into its portable
// artifact. Results holding a residual top set are not exportable
// (solve clears tops, so this is defensive) and yield nil.
func exportFunc(fr *funcResult, st Stats) *FuncArtifact {
	a := &FuncArtifact{
		Vars: make([]string, len(fr.vars)),
		Sets: make([][]int32, len(fr.sets)),
	}
	for i, v := range fr.vars {
		a.Vars[i] = v.Ref()
	}
	for i, s := range fr.sets {
		if s == nil {
			return nil
		}
		idxs := s.Elems()
		out := make([]int32, len(idxs))
		for k, e := range idxs {
			out[k] = int32(e)
		}
		a.Sets[i] = out
	}
	a.Stats = FuncStats{
		Instrs:      st.Instrs,
		Vars:        st.Vars,
		Constraints: st.Constraints,
		Pops:        st.Pops,
		SetSizes:    cloneSizes(st.SetSizes),
	}
	return a
}

// bindFunc rehydrates an artifact onto f, which must have the same
// canonical text as the function the artifact was exported from. The
// variables are numbered by enumerate, as the solve numbers them
// (params, then instruction results in block order), and every
// reference is verified positionally; any mismatch reports ok=false
// and the caller recomputes. Every set must list its members in
// ascending order, in range, and never its own variable: the solve
// strips x from LT(x), and a self member would make LessThan(x, x)
// true, which SRAA turns into an unsound NoAlias.
//
// A rebind has to cost less than the solve it replaces, so it compares
// names without building Ref strings, builds each set from its sorted
// members in one pass, shares one empty set, and hands back the
// artifact's set-size histogram rather than a copy: the caller only
// reads it, and artifacts are never mutated.
func bindFunc(f *ir.Func, art *FuncArtifact) (*funcResult, Stats, bool) {
	n := len(art.Vars)
	if len(art.Sets) != n {
		return nil, Stats{}, false
	}
	fr, instrs := enumerate(f, n)
	if len(fr.vars) != n || art.Stats.Instrs != instrs || art.Stats.Vars != n {
		return nil, Stats{}, false
	}
	for i, v := range fr.vars {
		// Every variable is a parameter or an instruction result, so
		// its Ref is "%" + Name.
		ref := art.Vars[i]
		if len(ref) == 0 || ref[0] != '%' || ref[1:] != v.Name() {
			return nil, Stats{}, false
		}
	}
	fr.sets = make([]*bitvec.Set, n)
	for i, idxs := range art.Sets {
		if len(idxs) == 0 {
			fr.sets[i] = emptySet
			continue
		}
		s, ok := bitvec.FromSorted(idxs)
		if !ok || int(idxs[len(idxs)-1]) >= n || s.Has(i) {
			return nil, Stats{}, false
		}
		fr.sets[i] = s
	}
	st := Stats{
		Instrs:      art.Stats.Instrs,
		Vars:        art.Stats.Vars,
		Constraints: art.Stats.Constraints,
		Pops:        art.Stats.Pops,
		SetSizes:    art.Stats.SetSizes,
	}
	return fr, st, true
}

// emptySet is the one LT set every rebind shares for variables with no
// proven lesser variable. Stored LT sets are never mutated.
var emptySet = &bitvec.Set{}

func cloneSizes(h map[int]int) map[int]int {
	out := make(map[int]int, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

// seedSuffix canonicalizes inter-procedural parameter seeds into a
// stable key fragment, so memo keys are insensitive to the map
// iteration order the seeds were collected in.
func seedSuffix(seeds [][2]int) string {
	if len(seeds) == 0 {
		return ""
	}
	sorted := append([][2]int(nil), seeds...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i][0] != sorted[j][0] {
			return sorted[i][0] < sorted[j][0]
		}
		return sorted[i][1] < sorted[j][1]
	})
	out := "|seeds:"
	for _, s := range sorted {
		out += fmt.Sprintf("%d<%d;", s[0], s[1])
	}
	return out
}
