package core

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/corpus"
	"repro/internal/minic"
)

// subsetOf reports next ⊆ prev, with nil as top (V).
func subsetOf(next, prev *bitvec.Set) bool {
	if prev == nil {
		return true
	}
	if next == nil {
		return false
	}
	for _, e := range next.Elems() {
		if !prev.Has(e) {
			return false
		}
	}
	return true
}

// elemsOrTop renders a solver set for failure messages.
func elemsOrTop(s *bitvec.Set) any {
	if s == nil {
		return "top"
	}
	return s.Elems()
}

// TestLemma36Monotone instruments the solver and checks, on the whole
// SPEC corpus, that every worklist update shrinks (or leaves) the set
// it touches — Lemma 3.6, the heart of the termination proof
// (Theorem 3.7). Any constraint whose right-hand side could grow a
// set would surface here immediately.
func TestLemma36Monotone(t *testing.T) {
	updates := 0
	violations := 0
	solverHook = func(target int, prev, next *bitvec.Set) {
		updates++
		if !subsetOf(next, prev) {
			violations++
			if violations < 5 {
				t.Errorf("update %d grew set %d: %v -> %v",
					updates, target, elemsOrTop(prev), elemsOrTop(next))
			}
		}
	}
	defer func() { solverHook = nil }()

	for _, p := range corpus.Spec()[:8] {
		m := minic.MustCompile(p.Name, p.Source)
		Prepare(m, PipelineOptions{})
	}
	if updates == 0 {
		t.Fatal("solver hook never fired")
	}
	if violations > 0 {
		t.Fatalf("%d of %d updates violated Lemma 3.6", violations, updates)
	}
	t.Logf("verified %d solver updates are monotonically decreasing", updates)
}
