package core

import (
	"slices"
	"testing"

	"repro/internal/ir"
)

// TestBindFuncRejectsCorruptArtifacts: a rebind verifies every input it
// trusts, so each corruption below reports ok=false and the caller
// re-solves, while the intact artifact rebinds to the solved sets.
func TestBindFuncRejectsCorruptArtifacts(t *testing.T) {
	m, err := ir.Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Funcs[0]
	fr, st := analyzeFunc(f, nil, Options{})
	st.SetSizes = sizesOf(fr)
	art := exportFunc(fr, st)
	if art == nil {
		t.Fatal("solved result not exportable")
	}
	// A member to corrupt: the last set with one.
	k := len(art.Sets) - 1
	for len(art.Sets[k]) == 0 {
		k--
	}

	got, _, ok := bindFunc(f, art)
	if !ok {
		t.Fatal("intact artifact rejected")
	}
	for i, s := range got.sets {
		if !s.Equal(fr.sets[i]) {
			t.Fatalf("LT(%s) rebinds to %v, solved %v", fr.vars[i].Ref(), s.Elems(), fr.sets[i].Elems())
		}
	}

	clone := func() *FuncArtifact {
		c := &FuncArtifact{Vars: slices.Clone(art.Vars), Stats: art.Stats}
		for _, s := range art.Sets {
			c.Sets = append(c.Sets, slices.Clone(s))
		}
		return c
	}
	for _, tc := range []struct {
		name    string
		corrupt func(a *FuncArtifact)
	}{
		{"wrong variable name", func(a *FuncArtifact) { a.Vars[1] = "%zz" }},
		{"name prefix only", func(a *FuncArtifact) { a.Vars[1] = a.Vars[1][:len(a.Vars[1])-1] }},
		{"name without %", func(a *FuncArtifact) { a.Vars[0] = a.Vars[0][1:] }},
		{"global sigil", func(a *FuncArtifact) { a.Vars[0] = "@" + a.Vars[0][1:] }},
		{"empty name", func(a *FuncArtifact) { a.Vars[2] = "" }},
		{"one variable short", func(a *FuncArtifact) { a.Vars, a.Sets = a.Vars[1:], a.Sets[1:] }},
		{"sets short of vars", func(a *FuncArtifact) { a.Sets = a.Sets[1:] }},
		{"instruction count", func(a *FuncArtifact) { a.Stats.Instrs++ }},
		{"variable count", func(a *FuncArtifact) { a.Stats.Vars-- }},
		{"member out of range", func(a *FuncArtifact) { a.Sets[k] = append(a.Sets[k], int32(len(a.Vars))) }},
		{"negative member", func(a *FuncArtifact) { a.Sets[k] = append([]int32{-1}, a.Sets[k]...) }},
		{"members descending", func(a *FuncArtifact) { a.Sets[k] = []int32{a.Sets[k][0] + 1, a.Sets[k][0]} }},
		{"member repeated", func(a *FuncArtifact) { a.Sets[k] = append(a.Sets[k], a.Sets[k][len(a.Sets[k])-1]) }},
	} {
		a := clone()
		tc.corrupt(a)
		if _, _, ok := bindFunc(f, a); ok {
			t.Errorf("%s: corrupt artifact bound", tc.name)
		}
	}
}
