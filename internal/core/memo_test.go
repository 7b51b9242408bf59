package core

import (
	"encoding/json"
	"maps"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/ir"
	"repro/internal/minic"
)

// corruptions are the damaged artifacts a rebind must reject. Each
// edits a copy of an intact artifact; k is a variable whose LT set has
// a member.
var corruptions = []struct {
	name    string
	corrupt func(a *FuncArtifact, k int)
}{
	{"wrong variable name", func(a *FuncArtifact, k int) { a.Vars[1] = "%zz" }},
	{"name prefix only", func(a *FuncArtifact, k int) { a.Vars[1] = a.Vars[1][:len(a.Vars[1])-1] }},
	{"name without %", func(a *FuncArtifact, k int) { a.Vars[0] = a.Vars[0][1:] }},
	{"global sigil", func(a *FuncArtifact, k int) { a.Vars[0] = "@" + a.Vars[0][1:] }},
	{"empty name", func(a *FuncArtifact, k int) { a.Vars[2] = "" }},
	{"one variable short", func(a *FuncArtifact, k int) { a.Vars, a.Sets = a.Vars[1:], a.Sets[1:] }},
	{"sets short of vars", func(a *FuncArtifact, k int) { a.Sets = a.Sets[1:] }},
	{"instruction count", func(a *FuncArtifact, k int) { a.Stats.Instrs++ }},
	{"variable count", func(a *FuncArtifact, k int) { a.Stats.Vars-- }},
	{"member out of range", func(a *FuncArtifact, k int) { a.Sets[k] = append(a.Sets[k], int32(len(a.Vars))) }},
	{"negative member", func(a *FuncArtifact, k int) { a.Sets[k] = append([]int32{-1}, a.Sets[k]...) }},
	{"members descending", func(a *FuncArtifact, k int) { a.Sets[k] = []int32{a.Sets[k][0] + 1, a.Sets[k][0]} }},
	{"member repeated", func(a *FuncArtifact, k int) { a.Sets[k] = append(a.Sets[k], a.Sets[k][len(a.Sets[k])-1]) }},
	{"self member", func(a *FuncArtifact, k int) {
		at, _ := slices.BinarySearch(a.Sets[k], int32(k))
		a.Sets[k] = slices.Insert(a.Sets[k], at, int32(k))
	}},
}

// solvedArtifact solves f and exports the result, with the index of
// the last variable whose LT set has a member.
func solvedArtifact(t testing.TB, f *ir.Func) (*funcResult, *FuncArtifact, int) {
	t.Helper()
	fr, st := analyzeFunc(f, nil, Options{})
	st.SetSizes = sizesOf(fr)
	art := exportFunc(fr, st)
	if art == nil {
		t.Fatal("solved result not exportable")
	}
	k := len(art.Sets) - 1
	for k >= 0 && len(art.Sets[k]) == 0 {
		k--
	}
	if k < 0 {
		t.Fatalf("@%s: no LT set has a member", f.FName)
	}
	return fr, art, k
}

func cloneArtifact(a *FuncArtifact) *FuncArtifact {
	c := &FuncArtifact{Vars: slices.Clone(a.Vars), Stats: a.Stats}
	for _, s := range a.Sets {
		c.Sets = append(c.Sets, slices.Clone(s))
	}
	return c
}

// TestBindFuncRejectsCorruptArtifacts: a rebind verifies every input it
// trusts, so each corruption below reports ok=false and the caller
// re-solves, while the intact artifact rebinds to the solved sets.
func TestBindFuncRejectsCorruptArtifacts(t *testing.T) {
	m, err := ir.Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	f := m.Funcs[0]
	fr, art, k := solvedArtifact(t, f)

	got, _, ok := bindFunc(f, art)
	if !ok {
		t.Fatal("intact artifact rejected")
	}
	for i, s := range got.sets {
		if !s.Equal(fr.sets[i]) {
			t.Fatalf("LT(%s) rebinds to %v, solved %v", fr.vars[i].Ref(), s.Elems(), fr.sets[i].Elems())
		}
	}
	for _, tc := range corruptions {
		a := cloneArtifact(art)
		tc.corrupt(a, k)
		if _, _, ok := bindFunc(f, a); ok {
			t.Errorf("%s: corrupt artifact bound", tc.name)
		}
	}
}

// bindTargets are the functions FuzzBindFunc binds onto: the paper's
// Figure 6 and the largest function of the first corpus program in
// e-SSA form.
func bindTargets(t testing.TB) []*ir.Func {
	t.Helper()
	m, err := ir.Parse(fig6)
	if err != nil {
		t.Fatal(err)
	}
	p := corpus.Spec()[0]
	cm, err := minic.Compile(p.Name, p.Source)
	if err != nil {
		t.Fatal(err)
	}
	Prepare(cm, PipelineOptions{})
	big := cm.Funcs[0]
	for _, g := range cm.Funcs {
		if g.NumInstrs() > big.NumInstrs() {
			big = g
		}
	}
	return []*ir.Func{m.Funcs[0], big}
}

// FuzzBindFunc feeds rebinds artifacts decoded from fuzzed JSON, the
// form artifacts take on disk and on the wire, onto each target. A
// rebind must never panic, and an artifact it accepts must describe
// sound LT sets: every member in range, ascending and never the set's
// own variable. Exporting the bound result must give the artifact back.
// Seeds in testdata/fuzz/FuzzBindFunc are both targets' intact
// artifacts and each of corruptions applied to them.
func FuzzBindFunc(f *testing.F) {
	targets := bindTargets(f)
	for i, fn := range targets {
		_, art, _ := solvedArtifact(f, fn)
		data, err := json.Marshal(art)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), data)
	}
	f.Fuzz(func(t *testing.T, target uint8, data []byte) {
		var art FuncArtifact
		if json.Unmarshal(data, &art) != nil {
			return
		}
		fn := targets[int(target)%len(targets)]
		fr, st, ok := bindFunc(fn, &art)
		if !ok {
			return
		}
		for i, idxs := range art.Sets {
			for k, e := range idxs {
				if e < 0 || int(e) >= len(art.Vars) || int(e) == i || (k > 0 && e <= idxs[k-1]) {
					t.Fatalf("accepted LT set %d = %v of %d variables", i, idxs, len(art.Vars))
				}
			}
		}
		again := exportFunc(fr, st)
		if again == nil || !slices.Equal(again.Vars, art.Vars) || again.Stats.Instrs != art.Stats.Instrs ||
			again.Stats.Vars != art.Stats.Vars || again.Stats.Constraints != art.Stats.Constraints ||
			again.Stats.Pops != art.Stats.Pops || !maps.Equal(again.Stats.SetSizes, art.Stats.SetSizes) ||
			!slices.EqualFunc(again.Sets, art.Sets, slices.Equal[[]int32]) {
			t.Fatalf("accepted artifact does not round-trip:\n got %+v\nwant %+v", again, art)
		}
	})
}
