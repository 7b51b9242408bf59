package core_test

import (
	"slices"
	"testing"

	"repro/internal/alias"
	"repro/internal/core"
	"repro/internal/ir"
)

// oneMemo holds the first artifact stored and answers every lookup
// with it.
type oneMemo struct{ art *core.FuncArtifact }

func (m *oneMemo) Lookup(string) (*core.FuncArtifact, bool) { return m.art, m.art != nil }

func (m *oneMemo) Store(_ string, a *core.FuncArtifact) {
	if m.art == nil {
		m.art = a
	}
}

// TestBindFuncSelfMemberThroughSRAA: an artifact served through
// Options.Memo that puts %x into LT(%x) must not rebind. If it did,
// LessThan(%x, %x) would hold and SRAA's criterion 2 would answer
// NoAlias for two geps of %p by the same %x, which are one address.
func TestBindFuncSelfMemberThroughSRAA(t *testing.T) {
	const src = `
func @f(i64* %p, i64 %x) i64 {
entry:
  %q1 = gep %p, %x
  %q2 = gep %p, %x
  %v = load %q1
  store %v, %q2
  ret %v
}
`
	memo := &oneMemo{}
	opt := core.Options{Memo: memo, MemoKey: func(*ir.Func) string { return "f" }}
	query := func() alias.Result {
		m := ir.MustParse(src)
		sraa := alias.NewSRAA(core.Analyze(m, nil, opt))
		in := m.Funcs[0].Entry().Instrs
		return sraa.Alias(alias.Loc(in[0]), alias.Loc(in[1]))
	}
	if got := query(); got != alias.MayAlias {
		t.Fatalf("solved: gep %%p, %%x vs gep %%p, %%x = %s, want MayAlias", got)
	}
	if memo.art == nil || memo.art.Vars[1] != "%x" {
		t.Fatalf("stored artifact %+v, want %%x as variable 1", memo.art)
	}
	bad := &core.FuncArtifact{Vars: memo.art.Vars, Sets: slices.Clone(memo.art.Sets), Stats: memo.art.Stats}
	at, _ := slices.BinarySearch(bad.Sets[1], 1)
	bad.Sets[1] = slices.Insert(slices.Clone(bad.Sets[1]), at, 1)
	memo.art = bad
	if got := query(); got != alias.MayAlias {
		t.Fatalf("rebound from an artifact with %%x in LT(%%x): %s, want MayAlias", got)
	}
}
