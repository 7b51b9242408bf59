package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/ir"
	"repro/internal/minic"
	"repro/internal/rangeanal"
	"repro/internal/synth"
)

// pinProgram is a fixed input covering every section of the key:
// canonical text, a referenced global, integer ranges, and options.
const pinProgram = `
int gbl;

int pin(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) {
    s = s + i;
  }
  gbl = s;
  return s;
}
`

// TestFuncKeyPinned pins the memo key derivation to literal digests.
// The key is the address of persisted artifacts (internal/persist
// stores solves under it across runs), so any drift — IR printing,
// variable enumeration order, the options encoding — silently
// invalidates every on-disk cache and, worse, could alias two
// different solves to one slot. A derivation change that is actually
// intended must bump these literals consciously.
func TestFuncKeyPinned(t *testing.T) {
	m := minic.MustCompile("pin", pinProgram)
	f := m.FuncByName("pin")
	if f == nil {
		t.Fatal("pin function missing")
	}
	ranges := rangeanal.Analyze(m)

	got := map[string]string{
		"default":   funcKey(f, ranges, core.Options{}),
		"noranges":  funcKey(f, ranges, core.Options{NoRanges: true}),
		"nonstrict": funcKey(f, ranges, core.Options{NonStrict: true}),
	}
	want := map[string]string{
		"default":   "c536cccc661d35406df0fdba5d2a1eb5618509616af187515addf96d5755aa88",
		"noranges":  "8e509c3c970dea548e9c3392a445640085c5a1fc792755eaf5fb21fe558b3205",
		"nonstrict": "5c9da4d18b956f4fe338c478070dccd16aa7b0dba798fcc1582cb7f1da5b1633",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s key drifted:\n  got  %s\n  want %s", name, got[name], w)
		}
	}
	if got["default"] == got["noranges"] || got["default"] == got["nonstrict"] ||
		got["noranges"] == got["nonstrict"] {
		t.Error("option variants must not collide")
	}
}

// refFuncKey is the key derivation funcKey replaced, written through
// fmt and io.WriteString into the hash section by section. The text
// section is f.String(), which TestPrintMatchesReference (internal/ir)
// checks against the fmt printer.
func refFuncKey(f *ir.Func, ranges *rangeanal.Result, opt core.Options) string {
	h := sha256.New()
	io.WriteString(h, f.String())
	io.WriteString(h, "\x00globals\x00")
	seen := map[*ir.Global]bool{}
	f.Instrs(func(in *ir.Instr) bool {
		for _, a := range in.Args {
			if g, ok := a.(*ir.Global); ok && !seen[g] {
				seen[g] = true
				fmt.Fprintf(h, "@%s:%s;", g.GName, g.Elem.String())
			}
		}
		return true
	})
	io.WriteString(h, "\x00ranges\x00")
	if !opt.NoRanges && ranges != nil {
		writeIv := func(v ir.Value) {
			if !ir.IsInt(v.Type()) {
				return
			}
			iv := ranges.Range(v)
			fmt.Fprintf(h, "%s=[%d,%d];", v.Ref(), iv.Lo, iv.Hi)
		}
		for _, p := range f.Params {
			writeIv(p)
		}
		f.Instrs(func(in *ir.Instr) bool {
			if in.HasResult() {
				writeIv(in)
			}
			return true
		})
	}
	fmt.Fprintf(h, "\x00opts:nr=%t,ns=%t", opt.NoRanges, opt.NonStrict)
	return hex.EncodeToString(h.Sum(nil))
}

// keyInputs returns the programs TestFuncKeyMatchesReference keys:
// corpus Spec, TestSuite(200), synth.Module(2000, 1 and 2) and csmith
// seeds 1–300, or a smaller selection under -short and -race.
func keyInputs(short bool) []BatchItem {
	progs := append(corpus.Spec(), corpus.TestSuite(200)...)
	synthFuncs, seeds := 2000, int64(300)
	if short {
		progs = append(corpus.Spec()[:8], corpus.TestSuite(8)...)
		synthFuncs, seeds = 200, 30
	}
	var items []BatchItem
	for _, p := range progs {
		items = append(items, BatchItem{Name: p.Name, Src: p.Source})
	}
	for _, s := range []int64{1, 2} {
		items = append(items, BatchItem{Name: fmt.Sprintf("synth-%d-%d", synthFuncs, s), Src: synth.Module(synthFuncs, s)})
	}
	for seed := int64(1); seed <= seeds; seed++ {
		items = append(items, BatchItem{Name: fmt.Sprintf("csmith-%d", seed),
			Src: csmith.Generate(csmith.Config{Seed: seed, MaxPtrDepth: 2 + int(seed%4)})})
	}
	return items
}

// TestFuncKeyMatchesReference checks funcKey byte for byte against the
// fmt derivation on every function of the full pipeline's output,
// under all three option sets. The key addresses persisted artifacts,
// so any difference would orphan every store written before it.
func TestFuncKeyMatchesReference(t *testing.T) {
	opts := map[string]core.Options{
		"default":   {},
		"noranges":  {NoRanges: true},
		"nonstrict": {NonStrict: true},
	}
	keys := 0
	for _, it := range keyInputs(testing.Short() || raceEnabled) {
		res, err := New(Config{}).CompileAndAnalyze(it.Name, it.Src)
		if err != nil {
			t.Fatalf("%s: %v", it.Name, err)
		}
		for _, f := range res.Module.Funcs {
			for name, opt := range opts {
				if got, want := funcKey(f, res.Ranges, opt), refFuncKey(f, res.Ranges, opt); got != want {
					t.Fatalf("%s @%s %s: key %s, reference %s", it.Name, f.FName, name, got, want)
				}
				keys++
			}
		}
	}
	t.Logf("%d keys identical to the reference", keys)
}

// BenchmarkFuncKey times the memo key alone over every function of two
// input shapes, analyzed once up front: the 16 programs a serve-warm
// round repeats (TestSuite(16)) and the batch corpus (Spec plus
// TestSuite(100)). A key costs one pass over the function, and a warm
// cache pays it on every lookup.
func BenchmarkFuncKey(b *testing.B) {
	for _, tc := range []struct {
		name  string
		progs []corpus.Program
	}{
		{"serve", corpus.TestSuite(16)},
		{"corpus", append(corpus.Spec(), corpus.TestSuite(100)...)},
	} {
		type analyzed struct {
			m      *ir.Module
			ranges *rangeanal.Result
		}
		var mods []analyzed
		funcs := 0
		for _, p := range tc.progs {
			res, err := New(Config{}).CompileAndAnalyze(p.Name, p.Source)
			if err != nil {
				b.Fatalf("%s: %v", p.Name, err)
			}
			mods = append(mods, analyzed{res.Module, res.Ranges})
			funcs += len(res.Module.Funcs)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, a := range mods {
					for _, f := range a.m.Funcs {
						funcKey(f, a.ranges, core.Options{})
					}
				}
			}
			b.ReportMetric(float64(funcs), "funcs/op")
		})
	}
}
