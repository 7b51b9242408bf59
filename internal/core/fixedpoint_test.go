package core

import (
	"crypto/sha256"
	"fmt"
	"io"
	"testing"

	"repro/internal/corpus"
	"repro/internal/minic"
	"repro/internal/synth"
)

// ltDigest hashes the solved fixed point of every function of the
// given programs: each function's variables in VarsOf order and, per
// variable, the names of its LT members in LT order.
func ltDigest(progs []corpus.Program, opt PipelineOptions) string {
	h := sha256.New()
	for _, p := range progs {
		prep := Prepare(minic.MustCompile(p.Name, p.Source), opt)
		for _, f := range prep.Module.Funcs {
			fmt.Fprintf(h, "%s/%s\n", p.Name, f.FName)
			for _, v := range prep.LT.VarsOf(f) {
				io.WriteString(h, v.Name()+":")
				for _, w := range prep.LT.LT(v) {
					io.WriteString(h, " "+w.Name())
				}
				io.WriteString(h, "\n")
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestLTFixedPointPinned pins the LT fixed point — every set of every
// function, in order — on the SPEC stand-ins plus the test suite, a
// synthetic module, and the SPEC stand-ins under the inter-procedural
// extension. The solver's set representation, sharing and interning are
// free to change; its answer is not. A change that moves one of these
// digests changes analysis results and must say why.
func TestLTFixedPointPinned(t *testing.T) {
	spec := corpus.Spec()
	cases := []struct {
		name  string
		progs []corpus.Program
		opt   PipelineOptions
		want  string
	}{
		{"spec+suite", append(spec[:len(spec):len(spec)], corpus.TestSuite(100)...), PipelineOptions{},
			"164f5123355ccfb8d54bb833db454c3c3285f9289875ddd9f7748e33a796e4c6"},
		{"synth-300", []corpus.Program{{Name: "synth", Source: synth.Module(300, 1)}}, PipelineOptions{},
			"16ddde9247e142161e9b512120c9d1591ef759cf021b49c8e8e93ad72f35e365"},
		{"spec-interproc", spec, PipelineOptions{Interprocedural: true},
			"446599b82390174aec645fd10f29cdf960d777d07f6b5394f10eb24bcd65bdac"},
	}
	for _, c := range cases {
		if got := ltDigest(c.progs, c.opt); got != c.want {
			t.Errorf("%s: LT fixed point digest = %s, want %s", c.name, got, c.want)
		}
	}
}
