package corpus

import (
	"testing"

	"repro/internal/core"
	"repro/internal/minic"
)

// TestSpecCompiles: every synthetic SPEC workload must compile and
// survive the full analysis pipeline.
func TestSpecCompiles(t *testing.T) {
	progs := Spec()
	if len(progs) != 16 {
		t.Fatalf("spec programs = %d, want 16", len(progs))
	}
	names := map[string]bool{}
	for _, p := range progs {
		if names[p.Name] {
			t.Errorf("duplicate name %s", p.Name)
		}
		names[p.Name] = true
		m, err := minic.Compile(p.Name, p.Source)
		if err != nil {
			t.Fatalf("%s does not compile: %v", p.Name, err)
		}
		core.Prepare(m, core.PipelineOptions{})
	}
	for _, want := range []string{"lbm", "gobmk", "gcc", "dealII"} {
		if !names[want] {
			t.Errorf("missing workload %s", want)
		}
	}
}

func TestTestSuiteCompiles(t *testing.T) {
	progs := TestSuite(25)
	if len(progs) != 25 {
		t.Fatalf("suite programs = %d", len(progs))
	}
	for _, p := range progs {
		if _, err := minic.Compile(p.Name, p.Source); err != nil {
			t.Fatalf("%s does not compile: %v\n%s", p.Name, err, p.Source)
		}
	}
}

func TestTestSuiteDeterministic(t *testing.T) {
	a := TestSuite(10)
	b := TestSuite(10)
	for i := range a {
		if a[i].Source != b[i].Source {
			t.Fatalf("program %d differs between calls", i)
		}
	}
}
