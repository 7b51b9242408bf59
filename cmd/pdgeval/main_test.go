package main

import (
	"bytes"
	"encoding/csv"
	"os/exec"
	"strings"
	"testing"
)

// TestCSVHoldsOnlyCSV: with -csv, stdout holds only the header and
// the 120 rows of Figure 12; the averages and totals go to stderr.
func TestCSVHoldsOnlyCSV(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "-csv")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("pdgeval -csv: %v\nstderr:\n%s", err, stderr.String())
	}
	recs, err := csv.NewReader(&stdout).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v", err)
	}
	if len(recs) != 121 {
		t.Fatalf("%d CSV records, want a header and 120 rows", len(recs))
	}
	for _, want := range []string{"programs: 120", "depth 7:", "total memory nodes: BA 673, BA+LT 4037"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr.String())
		}
	}
}
