package main

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// End-to-end tests for the scalability binary: TestMain builds it
// once, the tests run Figure 11 and check what each output holds.

var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "scalability-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "scalability")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building scalability: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

func run(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("scalability %v: %v\nstderr:\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// checkCSV fails unless every record of data has the header's field
// count, which encoding/csv enforces.
func checkCSV(t *testing.T, data string, rows int) {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(data)).ReadAll()
	if err != nil {
		t.Fatalf("output is not CSV: %v\n%s", err, data)
	}
	if len(recs) != rows+1 {
		t.Fatalf("%d CSV records, want a header and %d rows", len(recs), rows)
	}
}

// TestCSVHoldsOnlyCSV: with -csv, stdout and the -o file hold only
// the rows; the fit, the pops line and the set sizes go to stderr.
func TestCSVHoldsOnlyCSV(t *testing.T) {
	stdout, stderr := run(t, "-csv", "-sets", "-n", "5")
	checkCSV(t, stdout, 5)
	for _, want := range []string{"R² (constraints vs instructions)", "worklist pops per constraint", "|LT| = 0"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
	path := filepath.Join(t.TempDir(), "fig11.csv")
	if stdout, _ := run(t, "-csv", "-sets", "-n", "5", "-o", path); stdout != "" {
		t.Errorf("-o still wrote to stdout:\n%s", stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	checkCSV(t, string(data), 5)
}

// TestPopsPerConstraint: the pops line divides by constraints, and
// says so.
func TestPopsPerConstraint(t *testing.T) {
	stdout, _ := run(t, "-n", "5")
	if !strings.Contains(stdout, "worklist pops per constraint     = ") || strings.Contains(stdout, "per variable") {
		t.Errorf("pops line mislabeled:\n%s", stdout)
	}
}
