package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// End-to-end tests for the sanitize binary: TestMain builds it once,
// the tests run it on testdata fixtures and golden-compare stdout.
// Regenerate goldens with: go test ./cmd/sanitize -run Golden -update

var update = flag.Bool("update", false, "rewrite golden files from current output")

var sanBin string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "sanitize-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sanBin = filepath.Join(dir, "sanitize")
	if out, err := exec.Command("go", "build", "-o", sanBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building sanitize: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runSanitize executes the built binary and returns stdout; wantCode
// is the required exit code (the sweep modes use non-zero to signal
// violations).
func runSanitize(t *testing.T, wantCode int, args ...string) string {
	t.Helper()
	cmd := exec.Command(sanBin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("sanitize %v: %v\nstderr:\n%s", args, err, stderr.String())
	}
	if code != wantCode {
		t.Fatalf("sanitize %v exited %d, want %d\nstderr:\n%s", args, code, wantCode, stderr.String())
	}
	return stdout.String()
}

func checkGolden(t *testing.T, golden, got string) {
	t.Helper()
	path := filepath.Join("testdata", golden)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Fatalf("output differs from %s (regenerate with -update if intended):\n--- want ---\n%s\n--- got ---\n%s",
			path, want, got)
	}
}

func TestReportGolden(t *testing.T) {
	got := runSanitize(t, 0, filepath.Join("testdata", "kernel.c"))
	checkGolden(t, "kernel.report.golden", got)
}

// TestInterprocGolden is the CLI face of the LT ablation: the same
// file gains a bounds=safe/lt verdict when -interproc is on.
func TestInterprocGolden(t *testing.T) {
	got := runSanitize(t, 0, "-interproc", filepath.Join("testdata", "kernel.c"))
	checkGolden(t, "kernel.interproc.golden", got)
}

// TestJobsEquivalence: output is byte-identical at any worker count.
func TestJobsEquivalence(t *testing.T) {
	src := filepath.Join("testdata", "kernel.c")
	base := runSanitize(t, 0, "-jobs", "1", "-interproc", src)
	for _, jobs := range []string{"4", "8"} {
		if got := runSanitize(t, 0, "-jobs", jobs, "-interproc", src); got != base {
			t.Fatalf("-jobs %s output differs from -jobs 1", jobs)
		}
	}
}

// TestSweepSmoke: both sweep modes must self-validate cleanly.
func TestSweepSmoke(t *testing.T) {
	out := runSanitize(t, 0, "-sweep", "5", "-seed", "9900")
	if want := "all verdicts consistent with execution"; !bytes.Contains([]byte(out), []byte(want)) {
		t.Fatalf("sweep output missing %q:\n%s", want, out)
	}
	runSanitize(t, 0, "-sweep", "5", "-seed", "9900", "-inject-oob")
}

// TestFailUnsafe: -fail-unsafe turns a proved-unsafe access into a
// non-zero exit, for use as a build gate.
func TestFailUnsafe(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.c")
	if err := os.WriteFile(bad, []byte("int a[4];\nint f(void) { a[9] = 1; return 0; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runSanitize(t, 0, bad)                        // reporting alone succeeds
	out := runSanitize(t, 1, "-fail-unsafe", bad) // gating fails
	if !bytes.Contains([]byte(out), []byte("unsafe/interval")) {
		t.Fatalf("missing unsafe diagnostic:\n%s", out)
	}

	// A function only called by itself may be called from outside
	// with any argument: nothing is proved to trap.
	walk := filepath.Join(t.TempDir(), "walk.c")
	src := "int walk(int n) { int a[10]; a[n] = 1; if (n > 0) { return walk(n - 1); } return a[0]; }\nint main() { return 0; }\n"
	if err := os.WriteFile(walk, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if out := runSanitize(t, 0, "-fail-unsafe", walk); bytes.Contains([]byte(out), []byte("unsafe/")) {
		t.Fatalf("self-calling function reported unsafe:\n%s", out)
	}
}
