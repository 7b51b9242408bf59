package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// End-to-end tests: TestMain builds sraad and sraabench once; the
// tests run the daemon as a real process, drive it over HTTP, and
// signal it, asserting the service contract — every answered request
// is 200 (sound, possibly degraded) or 429, never 5xx, and SIGTERM
// drains in-flight work and exits 0.

var (
	sraadBin string
	benchBin string
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "sraad-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	sraadBin = filepath.Join(dir, "sraad")
	benchBin = filepath.Join(dir, "sraabench")
	for bin, pkg := range map[string]string{sraadBin: ".", benchBin: "repro/cmd/sraabench"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building %s: %v\n%s", pkg, err, out)
			os.RemoveAll(dir)
			os.Exit(1)
		}
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

const testSrc = `
int a[100];
int main(void) {
  int i;
  int s = 0;
  for (i = 0; i < 100; i++) { a[i] = i; }
  for (i = 1; i < 100; i++) { s = s + a[i] - a[i-1]; }
  return s;
}
`

// daemon wraps a running sraad process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string // host:port actually bound
	done   chan error
	mu     sync.Mutex
	stderr bytes.Buffer
}

func (d *daemon) stderrText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stderr.String()
}

// startDaemon launches sraad on a free port and waits for it to
// report readiness. The process is killed at test cleanup if a test
// forgot to shut it down.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{done: make(chan error, 1)}
	d.cmd = exec.Command(sraadBin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	pipe, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			line := sc.Text()
			d.mu.Lock()
			d.stderr.WriteString(line + "\n")
			d.mu.Unlock()
			if rest, ok := strings.CutPrefix(line, "sraad: listening on "); ok {
				select {
				case addrCh <- rest:
				default:
				}
			}
		}
		// Wait closes the pipe, so it must not run before the last
		// line is read: the drain epilogue comes just before exit.
		io.Copy(io.Discard, pipe)
		d.done <- d.cmd.Wait()
	}()
	t.Cleanup(func() { d.cmd.Process.Kill() })
	select {
	case d.addr = <-addrCh:
	case err := <-d.done:
		t.Fatalf("sraad exited before listening: %v\nstderr:\n%s", err, d.stderrText())
	case <-time.After(30 * time.Second):
		t.Fatalf("sraad never reported listening\nstderr:\n%s", d.stderrText())
	}
	return d
}

// shutdown sends SIGTERM and asserts a clean drain: exit status 0 and
// the drain epilogue on stderr.
func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("sraad exit after SIGTERM: %v\nstderr:\n%s", err, d.stderrText())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("sraad did not exit after SIGTERM\nstderr:\n%s", d.stderrText())
	}
	for _, want := range []string{"drained cleanly", "final stats"} {
		if !strings.Contains(d.stderrText(), want) {
			t.Errorf("stderr missing %q:\n%s", want, d.stderrText())
		}
	}
}

func analyzeBody(t *testing.T, name string) []byte {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"name": name, "lang": "minic", "source": testSrc,
		"queries": []string{"lt", "alias"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postAnalyze returns (statusCode, responseBody, nil) or a transport
// error.
func postAnalyze(addr string, body []byte) (int, []byte, error) {
	res, err := http.Post("http://"+addr+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer res.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(res.Body)
	return res.StatusCode, buf.Bytes(), nil
}

// TestBurstUnderFaultInjection is the headline acceptance check: a
// tiny in-flight limit, a 50-request burst, and a fault injected into
// every request. Every single request must be answered 200 (degraded
// but sound) or 429 — no hangs, no 5xx, no process death — and the
// daemon must still drain cleanly afterwards.
func TestBurstUnderFaultInjection(t *testing.T) {
	d := startDaemon(t,
		"-inflight", "2", "-queue", "2", "-queue-wait", "100ms",
		"-inject-fault", "lessthan")
	body := analyzeBody(t, "burst")

	const burst = 50
	codes := make([]int, burst)
	degraded := make([]bool, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, respBody, err := postAnalyze(d.addr, body)
			if err != nil {
				t.Errorf("request %d: transport error: %v", i, err)
				return
			}
			codes[i] = code
			if code == http.StatusOK {
				var r struct {
					Degraded bool                `json:"degraded"`
					LT       map[string][]string `json:"lt"`
				}
				if jerr := json.Unmarshal(respBody, &r); jerr != nil {
					t.Errorf("request %d: bad response body: %v", i, jerr)
					return
				}
				degraded[i] = r.Degraded
				// Sound degradation: the faulted LT stage must
				// publish nothing rather than something wrong.
				for v, refs := range r.LT {
					if len(refs) > 0 {
						t.Errorf("request %d: degraded response has LT facts for %s", i, v)
					}
				}
			}
		}(i)
	}
	wg.Wait()

	var ok200, shed429 int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok200++
			if !degraded[i] {
				t.Errorf("request %d: fault injected but response not degraded", i)
			}
		case http.StatusTooManyRequests:
			shed429++
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, code)
		}
	}
	if ok200 == 0 {
		t.Error("burst produced no 200s at all")
	}
	t.Logf("burst: %d ok (degraded), %d shed", ok200, shed429)

	d.shutdown(t)
}

// TestSigtermMidBurstDrains fires a burst and signals the daemon
// while requests are still in flight. Accepted requests must be
// answered (200/429, never 5xx); connections arriving after the
// listener closes may fail at the transport level; the process must
// exit 0 with the drain epilogue.
func TestSigtermMidBurstDrains(t *testing.T) {
	d := startDaemon(t, "-inflight", "2", "-queue", "8", "-queue-wait", "2s")
	body := analyzeBody(t, "drain")

	const burst = 50
	var answered atomic.Int64
	var bad atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			code, _, err := postAnalyze(d.addr, body)
			if err != nil {
				return // transport error after listener closed: allowed
			}
			answered.Add(1)
			if code != http.StatusOK && code != http.StatusTooManyRequests {
				bad.Add(1)
				t.Errorf("status %d, want 200 or 429", code)
			}
		}()
	}
	// Let some requests land, then pull the plug mid-burst.
	deadline := time.Now().Add(10 * time.Second)
	for answered.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v\nstderr:\n%s", err, d.stderrText())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("no exit after SIGTERM\nstderr:\n%s", d.stderrText())
	}
	if !strings.Contains(d.stderrText(), "drained cleanly") {
		t.Errorf("stderr missing drain epilogue:\n%s", d.stderrText())
	}
	if answered.Load() == 0 {
		t.Error("no request was answered before/after the signal")
	}
	t.Logf("answered %d/%d before+during drain, %d bad", answered.Load(), burst, bad.Load())
}

// TestWarmDaemonHitRateImproves runs sraabench twice against one
// daemon: the second window must see a strictly higher cache hit rate
// than the cold first window.
func TestWarmDaemonHitRateImproves(t *testing.T) {
	d := startDaemon(t, "-inflight", "4")

	runBench := func() float64 {
		out, err := exec.Command(benchBin,
			"-addr", "http://"+d.addr, "-n", "12", "-c", "4",
			"-programs", "3", "-queries", "alias").CombinedOutput()
		if err != nil {
			t.Fatalf("sraabench: %v\n%s", err, out)
		}
		const marker = "window-hit-rate="
		idx := bytes.LastIndex(out, []byte(marker))
		if idx < 0 {
			t.Fatalf("sraabench output missing %q:\n%s", marker, out)
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(string(out[idx+len(marker):])), 64)
		if err != nil {
			t.Fatalf("parsing hit rate: %v\n%s", err, out)
		}
		t.Logf("sraabench window hit rate %.4f\n%s", rate, out)
		return rate
	}

	cold := runBench()
	warm := runBench()
	if warm <= cold {
		t.Errorf("warm hit rate %.4f not above cold %.4f", warm, cold)
	}
	d.shutdown(t)
}

// TestConfigFile boots the daemon purely from a JSON config file and
// checks the knobs took effect end to end (healthz up, a shed happens
// with inflight=1 and no queue while a slow request holds the slot).
func TestConfigFile(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "sraad.json")
	cfg := fmt.Sprintf(`{
  "inflight": 1,
  "queue": -1,
  "default_budget": {"timeout": "5s", "max_steps": 1000000},
  "retry_after": "3s",
  "persist_cache": %q
}`, filepath.Join(dir, "cache"))
	if err := os.WriteFile(cfgPath, []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, "-config", cfgPath)

	res, err := http.Get("http://" + d.addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", res.StatusCode)
	}

	// With one slot and no queue, a concurrent pair must include at
	// most one winner at a time; fire a few and require at least one
	// shed carrying the configured Retry-After.
	body := analyzeBody(t, "cfg")
	var shed atomic.Int64
	var retryAfter atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := http.Post("http://"+d.addr+"/analyze", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("post: %v", err)
				return
			}
			defer res.Body.Close()
			if res.StatusCode == http.StatusTooManyRequests {
				shed.Add(1)
				if ra, _ := strconv.Atoi(res.Header.Get("Retry-After")); ra > 0 {
					retryAfter.Store(int64(ra))
				}
			} else if res.StatusCode != http.StatusOK {
				t.Errorf("status %d", res.StatusCode)
			}
		}()
	}
	wg.Wait()
	if shed.Load() > 0 && retryAfter.Load() != 3 {
		t.Errorf("Retry-After = %d, want 3 from config", retryAfter.Load())
	}
	d.shutdown(t)

	// The persistent cache directory must exist and hold the store
	// after a clean drain.
	if _, err := os.Stat(filepath.Join(dir, "cache")); err != nil {
		t.Errorf("persist cache dir: %v", err)
	}
}
