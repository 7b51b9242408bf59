package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/harness"
)

// testSrc is a small mini-C program with provable strict
// inequalities (the loop index against the array bound).
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

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post sends one analyze request and decodes the response body.
func post(t *testing.T, url string, req any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /analyze: %v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func decode(t *testing.T, data []byte) *Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(data, &r); err != nil {
		t.Fatalf("decoding response %s: %v", data, err)
	}
	return &r
}

// TestAnalyzeAllQueries: one request computing every result set over
// the hardened pipeline.
func TestAnalyzeAllQueries(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts.URL, Request{
		Name:    "demo",
		Source:  testSrc,
		Queries: []string{QueryLT, QueryAlias, QuerySanitize},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	r := decode(t, body)
	if r.Degraded {
		t.Fatalf("degraded response for a healthy program: %v", r.Failures)
	}
	if len(r.LT) == 0 {
		t.Error("no LT sets returned for a program with provable inequalities")
	}
	for _, name := range []string{"BA", "LT", "BA+LT"} {
		c, ok := r.Alias[name]
		if !ok {
			t.Fatalf("alias counts missing analysis %q (got %v)", name, r.Alias)
		}
		if c.Queries == 0 {
			t.Errorf("analysis %q answered 0 queries", name)
		}
	}
	if r.Sanitize == nil || r.Sanitize.Checks == 0 {
		t.Fatalf("sanitize summary missing or empty: %+v", r.Sanitize)
	}
	if r.Sanitize.Unsafe != 0 {
		t.Errorf("sanitizer flagged %d unsafe accesses in a safe program", r.Sanitize.Unsafe)
	}
}

// TestAnalyzeIR: the textual-IR front door answers like the mini-C
// one.
func TestAnalyzeIR(t *testing.T) {
	p := harness.New(harness.Config{})
	m, err := p.Compile("demo", testSrc)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts.URL, Request{Lang: LangIR, Source: m.String(), Queries: []string{QueryLT}})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	if r := decode(t, body); len(r.LT) == 0 {
		t.Error("no LT sets from IR input")
	}
}

// TestDefaultQuery: no queries means the alias report, nothing else.
func TestDefaultQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts.URL, Request{Source: testSrc})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	r := decode(t, body)
	if len(r.Alias) == 0 {
		t.Error("default query did not produce alias counts")
	}
	if r.LT != nil || r.Sanitize != nil {
		t.Error("default query produced result sets that were not asked for")
	}
}

// TestBadRequests: malformed requests are client errors, counted and
// answered with 400 — never 5xx, never a hang.
func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSource: 4096})
	cases := []struct {
		name string
		body string
	}{
		{"malformed json", `{`},
		{"empty source", `{"source":""}`},
		{"unknown lang", `{"source":"int main(void){return 0;}","lang":"fortran"}`},
		{"unknown query", `{"source":"int main(void){return 0;}","queries":["points-to"]}`},
		{"unknown envelope field", `{"source":"int main(void){return 0;}","qeuries":["lt"]}`},
		{"bad budget field", `{"source":"int main(void){return 0;}","budget":{"max_step":3}}`},
		{"negative budget", `{"source":"int main(void){return 0;}","budget":{"max_steps":-1}}`},
		{"unparsable program", `{"source":"int main("}`},
		{"oversized source", fmt.Sprintf(`{"source":%q}`, "int x;"+strings.Repeat(" ", 5000))},
		{"trailing garbage", `{"source":"int main(void){return 0;}"} trailing garbage`},
		{"second object", `{"source":"int main(void){return 0;}"} {"source":"int main(void){return 1;}"}`},
		{"trailing brace", `{"source":"int main(void){return 0;}"}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				data, _ := io.ReadAll(resp.Body)
				t.Fatalf("status %d, want 400; body %s", resp.StatusCode, data)
			}
		})
	}
	if got := s.Snapshot().BadRequest; got != int64(len(cases)) {
		t.Errorf("bad_request counter = %d, want %d", got, len(cases))
	}
}

// TestFaultInjectionDegradesSoundly: with a panic injected into the
// less-than stage of every request, answers stay 200 and sound —
// empty LT sets, zero LT no-alias claims — and the process survives
// repeated poisoned requests.
func TestFaultInjectionDegradesSoundly(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Fault: &harness.FaultConfig{Stage: harness.StageLessThan},
	})
	for i := 0; i < 2; i++ {
		code, body := post(t, ts.URL, Request{Source: testSrc, Queries: []string{QueryLT, QueryAlias}})
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, code, body)
		}
		r := decode(t, body)
		if !r.Degraded {
			t.Fatalf("request %d: fault-injected run not marked degraded", i)
		}
		if len(r.Failures) == 0 {
			t.Errorf("request %d: degraded response carries no failure detail", i)
		}
		if len(r.LT) != 0 {
			t.Errorf("request %d: degraded run still claims LT sets: %v", i, r.LT)
		}
		if c := r.Alias["LT"]; c.NoAlias != 0 {
			t.Errorf("request %d: degraded LT analysis claims %d no-alias answers", i, c.NoAlias)
		}
	}
}

// TestRequestBudgetDegrades: a starvation budget yields a sound
// degraded 200, not an error and not a hang.
func TestRequestBudgetDegrades(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body := post(t, ts.URL, Request{
		Source:  testSrc,
		Queries: []string{QueryLT},
		Budget:  &budget.Spec{MaxSteps: 1},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	r := decode(t, body)
	if !r.Degraded {
		t.Fatal("starved run not marked degraded")
	}
	if len(r.LT) != 0 {
		t.Errorf("starved run still claims LT sets: %v", r.LT)
	}
}

// TestPanicQuarantine: a panic that escapes the harness (injected
// via the pre-analysis hook) is contained at the serve layer: the
// client gets a sound degraded 200 and the next request is served
// normally.
func TestPanicQuarantine(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	fire := true
	s.preAnalyze = func() {
		if fire {
			fire = false
			panic("escaped the pipeline")
		}
	}
	code, body := post(t, ts.URL, Request{Source: testSrc})
	if code != http.StatusOK {
		t.Fatalf("status %d, body %s", code, body)
	}
	r := decode(t, body)
	if !r.Degraded || len(r.Failures) == 0 {
		t.Fatalf("quarantined request not marked degraded: %+v", r)
	}
	if len(r.Alias) != 0 {
		t.Errorf("quarantined response still carries results: %+v", r.Alias)
	}
	if got := s.Snapshot().Quarantined; got != 1 {
		t.Errorf("quarantined counter = %d, want 1", got)
	}
	// The process is fine: the next request is exact.
	code, body = post(t, ts.URL, Request{Source: testSrc})
	if code != http.StatusOK {
		t.Fatalf("post-quarantine status %d, body %s", code, body)
	}
	if r := decode(t, body); r.Degraded {
		t.Error("request after a quarantined one degraded too")
	}
}

// TestShedWith429: when the only slot is taken and queueing is
// disabled, the second request is shed with 429 + Retry-After.
func TestShedWith429(t *testing.T) {
	s, ts := newTestServer(t, Config{InFlight: 1, Queue: -1, RetryAfter: 2 * time.Second})
	block := make(chan struct{})
	s.preAnalyze = func() { <-block }

	first := make(chan int, 1)
	go func() {
		code, _ := post(t, ts.URL, Request{Source: testSrc})
		first <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.gate.InFlight() != 1 {
		t.Fatal("first request never occupied the slot")
	}

	resp, err := http.Post(ts.URL+"/analyze", "application/json",
		strings.NewReader(`{"source":"int main(void){return 0;}"}`))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, data)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", ra)
	}
	var er ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.RetryAfterMS != 2000 {
		t.Errorf("shed body = %s (err %v), want retry_after_ms 2000", data, err)
	}

	close(block)
	select {
	case code := <-first:
		if code != http.StatusOK {
			t.Fatalf("blocked request finished with %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("blocked request never finished")
	}
	if got := s.Snapshot().Shed; got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}
}

// TestBurstAllAnsweredSoundly is the package-level acceptance check:
// in-flight limit 2, a 50-request concurrent burst, fault injection
// on — every request gets 200 (sound, possibly degraded) or 429,
// nothing hangs, nothing 5xxs, the accounting adds up.
func TestBurstAllAnsweredSoundly(t *testing.T) {
	s, ts := newTestServer(t, Config{
		InFlight:  2,
		Queue:     2,
		QueueWait: 50 * time.Millisecond,
		Fault:     &harness.FaultConfig{Stage: harness.StageLessThan, Func: "main"},
	})
	const n = 50
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(t, ts.URL, Request{Source: testSrc, Queries: []string{QueryLT}})
		}(i)
	}
	wg.Wait()
	var ok200, shed429 int
	for i, c := range codes {
		switch c {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			shed429++
		default:
			t.Errorf("request %d: status %d, want 200 or 429", i, c)
		}
	}
	if ok200+shed429 != n {
		t.Fatalf("answered %d+%d of %d", ok200, shed429, n)
	}
	if ok200 == 0 {
		t.Fatal("burst produced no successful answers at all")
	}
	snap := s.Snapshot()
	if snap.OK+snap.Degraded+snap.Shed != int64(n) {
		t.Errorf("stats ok=%d degraded=%d shed=%d do not account for %d requests",
			snap.OK, snap.Degraded, snap.Shed, n)
	}
	t.Logf("burst: %d served, %d shed", ok200, shed429)
}

// TestDrain: canceling the serve context stops the listener, lets
// the in-flight request finish with its full 200, flushes, and
// returns nil.
func TestDrain(t *testing.T) {
	s := New(Config{InFlight: 2, Cache: harness.NewCache()})
	block := make(chan struct{})
	s.preAnalyze = func() { <-block }

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln, 10*time.Second) }()
	url := "http://" + ln.Addr().String()

	inFlight := make(chan int, 1)
	go func() {
		code, _ := post(t, url, Request{Source: testSrc})
		inFlight <- code
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.gate.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if s.gate.InFlight() != 1 {
		t.Fatal("request never became in-flight")
	}

	cancel()
	time.Sleep(50 * time.Millisecond) // let shutdown close the listener
	close(block)

	select {
	case code := <-inFlight:
		if code != http.StatusOK {
			t.Fatalf("in-flight request finished with %d during drain", code)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request abandoned by drain")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after clean drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned after drain")
	}
	if !s.Snapshot().Draining {
		t.Error("stats do not record the drain")
	}
	// The door is closed: new connections are refused, not hung.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Error("listener still accepting after drain")
	}
}

// TestWarmCacheAcrossRequests: the second identical request is
// served from the shared memo cache — hits go up, misses do not.
func TestWarmCacheAcrossRequests(t *testing.T) {
	cache := harness.NewCache()
	s, ts := newTestServer(t, Config{Cache: cache})
	if code, body := post(t, ts.URL, Request{Source: testSrc, Queries: []string{QueryLT}}); code != 200 {
		t.Fatalf("cold request: %d %s", code, body)
	}
	cold := s.Snapshot().Cache
	if cold == nil {
		t.Fatal("no cache stats on a cached server")
	}
	if code, body := post(t, ts.URL, Request{Source: testSrc, Queries: []string{QueryLT}}); code != 200 {
		t.Fatalf("warm request: %d %s", code, body)
	}
	warm := s.Snapshot().Cache
	if warm.Hits <= cold.Hits {
		t.Errorf("warm hits = %d, want > %d", warm.Hits, cold.Hits)
	}
	if warm.Misses != cold.Misses {
		t.Errorf("warm misses = %d, want unchanged %d", warm.Misses, cold.Misses)
	}
	if warm.HitRate <= cold.HitRate {
		t.Errorf("hit rate did not improve: %f -> %f", cold.HitRate, warm.HitRate)
	}
}

// TestHealthzAndStats: observability endpoints answer 200 with the
// advertised fields.
func TestHealthzAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.URL, Request{Source: testSrc})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || hz["status"] != "ok" {
		t.Fatalf("healthz: %d %v", resp.StatusCode, hz)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.Requests != 1 || snap.OK != 1 {
		t.Errorf("stats after one request: %+v", snap)
	}
}
