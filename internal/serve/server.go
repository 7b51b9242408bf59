package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/alias"
	"repro/internal/budget"
	"repro/internal/harness"
	"repro/internal/ir"
)

// Config sizes the server. The zero value is usable: New fills every
// unset knob with a production-shaped default.
type Config struct {
	// InFlight caps concurrently analyzed requests; default NumCPU.
	InFlight int
	// Queue bounds the admission waiting room; default 4×InFlight,
	// negative disables queueing entirely (no slot now → shed).
	Queue int
	// QueueWait is how long an admitted-but-queued request may wait
	// for a slot before being shed; default 1s.
	QueueWait time.Duration
	// DefaultBudget applies to requests that carry no budget of their
	// own; default 5s / 2M steps.
	DefaultBudget budget.Spec
	// MaxBudget is the ceiling client budgets are clamped to. Its
	// timeout also backstops requests asking for "unlimited": no
	// request runs longer, so no connection hangs. Default 30s / 20M
	// steps.
	MaxBudget budget.Spec
	// MaxSource caps the request source size in bytes; default 1MiB.
	MaxSource int
	// Jobs is the per-request function-level worker count; default 1
	// (the server parallelizes across requests, not within them).
	Jobs int
	// Cache, when non-nil, is the warm memo cache shared by every
	// request (and, via internal/persist, across restarts).
	Cache *harness.Cache
	// RetryAfter is the backoff hint attached to 429s; default 1s.
	RetryAfter time.Duration
	// Fault forwards a deliberate failure into every request's
	// pipeline — the containment proof for tests; never set it in
	// production.
	Fault *harness.FaultConfig
	// MemLimit is the heap high-watermark in bytes: past it, new
	// requests are shed with 429 until in-flight work drains the heap.
	// 0 disables the check (the default).
	MemLimit uint64
}

func (c Config) filled() Config {
	if c.InFlight < 1 {
		c.InFlight = runtime.NumCPU()
	}
	if c.Queue == 0 {
		c.Queue = 4 * c.InFlight
	}
	if c.QueueWait == 0 {
		c.QueueWait = time.Second
	}
	if !c.DefaultBudget.Limited() {
		c.DefaultBudget = budget.Spec{Timeout: 5 * time.Second, MaxSteps: 2_000_000}
	}
	if !c.MaxBudget.Limited() {
		c.MaxBudget = budget.Spec{Timeout: 30 * time.Second, MaxSteps: 20_000_000}
	}
	if c.MaxSource == 0 {
		c.MaxSource = 1 << 20
	}
	if c.Jobs < 1 {
		c.Jobs = 1
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	return c
}

// Server answers analysis requests over HTTP. Create with New, mount
// Handler (or run Serve for the managed listener + drain lifecycle).
type Server struct {
	cfg  Config
	gate *Gate
	mem  *MemWatermark
	st   stats
	// preAnalyze, when non-nil, runs on every admitted request before
	// its pipeline starts. Tests use it to hold slots occupied.
	preAnalyze func()
}

// New builds a Server from cfg (zero fields take defaults).
func New(cfg Config) *Server {
	cfg = cfg.filled()
	return &Server{
		cfg:  cfg,
		gate: NewGate(cfg.InFlight, cfg.Queue, cfg.QueueWait),
		mem:  NewMemWatermark(cfg.MemLimit),
		st:   stats{start: time.Now()},
	}
}

// Handler returns the HTTP API: POST /analyze, GET /healthz, GET
// /stats.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /analyze", s.handleAnalyze)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return mux
}

// Snapshot returns the current counters; the daemon prints it as its
// shutdown epilogue and /stats serves it live.
func (s *Server) Snapshot() Snapshot {
	return Snapshot{
		UptimeSec:   time.Since(s.st.start).Seconds(),
		Draining:    s.st.draining.Load(),
		Requests:    s.st.requests.Load(),
		OK:          s.st.ok.Load(),
		Degraded:    s.st.degraded.Load(),
		BadRequest:  s.st.badRequest.Load(),
		Shed:        s.st.shed.Load(),
		Canceled:    s.st.canceled.Load(),
		Quarantined: s.st.quarantined.Load(),
		InFlight:    s.gate.InFlight(),
		Queued:      s.gate.Queued(),
		MemSheds:    s.mem.Sheds(),
		MemLimit:    s.mem.Limit(),
		Cache:       cacheSnapshot(s.cfg.Cache),
	}
}

// writeJSON encodes v fully before touching the connection, so a
// marshalling problem can still change the status code and a partial
// body is never sent.
func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		body = []byte(`{"error":"response encoding failed"}`)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.st.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"in_flight": s.gate.InFlight(),
		"queued":    s.gate.Queued(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// shed429 writes the standard shed response: 429 with both the
// Retry-After header and the machine-readable hint in the body.
func (s *Server) shed429(w http.ResponseWriter, msg string) {
	secs := int(math.Ceil(s.cfg.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", fmt.Sprint(secs))
	writeJSON(w, http.StatusTooManyRequests, ErrorResponse{
		Error:        msg,
		RetryAfterMS: s.cfg.RetryAfter.Milliseconds(),
	})
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	s.st.requests.Add(1)

	// Decode under a byte cap so an oversized body is rejected while
	// streaming, not after buffering it all.
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxSource)+64*1024)
	req, err := DecodeRequest(r.Body, s.cfg.MaxSource)
	if err != nil {
		s.st.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}

	// Memory backpressure first: past the heap high-watermark even an
	// open slot must not admit more work — shedding here is what keeps
	// the OOM killer from doing it less politely.
	if s.mem.Over() {
		s.st.shed.Add(1)
		s.shed429(w, "overloaded: memory high-watermark reached, retry later")
		return
	}

	release, err := s.gate.Acquire(r.Context())
	switch {
	case errors.Is(err, ErrShed):
		s.st.shed.Add(1)
		s.shed429(w, "overloaded: request shed, retry later")
		return
	case err != nil: // client gave up while queued; nobody is listening
		s.st.canceled.Add(1)
		return
	}
	defer release()

	resp, badReq := s.analyze(r.Context(), req)
	if badReq != nil {
		s.st.badRequest.Add(1)
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: badReq.Error()})
		return
	}
	if resp.Degraded {
		s.st.degraded.Add(1)
	} else {
		s.st.ok.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// maxFailureLines caps the failure detail shipped to clients; the
// full report stays server-side.
const maxFailureLines = 20

// analyze runs one admitted request through the hardened pipeline.
// A non-nil badReq means the program itself was rejected (parse or
// lower failure) — a client error. Everything else is contained: a
// panic that somehow escapes the harness is recovered here and
// degrades the response to the sound empty answer, so one poisoned
// request can never take the process down.
func (s *Server) analyze(ctx context.Context, req *Request) (resp *Response, badReq error) {
	start := time.Now()
	name := req.Name
	if name == "" {
		name = "request"
	}
	defer func() {
		if r := recover(); r != nil {
			s.st.quarantined.Add(1)
			resp = &Response{
				Name:     name,
				Degraded: true,
				Failures: []string{fmt.Sprintf("request quarantined: panic escaped containment: %v", r)},
			}
			badReq = nil
		}
		if resp != nil {
			resp.ElapsedMS = float64(time.Since(start).Microseconds()) / 1000
		}
	}()

	if s.preAnalyze != nil {
		s.preAnalyze()
	}

	spec := s.cfg.DefaultBudget
	if req.Budget != nil {
		spec = *req.Budget
	}
	spec = spec.Clamp(s.cfg.MaxBudget)

	p := harness.NewCtx(ctx, harness.Config{
		Timeout:         spec.Timeout,
		MaxSteps:        spec.MaxSteps,
		Interprocedural: req.Interproc,
		WithST:          req.Steens,
		Jobs:            s.cfg.Jobs,
		Cache:           s.cfg.Cache,
		CacheBudgeted:   true,
		Fault:           s.cfg.Fault,
	})

	var m *ir.Module
	var err error
	if req.Lang == LangIR {
		m, err = p.ParseIR(req.Source)
	} else {
		m, err = p.Compile(name, req.Source)
	}
	if err != nil {
		return nil, fmt.Errorf("program rejected: %w", err)
	}

	res, _ := p.Analyze(m) // non-strict: the error is always nil

	resp = &Response{Name: name}
	for _, q := range req.queries() {
		switch q {
		case QueryLT:
			resp.LT = ltSets(res)
		case QueryAlias:
			resp.Alias = aliasCounts(m, res)
		case QuerySanitize:
			sum := res.Sanitize().Summarize()
			resp.Sanitize = &SanitizeCounts{
				Checks:   sum.Checks,
				Safe:     sum.Safe,
				Unsafe:   sum.Unsafe,
				Unknown:  sum.Unknown,
				Failures: sum.Failures,
				Degraded: sum.Degraded,
			}
		}
	}

	if rep := p.Report(); !rep.Ok() {
		resp.Degraded = true
		for i, f := range rep.Failures {
			if i == maxFailureLines {
				resp.Failures = append(resp.Failures,
					fmt.Sprintf("... %d more", len(rep.Failures)-maxFailureLines))
				break
			}
			resp.Failures = append(resp.Failures, f.Error())
		}
	}
	return resp, nil
}

// ltSets flattens the non-empty LT sets into the wire map.
func ltSets(res *harness.Result) map[string][]string {
	out := map[string][]string{}
	for _, f := range res.Module.Funcs {
		for _, v := range res.LT.VarsOf(f) {
			set := res.LT.LT(v)
			if len(set) == 0 {
				continue
			}
			refs := make([]string, len(set))
			for i, w := range set {
				refs[i] = w.Ref()
			}
			out[f.FName+"."+v.Ref()] = refs
		}
	}
	return out
}

// aliasCounts runs the aa-eval protocol under the harness's
// per-function containment and flattens the counts.
func aliasCounts(m *ir.Module, res *harness.Result) map[string]AliasCounts {
	ba := alias.NewBasic(m)
	lt := alias.NewSRAA(res.LT)
	analyses := []alias.Analysis{ba, lt, alias.NewChain(ba, lt)}
	if res.ST != nil {
		analyses = append(analyses, res.ST)
	}
	rep := res.Evaluate(analyses...)
	out := map[string]AliasCounts{}
	for name, c := range rep.PerAnalysis {
		out[name] = AliasCounts{Queries: c.Queries, NoAlias: c.No, May: c.May, Must: c.Must}
	}
	return out
}

// Serve runs the server on ln until ctx is canceled, then drains:
// the listener closes (new connections are refused — clients retry),
// in-flight requests finish within drainTimeout, the memo cache is
// flushed to its store, and Serve returns nil on a clean drain. A
// drain that overruns its deadline returns the shutdown error with
// whatever requests were abandoned still counted in the stats.
func (s *Server) Serve(ctx context.Context, ln net.Listener, drainTimeout time.Duration) error {
	if drainTimeout <= 0 {
		drainTimeout = 10 * time.Second
	}
	srv := &http.Server{
		Handler: s.Handler(),
		// Slow-loris protection: a connection that never finishes its
		// headers is cut, another way "never a hung connection" holds.
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() {
		// Containment: net/http recovers handler panics itself, but a
		// panic in the accept loop's own machinery would otherwise
		// take down the daemon from this goroutine. It surfaces as a
		// listener error and flows into the normal drain path.
		defer func() {
			if r := recover(); r != nil {
				errc <- fmt.Errorf("serve: accept loop panicked: %v", r)
			}
		}()
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		// The listener itself failed; nothing to drain.
		return err
	case <-ctx.Done():
	}

	s.st.draining.Store(true)
	shCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(shCtx) // stops accepting, waits for in-flight
	if s.cfg.Cache != nil {
		s.cfg.Cache.Flush()
	}
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	return nil
}
