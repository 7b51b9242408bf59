package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alias"
	"repro/internal/corpus"
	"repro/internal/csmith"
	"repro/internal/harness"
	"repro/internal/serve"
)

const (
	// conns is the client's connection count, and so the number of
	// requests in flight: the server admits two at a time as well.
	conns = 2
	// warmPrograms is serve-warm's program count.
	warmPrograms = 16
	// coldStmts sizes serve-cold's generated programs.
	coldStmts = 60
	// checkEvery selects the serve-cold answers compared with the
	// offline harness answer, and soundSample how many serve-cold
	// programs are checked against the interpreter.
	checkEvery  = 20
	soundSample = 20
	// maxGenLate is how far the open-loop generator may fall behind its
	// schedule before the run is flagged.
	maxGenLate = 10 * time.Millisecond
	// Program indices of serve-cold's set-up and replay requests lie
	// above any timed request's, so no timed request repeats one.
	setupBase  = 1 << 24
	replayBase = 1 << 25
)

// serveShape is a serve workload's traffic: the open-loop arrival rate
// (about 30% of the closed-loop capacity; README.md says why), the
// latency limit goodput is judged against, and the queries each
// request asks for.
type serveShape struct {
	rate    float64
	limit   time.Duration
	queries []string
}

var serveShapes = map[string]serveShape{
	"serve-warm": {rate: 100, limit: 50 * time.Millisecond, queries: []string{serve.QueryAlias, serve.QueryLT}},
	"serve-cold": {rate: 100, limit: 100 * time.Millisecond, queries: []string{serve.QueryAlias, serve.QueryLT, serve.QuerySanitize}},
}

// serveInputs generates a serve workload's requests from the seed:
// request k is a program and a JSON body.
type serveInputs struct {
	cold  bool
	seed  int64
	shape serveShape
	warm  []program // serve-warm's programs
	perm  []int     // serve-warm's seed-permuted cycle
}

func newServeInputs(name string, seed int64) *serveInputs {
	in := &serveInputs{cold: name == "serve-cold", seed: seed, shape: serveShapes[name]}
	if !in.cold {
		in.warm = corpusPrograms(corpus.TestSuite(warmPrograms))
		in.perm = rand.New(rand.NewSource(seed)).Perm(warmPrograms)
	}
	return in
}

func (in *serveInputs) program(k int) program {
	if !in.cold {
		return in.warm[in.perm[k%warmPrograms]]
	}
	return program{
		name: fmt.Sprintf("cold-%d-%d", in.seed, k),
		src: csmith.Generate(csmith.Config{
			Seed: in.seed<<32 + int64(k), MaxPtrDepth: 2 + k%4, Stmts: coldStmts,
		}),
		soundcheck: true,
	}
}

func (in *serveInputs) body(k int) []byte {
	p := in.program(k)
	b, err := json.Marshal(serve.Request{Name: p.name, Source: p.src, Queries: in.shape.queries})
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// schedule draws the open-loop send offsets: Poisson arrivals at rate
// per second over d. The count depends only on the seed, rate and d.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// server is an in-process sraad on a loopback listener.
type server struct {
	srv    *serve.Server
	cache  *harness.Cache
	url    string
	stop   context.CancelFunc
	served chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	cache := harness.NewCache()
	s := &server{
		srv:    serve.New(serve.Config{InFlight: conns, Cache: cache, DefaultBudget: serveBudget}),
		cache:  cache,
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	ctx, stop := context.WithCancel(context.Background())
	s.stop = stop
	go func() {
		defer func() {
			if r := recover(); r != nil {
				s.served <- fmt.Errorf("server panicked: %v", r)
			}
		}()
		s.served <- s.srv.Serve(ctx, ln, 5*time.Second)
	}()
	return s, nil
}

// close drains the server and waits for it to exit.
func (s *server) close() error {
	s.stop()
	return <-s.served
}

// client holds at most conns connections to the server. Its timeout
// only stops a broken server from hanging the run: the server's own
// budget ceiling answers every request well within it.
type client struct {
	url string
	hc  *http.Client
}

func newClient(url string) *client {
	return &client{url: url, hc: &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
	}}}
}

// answer is one request as the client saw it.
type answer struct {
	k          int
	sched      time.Time // due time; zero in the closed loop
	sent, done time.Time
	status     int
	err        error
	degraded   bool
	alias      map[string]serve.AliasCounts
	serverMS   float64
	bytes      int
}

// latency is timed from the scheduled send in the open loop and from
// the actual send in the closed loop.
func (a *answer) latency() time.Duration {
	if !a.sched.IsZero() {
		return a.done.Sub(a.sched)
	}
	return a.done.Sub(a.sent)
}

func (c *client) do(k int, body []byte) answer {
	a := answer{k: k, sent: time.Now()}
	resp, err := c.hc.Post(c.url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		a.err, a.done = err, time.Now()
		return a
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	a.done = time.Now()
	a.status, a.bytes, a.err = resp.StatusCode, len(data), err
	if err == nil && a.status == http.StatusOK {
		var r struct {
			Degraded  bool                         `json:"degraded"`
			Alias     map[string]serve.AliasCounts `json:"alias"`
			ElapsedMS float64                      `json:"elapsed_ms"`
		}
		if err := json.Unmarshal(data, &r); err != nil {
			a.err = fmt.Errorf("decode response: %w", err)
			return a
		}
		a.degraded, a.alias, a.serverMS = r.Degraded, r.Alias, r.ElapsedMS
	}
	return a
}

// sender runs body on its own goroutine as one of a loop's senders. A
// panic is recorded in *fail rather than taking the process down.
func sender(wg *sync.WaitGroup, fail *atomic.Value, body func()) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				fail.Store(fmt.Sprintf("sender panicked: %v", r))
			}
		}()
		body()
	}()
}

// openLoop sends request i at start+sched[i] whatever earlier requests
// are doing: the calling goroutine is the generator, and it hands each
// due request to conns senders through a queue. Answers are timed from
// their scheduled send, so a stall charges every request it delays.
// queued samples the server's admission queue length.
func openLoop(c *client, queued func() int, bodies [][]byte, sched []time.Duration) (answers []answer, genLate time.Duration, queuedMax int, failure string) {
	answers = make([]answer, len(sched))
	due := make([]time.Time, len(sched))
	// One slot per scheduled send: the generator never blocks on it.
	queue := make(chan int, len(sched))
	var wg sync.WaitGroup
	var fail atomic.Value
	for w := 0; w < conns; w++ {
		sender(&wg, &fail, func() {
			for i := range queue {
				a := c.do(i, bodies[i])
				a.sched = due[i]
				answers[i] = a
			}
		})
	}
	start := time.Now()
	var sampled time.Time
	for i, off := range sched {
		due[i] = start.Add(off)
		if d := time.Until(due[i]); d > 0 {
			time.Sleep(d)
		}
		if late := time.Since(due[i]); late > genLate {
			genLate = late
		}
		queue <- i
		if time.Since(sampled) >= 50*time.Millisecond {
			sampled = time.Now()
			queuedMax = max(queuedMax, queued())
		}
	}
	close(queue)
	wg.Wait()
	if v := fail.Load(); v != nil {
		failure = v.(string)
	}
	return answers, genLate, queuedMax, failure
}

// closedLoop keeps conns requests in flight for d: each sender sends
// its next request as soon as its previous answer is in. Requests are
// numbered from k0. Bodies are built on the senders, outside the timed
// request.
func closedLoop(c *client, in *serveInputs, k0 int, d time.Duration) (answers []answer, elapsed time.Duration, failure string) {
	var next atomic.Int64
	next.Store(int64(k0))
	per := make([][]answer, conns)
	var wg sync.WaitGroup
	var fail atomic.Value
	start := time.Now()
	for w := 0; w < conns; w++ {
		sender(&wg, &fail, func() {
			for time.Since(start) < d {
				k := int(next.Add(1) - 1)
				per[w] = append(per[w], c.do(k, in.body(k)))
			}
		})
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, as := range per {
		answers = append(answers, as...)
	}
	sort.Slice(answers, func(i, j int) bool { return answers[i].k < answers[j].k })
	if v := fail.Load(); v != nil {
		failure = v.(string)
	}
	return answers, elapsed, failure
}

// offlineAlias is the batch harness's answer to an alias query on p,
// with no budget and no cache: what the server's answer must equal.
func offlineAlias(p program) (map[string]serve.AliasCounts, error) {
	pipe := harness.New(harness.Config{})
	res, err := pipe.CompileAndAnalyze(p.name, p.src)
	if err != nil {
		return nil, err
	}
	ba := alias.NewBasic(res.Module)
	lt := alias.NewSRAA(res.LT)
	rep := res.Evaluate(ba, lt, alias.NewChain(ba, lt))
	if hr := pipe.Report(); !hr.Ok() {
		return nil, fmt.Errorf("offline analysis degraded: %s", hr.Summary())
	}
	out := map[string]serve.AliasCounts{}
	for name, c := range rep.PerAnalysis {
		out[name] = serve.AliasCounts{Queries: c.Queries, NoAlias: c.No, May: c.May, Must: c.Must}
	}
	return out, nil
}

func sameAlias(a, b map[string]serve.AliasCounts) bool {
	if len(a) != len(b) {
		return false
	}
	for name, v := range a {
		if b[name] != v {
			return false
		}
	}
	return true
}

// aliasCounts converts wire counts to the batch form.
func aliasCounts(m map[string]serve.AliasCounts) counts {
	c := counts{}
	for name, v := range m {
		c[name] = alias.Counts{Queries: v.Queries, No: v.NoAlias, May: v.May, Must: v.Must}
	}
	return c
}

// setUpServe starts a server and readies it for timed traffic:
// serve-warm fills its memo cache by sending every program once,
// serve-cold builds the open-loop request bodies and sends a few
// untimed requests of its own.
func setUpServe(in *serveInputs, rep int, nOpen int) (*server, *client, [][]byte, error) {
	s, err := startServer()
	if err != nil {
		return nil, nil, nil, err
	}
	c := newClient(s.url)
	bodies := make([][]byte, nOpen)
	for i := range bodies {
		if in.cold || i < warmPrograms {
			bodies[i] = in.body(i)
		} else {
			bodies[i] = bodies[i%warmPrograms] // the cycle repeats
		}
	}
	var warmups []int
	for j := 0; j < warmPrograms; j++ {
		if in.cold {
			warmups = append(warmups, setupBase+rep*warmPrograms+j)
		} else {
			warmups = append(warmups, j) // every program once
		}
	}
	for _, k := range warmups {
		if a := c.do(k, in.body(k)); a.err != nil || a.status != http.StatusOK || a.degraded {
			s.close()
			return nil, nil, nil, fmt.Errorf("set-up request %d: status %d degraded %t err %v", k, a.status, a.degraded, a.err)
		}
	}
	return s, c, bodies, nil
}

// runServe runs a serve workload: an open loop at the workload's fixed
// rate for two thirds of opt.seconds, then a closed loop with conns
// connections for the rest. The traced run replaces both with a traced
// open loop and in-process replays (serveTraced).
func runServe(ctx context.Context, w workload, opt runOpts) (*outcome, error) {
	o := newOutcome()
	in := newServeInputs(w.name, opt.seed)
	openDur := opt.seconds * 2 / 3
	if opt.trace {
		openDur = opt.seconds / 2
	}
	sched := schedule(opt.seed, in.shape.rate, openDur)

	// Offline answers for serve-warm's programs, untimed.
	offline := map[string]map[string]serve.AliasCounts{}
	if !in.cold {
		for _, p := range in.warm {
			a, err := offlineAlias(p)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.name, err)
			}
			offline[p.name] = a
		}
	}

	reps := setupReps
	if opt.trace {
		reps = 1
	}
	setups := make([]float64, reps)
	var s *server
	var c *client
	var bodies [][]byte
	for r := range setups {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // as in runBatch: every repetition starts from a collected heap
		t := time.Now()
		var err error
		if s, c, bodies, err = setUpServe(in, r, len(sched)); err != nil {
			return nil, err
		}
		setups[r] = time.Since(t).Seconds()
	}
	defer c.hc.CloseIdleConnections()

	st0 := s.cache.Stats()
	open, genLate, queuedMax, failure := openLoop(c, func() int { return s.srv.Snapshot().Queued }, bodies, sched)
	if failure != "" {
		o.problemf("open loop: %s", failure)
	}
	st1 := s.cache.Stats()
	// Peak RSS through set-up and the open loop, whose request count is
	// fixed by the seed; the closed loop's count varies with speed, and
	// serve-cold's cache grows with every request.
	rss := peakRSSMB()
	var closed []answer
	var closedFor time.Duration
	var closedAlloc uint64
	if !opt.trace {
		a0 := heapAllocBytes()
		closed, closedFor, failure = closedLoop(c, in, len(sched), opt.seconds-openDur)
		closedAlloc = heapAllocBytes() - a0
		if failure != "" {
			o.problemf("closed loop: %s", failure)
		}
	}
	if err := s.close(); err != nil {
		o.problemf("server drain: %v", err)
	}

	// Every serve-warm answer is compared with the offline answer;
	// serve-cold's every checkEvery-th is analyzed offline here, after
	// the clock stopped.
	good := func(a *answer) bool {
		why := ""
		switch {
		case a.err != nil:
			why = a.err.Error()
		case a.status != http.StatusOK:
			why = fmt.Sprintf("status %d", a.status)
		case a.degraded:
			why = "degraded answer"
		case !in.cold || a.k%checkEvery == 0:
			p := in.program(a.k)
			want, ok := offline[p.name]
			if !ok {
				var err error
				if want, err = offlineAlias(p); err != nil {
					why = "offline analysis: " + err.Error()
					break
				}
			}
			if !sameAlias(a.alias, want) {
				why = fmt.Sprintf("alias counts %s differ from the offline answer %s", aliasCounts(a.alias), aliasCounts(want))
			}
		}
		if why != "" {
			o.problemf("request %d: %s", a.k, why)
		}
		return why == ""
	}
	total := counts{}
	var lat []float64
	inLimit := 0
	for i := range open {
		a := &open[i]
		lat = append(lat, ms(a.latency()))
		ok := good(a)
		if ok {
			total.add(aliasCounts(a.alias))
			if a.latency() <= in.shape.limit {
				inLimit++
			}
		} else {
			o.failed++
		}
	}
	okClosed := 0
	for i := range closed {
		if good(&closed[i]) {
			okClosed++
		} else {
			o.failed++
		}
	}
	o.attempted = len(open) + len(closed)

	o.infof("open loop: %d requests at %.0f/s over %s, %d beyond p90; p99 %.2f ms with %d beyond; generator late by at most %.2f ms",
		len(open), in.shape.rate, openDur, beyond(len(lat), 90), percentile(lat, 99), beyond(len(lat), 99), ms(genLate))
	if beyond(len(lat), 90) < minBeyond {
		o.infof("WARNING: fewer than %d samples beyond p90", minBeyond)
	}
	if genLate > maxGenLate {
		o.infof("FLAGGED: the generator fell %.1f ms behind its schedule (limit %s)", ms(genLate), maxGenLate)
	}

	// Soundness of a fixed sample and the workload-size check.
	var sample []program
	if in.cold {
		for k := 0; k < soundSample; k++ {
			sample = append(sample, in.program(k))
		}
	} else {
		sample = in.warm
	}
	ref := counts{}
	for _, p := range sample {
		if a, err := offlineAlias(p); err != nil {
			o.problemf("%s: %v", p.name, err)
		} else {
			ref.add(aliasCounts(a))
		}
		if p.soundcheck {
			checkSoundness(o, p)
		}
	}
	o.infof("queries %s", ref)
	checkExpected(o, w.name, opt, ref)

	if opt.trace {
		serveTraced(ctx, o, in, open, st0, st1, queuedMax, genLate, opt.seconds-openDur)
		return o, nil
	}
	o.e2e["setup_s"] = median(setups)
	o.e2e["latency_p50_ms"] = median(lat)
	o.e2e["latency_p90_ms"] = percentile(lat, 90)
	o.e2e["throughput_per_s"] = float64(okClosed) / closedFor.Seconds()
	o.e2e["goodput_pct"] = pct(float64(inLimit), float64(len(open)))
	o.e2e["alloc_mb"] = mb(closedAlloc) / float64(max(len(closed), 1))
	o.e2e["peak_rss_mb"] = rss
	o.e2e["noalias_pct"] = total.noAliasPct()
	q1, q3 := quartiles(lat)
	o.infof("latency_ms q1 %.2f q3 %.2f; closed loop: %d requests over %s, %d correct",
		q1, q3, len(closed), closedFor.Round(time.Millisecond), okClosed)
	return o, nil
}
