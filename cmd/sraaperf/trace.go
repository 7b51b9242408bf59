package main

import (
	"encoding/json"
	"runtime/metrics"
	"sort"
	"time"
)

// span is one timed region of a traced run: a call into one layer, a
// program or request around such calls, or a pass around programs.
// Spans of one program or request share a trace id.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0: no parent
	Trace  int    `json:"trace"`
	Name   string `json:"name"`
	// StartNS and EndNS are nanoseconds since the tracer started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// AllocBytes is what the heap allocated while the span was open,
	// including its children; absent where the source of the span
	// (harness stage timings) records no allocation.
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`

	alloc0 uint64
}

func (s *span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory for one workload run. It is used from
// one goroutine; a nil *tracer records nothing, which is how the same
// code runs untraced.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, trace int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		StartNS: t.now(), alloc0: heapAllocBytes(),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id-1]
	s.EndNS = t.now()
	s.AllocBytes = heapAllocBytes() - s.alloc0
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, parent, trace int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Trace: trace, Name: name,
		StartNS: int64(start.Sub(t.t0)), EndNS: int64(end.Sub(t.t0)),
	})
	return len(t.spans)
}

// mark is the current end of the span list; spans recorded after it
// belong to whatever ran since.
func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// layerTotals sums self time (ms) and allocation (MB) by span name over
// the spans recorded since mark.
func (t *tracer) layerTotals(mark int) (ms, mb map[string]float64) {
	ms, mb = map[string]float64{}, map[string]float64{}
	if t == nil {
		return ms, mb
	}
	spans := t.spans[mark:]
	self := selfTimes(spans)
	for i, s := range spans {
		ms[s.Name] += float64(self[i]) / 1e6
		mb[s.Name] += float64(s.AllocBytes) / (1 << 20)
	}
	return ms, mb
}

// selfTimes returns, for each span, its duration minus the part of its
// interval covered by its children. Children may overlap each other
// (concurrent requests under one phase) or stick out of their parent
// (clock skew between a client and a server timer); only the union of
// their intervals clipped to the parent counts. Parents must be in the
// slice for their children to be subtracted.
func selfTimes(spans []span) []int64 {
	idx := make(map[int]int, len(spans))
	for i, s := range spans {
		idx[s.ID] = i
	}
	children := make([][][2]int64, len(spans))
	for _, s := range spans {
		if p, ok := idx[s.Parent]; ok && s.Parent != 0 {
			children[p] = append(children[p], [2]int64{s.StartNS, s.EndNS})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.StartNS, s.EndNS, children[i])
	}
	return self
}

// covered is the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo // everything before cur is accounted for
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// marshalTrace renders the spans as the trace-<workload>.json body.
func (t *tracer) marshalTrace(workload string, seed int64) ([]byte, error) {
	return json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans}, "", " ")
}

// heapAllocBytes is the cumulative heap allocation of the process.
// runtime/metrics reads it without stopping the world, unlike
// runtime.ReadMemStats, so spans can afford it.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
