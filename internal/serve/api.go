// Package serve fronts the hardened analysis pipeline with a
// long-running HTTP/JSON service: admission control with bounded
// queueing and load shedding, per-request budgets with sound
// degradation, per-request panic containment, a shared warm memo
// cache, and graceful drain. The package holds everything except the
// process scaffolding (flags, signals), which lives in cmd/sraad.
//
// Degradation matrix. The server never answers wrongly and never
// leaves a connection hanging; what it does instead depends on where
// the pressure is:
//
//	overload (queue full)        → 429 + Retry-After   (shed, not served)
//	budget exhausted mid-solve   → 200, degraded=true  (empty LT sets, ⊤ ranges, MayAlias)
//	stage panic (poisoned input) → 200, degraded=true  (function quarantined, rest answered)
//	panic escaping the harness   → 200, degraded=true  (empty results, request quarantined)
//	malformed request/program    → 400                 (client error, nothing to degrade)
//	drain in progress            → listener closed     (clients retry against a peer)
//
// Every 200 body is sound: a result the batch pipeline could also
// have produced for some budget.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/budget"
)

// Query names a result set the client wants in the response.
const (
	QueryLT       = "lt"       // per-variable less-than sets
	QueryAlias    = "alias"    // aa-eval style alias counts (BA, LT, BA+LT)
	QuerySanitize = "sanitize" // memory-safety verdict summary
)

// Lang values for Request.Lang.
const (
	LangMiniC = "minic"
	LangIR    = "ir"
)

// Request is one analysis job. Lang defaults to mini-C and Queries
// to {alias}.
type Request struct {
	// Name labels the program in the response and server logs.
	Name string `json:"name,omitempty"`
	// Lang is "minic" (default) or "ir".
	Lang string `json:"lang,omitempty"`
	// Source is the program text.
	Source string `json:"source"`
	// Queries selects the result sets to compute; defaults to
	// {"alias"}.
	Queries []string `json:"queries,omitempty"`
	// Interproc enables the inter-procedural parameter facts.
	Interproc bool `json:"interproc,omitempty"`
	// Steens adds the Steensgaard-style unification analysis (ST) to
	// the "alias" query's rows.
	Steens bool `json:"steens,omitempty"`
	// Budget caps this request's solver work. It is clamped to the
	// server's ceiling; absent means "server default".
	Budget *budget.Spec `json:"budget,omitempty"`
}

// DecodeRequest reads the body of an analyze request: exactly one JSON
// object with only the Request fields, followed by nothing but
// whitespace, that passes Validate against maxSource. An empty query
// list decodes as an absent one.
func DecodeRequest(body io.Reader, maxSource int) (*Request, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("request body: %w", err)
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return nil, errors.New("request body: data after the request object")
	}
	if err := req.Validate(maxSource); err != nil {
		return nil, err
	}
	if len(req.Queries) == 0 {
		req.Queries = nil
	}
	return &req, nil
}

// Validate checks the request shape against the server's source-size
// cap. It does not parse the program — that happens inside the
// hardened pipeline.
func (r *Request) Validate(maxSource int) error {
	switch r.Lang {
	case "", LangMiniC, LangIR:
	default:
		return fmt.Errorf("unknown lang %q (want %q or %q)", r.Lang, LangMiniC, LangIR)
	}
	if r.Source == "" {
		return fmt.Errorf("empty source")
	}
	if maxSource > 0 && len(r.Source) > maxSource {
		return fmt.Errorf("source is %d bytes, cap is %d", len(r.Source), maxSource)
	}
	for _, q := range r.Queries {
		switch q {
		case QueryLT, QueryAlias, QuerySanitize:
		default:
			return fmt.Errorf("unknown query %q (want %q, %q or %q)", q, QueryLT, QueryAlias, QuerySanitize)
		}
	}
	if r.Budget != nil {
		if err := r.Budget.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// queries resolves the effective query set.
func (r *Request) queries() []string {
	if len(r.Queries) == 0 {
		return []string{QueryAlias}
	}
	return r.Queries
}

// AliasCounts is one analysis row of the aa-eval protocol.
type AliasCounts struct {
	Queries int `json:"queries"`
	NoAlias int `json:"no_alias"`
	May     int `json:"may_alias"`
	Must    int `json:"must_alias"`
}

// SanitizeCounts summarizes the memory-safety verdicts.
type SanitizeCounts struct {
	Checks   int `json:"checks"`
	Safe     int `json:"safe"`
	Unsafe   int `json:"unsafe"`
	Unknown  int `json:"unknown"`
	Failures int `json:"failures,omitempty"`
	Degraded int `json:"degraded,omitempty"`
}

// Response is the answer to one admitted, well-formed request. It is
// always sound; Degraded says whether any part of it is conservative
// rather than exact.
type Response struct {
	Name string `json:"name"`
	// Degraded is true when any stage was contained or budgeted out:
	// the answers below are still sound but may be weaker than an
	// unlimited run's (empty LT sets, MayAlias, unknown verdicts).
	Degraded bool `json:"degraded"`
	// Failures lists the contained stage failures, one line each
	// (stacks stay server-side).
	Failures []string `json:"failures,omitempty"`
	// LT maps "func.var" to the sorted members of LT(var), non-empty
	// sets only. Present when "lt" was queried.
	LT map[string][]string `json:"lt,omitempty"`
	// Alias holds aa-eval counts per analysis name. Present when
	// "alias" was queried.
	Alias map[string]AliasCounts `json:"alias,omitempty"`
	// Sanitize summarizes the safety verdicts. Present when
	// "sanitize" was queried.
	Sanitize *SanitizeCounts `json:"sanitize,omitempty"`
	// ElapsedMS is the server-side wall clock of the analysis.
	ElapsedMS float64 `json:"elapsed_ms"`
}

// ErrorResponse is the body of a non-200 answer.
type ErrorResponse struct {
	Error string `json:"error"`
	// RetryAfterMS accompanies 429: the client's backoff hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}
