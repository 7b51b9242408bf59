package budget

import (
	"encoding/json"
	"testing"
	"time"
)

// parseSpecSeeds are FuzzParseSpec's checked-in seeds, each with the
// outcome TestParseSpecSeeds pins: the spec ParseSpec accepts, or
// reject for an error.
var parseSpecSeeds = []struct {
	name, in string
	reject   bool
	want     Spec
}{
	{name: "empty object", in: `{}`},
	{name: "null", in: `null`},
	{name: "package example", in: `{"timeout":"250ms","max_steps":100000}`,
		want: Spec{Timeout: 250 * time.Millisecond, MaxSteps: 100000}},
	{name: "negative timeout", in: `{"timeout":"-3s"}`, reject: true},
	{name: "negative steps", in: `{"max_steps":-1}`, reject: true},
	{name: "unknown field", in: `{"max_step":7}`, reject: true},
	{name: "bad duration", in: `{"timeout":"5 parsecs"}`, reject: true},
	{name: "trailing data", in: `{"max_steps":1} {"max_steps":2}`, reject: true},
	// encoding/json keeps the last of duplicate keys.
	{name: "duplicate keys", in: `{"max_steps":1,"max_steps":2}`, want: Spec{MaxSteps: 2}},
	{name: "overflowing steps", in: `{"max_steps":99999999999999999999}`, reject: true},
}

// TestParseSpecSeeds pins each seed's outcome, so a change to what
// ParseSpec accepts shows here and not only as a fuzz finding.
func TestParseSpecSeeds(t *testing.T) {
	for _, tc := range parseSpecSeeds {
		got, err := ParseSpec([]byte(tc.in))
		if (err != nil) != tc.reject {
			t.Errorf("%s: ParseSpec(%s) error %v, want reject %v", tc.name, tc.in, err, tc.reject)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: ParseSpec(%s) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
}

// FuzzParseSpec feeds ParseSpec arbitrary bytes. It must never panic;
// a rejected input yields the zero Spec, and an accepted spec passes
// Validate and marshals into a wire form that parses back to it.
func FuzzParseSpec(f *testing.F) {
	for _, tc := range parseSpecSeeds {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			if s != (Spec{}) {
				t.Fatalf("rejected %q but returned %+v", data, s)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted %q as %+v, which Validate rejects: %v", data, s, err)
		}
		wire, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted %q as %+v, which does not marshal: %v", data, s, err)
		}
		back, err := ParseSpec(wire)
		if err != nil || back != s {
			t.Fatalf("accepted %q as %+v, but its wire form %s parses to %+v, %v", data, s, wire, back, err)
		}
	})
}
