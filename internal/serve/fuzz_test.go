package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzDecodeRequest hardens the analyze request decoder against
// arbitrary bodies. It must never panic, a body it accepts must pass
// Validate, and the accepted request must survive a JSON round trip
// (encode, decode) unchanged, budget included. Seeds live in
// testdata/fuzz/FuzzDecodeRequest alongside the f.Add literals.
func FuzzDecodeRequest(f *testing.F) {
	const maxSource = 4096
	f.Add(`{"source":"int main(void){return 0;}"}`)
	f.Add(`{"name":"k","lang":"ir","source":"x","queries":["lt","alias","sanitize"],"interproc":true,"steens":true}`)
	f.Add(`{"source":"x","budget":{"timeout":"1.5ms","max_steps":7}}`)
	f.Add(`{"source":"x","budget":{}} ` + "\n\t")
	f.Add(`{"source":"x","queries":[]}`)
	f.Add(`{"source":"x","budget":null,"queries":null}`)
	f.Add(`{"source":"x"} trailing garbage`)
	f.Add(`{"source":"x"}{"source":"y"}`)
	f.Add(`{"source":"é\ud800","Source":"y"}`)
	f.Add(`{"source":"x","budget":{"timeout":"-1s"}}`)
	f.Add(`{"source":"` + strings.Repeat("a", maxSource+1) + `"}`)
	f.Fuzz(func(t *testing.T, body string) {
		req, err := DecodeRequest(strings.NewReader(body), maxSource)
		if err != nil {
			return
		}
		if err := req.Validate(maxSource); err != nil {
			t.Fatalf("accepted %q, but Validate fails: %v", body, err)
		}
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted %q, but it does not encode: %v", body, err)
		}
		again, err := DecodeRequest(bytes.NewReader(data), maxSource)
		if err != nil {
			t.Fatalf("accepted %q, but not its encoding %s: %v", body, data, err)
		}
		// DeepEqual follows the Budget pointer, so the budget counts.
		if !reflect.DeepEqual(req, again) {
			t.Fatalf("round trip of %q changed the request:\n%#v\n%#v", body, req, again)
		}
	})
}
