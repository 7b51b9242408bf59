package replica

import (
	"encoding/json"
	"testing"
)

// decodeRoleSeeds are FuzzDecodeRole's checked-in seeds, each with the
// outcome TestDecodeRoleSeeds pins: the state decodeRole accepts, or
// reject for damage.
var decodeRoleSeeds = []struct {
	name, in string
	reject   bool
	want     roleState
}{
	{name: "valid record", in: `{"role":"primary","epoch":3}`, want: roleState{Role: RolePrimary, Epoch: 3}},
	{name: "empty object", in: `{}`, reject: true},
	{name: "empty role", in: `{"role":"","epoch":2}`, reject: true},
	{name: "unknown role", in: `{"role":"leader","epoch":2}`, reject: true},
	{name: "epoch 0", in: `{"role":"replica","epoch":0}`, reject: true},
	{name: "negative epoch", in: `{"role":"replica","epoch":-1}`, reject: true},
	{name: "truncated JSON", in: `{"role":"repl`, reject: true},
	{name: "trailing data", in: `{"role":"replica","epoch":1} {"role":"primary","epoch":9}`, reject: true},
	// encoding/json keeps the last of duplicate keys.
	{name: "duplicate keys", in: `{"role":"primary","epoch":1,"role":"replica"}`,
		want: roleState{Role: RoleReplica, Epoch: 1}},
	{name: "overflowing epoch", in: `{"role":"primary","epoch":99999999999999999999}`, reject: true},
}

// TestDecodeRoleSeeds pins each seed's outcome, so a change to what
// decodeRole accepts shows here and not only as a fuzz finding.
func TestDecodeRoleSeeds(t *testing.T) {
	for _, tc := range decodeRoleSeeds {
		got, ok := decodeRole([]byte(tc.in))
		if ok == tc.reject {
			t.Errorf("%s: decodeRole(%s) accepted %v, want reject %v", tc.name, tc.in, ok, tc.reject)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: decodeRole(%s) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
}

// FuzzDecodeRole feeds decodeRole arbitrary role files. It must never
// panic; a rejected file yields the zero state, and an accepted one
// has a known role and an epoch of at least 1, and marshals into a
// file that decodes back to it.
func FuzzDecodeRole(f *testing.F) {
	for _, tc := range decodeRoleSeeds {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, ok := decodeRole(data)
		if !ok {
			if rs != (roleState{}) {
				t.Fatalf("rejected %q but returned %+v", data, rs)
			}
			return
		}
		if rs.Epoch < 1 || (rs.Role != RolePrimary && rs.Role != RoleReplica) {
			t.Fatalf("accepted %q as %+v", data, rs)
		}
		wire, err := json.Marshal(rs)
		if err != nil {
			t.Fatalf("accepted %q as %+v, which does not marshal: %v", data, rs, err)
		}
		if back, ok := decodeRole(wire); !ok || back != rs {
			t.Fatalf("accepted %q as %+v, but its wire form %s decodes to %+v, %v", data, rs, wire, back, ok)
		}
	})
}
