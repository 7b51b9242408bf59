package harness

import (
	"testing"

	"repro/internal/core"
	"repro/internal/minic"
	"repro/internal/rangeanal"
)

// pinProgram is a fixed input covering every section of the key:
// canonical text, a referenced global, integer ranges, and options.
const pinProgram = `
int gbl;

int pin(int n) {
  int i;
  int s = 0;
  for (i = 0; i < n; i++) {
    s = s + i;
  }
  gbl = s;
  return s;
}
`

// TestFuncKeyPinned pins the memo key derivation to literal digests.
// The key is the address of persisted artifacts (internal/persist
// stores solves under it across runs), so any drift — IR printing,
// variable enumeration order, the options encoding — silently
// invalidates every on-disk cache and, worse, could alias two
// different solves to one slot. A derivation change that is actually
// intended must bump these literals consciously.
func TestFuncKeyPinned(t *testing.T) {
	m := minic.MustCompile("pin", pinProgram)
	f := m.FuncByName("pin")
	if f == nil {
		t.Fatal("pin function missing")
	}
	ranges := rangeanal.Analyze(m)

	got := map[string]string{
		"default":   funcKey(f, ranges, core.Options{}),
		"noranges":  funcKey(f, ranges, core.Options{NoRanges: true}),
		"nonstrict": funcKey(f, ranges, core.Options{NonStrict: true}),
	}
	want := map[string]string{
		"default":   "c536cccc661d35406df0fdba5d2a1eb5618509616af187515addf96d5755aa88",
		"noranges":  "8e509c3c970dea548e9c3392a445640085c5a1fc792755eaf5fb21fe558b3205",
		"nonstrict": "5c9da4d18b956f4fe338c478070dccd16aa7b0dba798fcc1582cb7f1da5b1633",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s key drifted:\n  got  %s\n  want %s", name, got[name], w)
		}
	}
	if got["default"] == got["noranges"] || got["default"] == got["nonstrict"] ||
		got["noranges"] == got["nonstrict"] {
		t.Error("option variants must not collide")
	}
}
