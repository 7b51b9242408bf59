package ir

import (
	"math"
	"strconv"
)

// valueNames records the value names a function has handed out, so
// that FreshName and UniqueName never hand out one twice. It is seeded
// on the first request with the names of the parameters and of the
// instructions the function holds then, so a parsed function keeps
// its names; a name set later through SetName is not recorded. A
// reservation never expires: deleting an instruction does not free its
// name.
//
// Lowering names nearly every value "t" plus nextID, so a "t<k>" name
// is bit k of a bitset, and only the other names go into a map.
type valueNames struct {
	seeded bool
	// temps has bit k set once "t<k>" is reserved, for a k without a
	// leading zero that was below tempBound when it was reserved.
	temps []uint64
	// others holds every other reserved name. tempsInOthers counts the
	// "t<k>" names among them, reserved past the bound; while there are
	// any, a lookup of a "t<k>" name checks the map too.
	others        map[string]struct{}
	tempsInOthers int
}

// maxTemp is the largest k a "t<k>" name may carry and still be
// looked up in the bitset.
const maxTemp = math.MaxInt32

// FreshName returns a new unique value name with the given prefix.
func (f *Func) FreshName(prefix string) string {
	f.seedNames()
	var buf [48]byte
	for {
		f.nextID++
		n := string(strconv.AppendInt(append(buf[:0], prefix...), int64(f.nextID), 10))
		if f.takeName(n) {
			return n
		}
	}
}

// UniqueName returns name if it is still free, or name with a numeric
// suffix otherwise, and reserves the result.
func (f *Func) UniqueName(name string) string {
	f.seedNames()
	if f.takeName(name) {
		return name
	}
	return f.FreshName(name + ".")
}

// seedNames reserves the names f holds before its first request.
func (f *Func) seedNames() {
	if f.names.seeded {
		return
	}
	f.names.seeded = true
	for _, p := range f.Params {
		f.takeName(p.PName)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				f.takeName(in.name)
			}
		}
	}
}

// takeName reserves n and reports whether it was still free.
func (f *Func) takeName(n string) bool {
	if k, ok := tempIndex(n); ok {
		return f.takeTemp(k, n)
	}
	return f.takeOther(n)
}

// takeTemp reserves n, which is "t<k>", and reports whether it was
// still free.
func (f *Func) takeTemp(k int, n string) bool {
	ns := &f.names
	w, bit := k/64, uint64(1)<<(uint(k)%64)
	if w < len(ns.temps) && ns.temps[w]&bit != 0 {
		return false
	}
	if k >= f.tempBound() {
		if !f.takeOther(n) {
			return false
		}
		ns.tempsInOthers++
		return true
	}
	if ns.tempsInOthers > 0 {
		if _, ok := ns.others[n]; ok {
			return false
		}
	}
	if w >= len(ns.temps) {
		ns.temps = append(ns.temps, make([]uint64, w+1-len(ns.temps))...)
	}
	ns.temps[w] |= bit
	return true
}

// tempBound bounds the k of a "t<k>" name the bitset takes. It grows
// with the function, so a parsed %t4000000000 in a small function goes
// into the map instead of sizing the bitset; every name FreshName("t")
// hands out is below it.
func (f *Func) tempBound() int { return 64 + 4*(f.nextID+f.NumValues()) }

// takeOther reserves n in the map and reports whether it was still
// free.
func (f *Func) takeOther(n string) bool {
	ns := &f.names
	if ns.others == nil {
		ns.others = make(map[string]struct{})
	}
	before := len(ns.others)
	ns.others[n] = struct{}{}
	return len(ns.others) > before
}

// tempIndex returns k when n is "t<k>" with k written without a
// leading zero and at most maxTemp.
func tempIndex(n string) (int, bool) {
	if len(n) < 2 || n[0] != 't' || len(n) > 11 || (n[1] == '0' && len(n) > 2) {
		return 0, false
	}
	k := int64(0)
	for i := 1; i < len(n); i++ {
		if !isDigit(n[i]) {
			return 0, false
		}
		k = 10*k + int64(n[i]-'0')
	}
	return int(k), k <= maxTemp
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
