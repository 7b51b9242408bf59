package ir

import (
	"math/rand"
	"strconv"
	"testing"
)

// refNamer is the map-based reservation FreshName and UniqueName used
// before temporaries moved into a bitset, kept as the test-only
// oracle: one set of every name handed out, seeded on the first
// request with the parameters and the instructions f holds then.
type refNamer struct {
	f    *Func
	used map[string]bool
}

func (r *refNamer) fresh(prefix string) string {
	for {
		r.f.nextID++
		n := prefix + strconv.Itoa(r.f.nextID)
		if r.take(n) {
			return n
		}
	}
}

func (r *refNamer) unique(name string) string {
	if r.take(name) {
		return name
	}
	return r.fresh(name + ".")
}

func (r *refNamer) take(n string) bool {
	if r.used == nil {
		r.used = map[string]bool{}
		for _, p := range r.f.Params {
			r.used[p.PName] = true
		}
		for _, b := range r.f.Blocks {
			for _, in := range b.Instrs {
				if in.HasResult() {
					r.used[in.name] = true
				}
			}
		}
	}
	if r.used[n] {
		return false
	}
	r.used[n] = true
	return true
}

// namerTwins returns two identical functions: the first names through
// Func, the second through the oracle.
var namerTwins = []struct {
	name string
	mk   func() *Func
}{
	{"empty", func() *Func {
		return NewModule("m").AddFunc("f", I64, nil, nil)
	}},
	// Parameters named like temporaries, a leading zero among them.
	{"params", func() *Func {
		names := []string{"t1", "t05", "t3", "x.addr", "t0", "t4000000000"}
		types := []Type{I64, I64, I64, I64, I64, I64}
		return NewModule("m").AddFunc("f", I64, names, types)
	}},
	// A parsed function: a temporary in the bitset's range (t3), one
	// past the bound a small function gives (t300), one past maxTemp
	// (t4000000000), and names that only look like generated ones.
	{"parsed", func() *Func {
		return MustParse(`func @f(i64 %t1, i64 %t05) i64 {
entry:
  %t3 = add %t1, 1
  %t300 = add %t3, 2
  %t4000000000 = add %t3, %t05
  %t4000000 = add %t3, 5
  %x.addr.5 = add %t3, 3
  %t0 = add %t3, 4
  %t7.s8 = add %t0, 1
  jmp next
next:
  ret %t0
}
`).Funcs[0]
	}},
}

// TestNamesMatchReference drives FreshName, UniqueName, NewBlock,
// SetName, instruction insertion and deletion through random sequences
// on twin functions, one named through Func and one through the map
// oracle, and requires the same name from every request and the same
// counter after every step.
func TestNamesMatchReference(t *testing.T) {
	prefixes := []string{
		"t", "t", "t", "t", // lowering's temporaries dominate
		"x.addr.", "p.s", "q.c", "t3.slot", "t7.reload", "t.", // production shapes
		"t1", "a1", "t0", "", // digit-ending or empty
	}
	requests := []string{
		"t5", "t05", "t0", "t00", "t4000000", "t4000000000", "t300", "t301",
		"x.addr", "x.addr", "x.addr.1", "t", "t12", "t12", "t1", "t3.slot",
	}
	labels := []string{"", "b", "entry", "t5", "if.then", "t"}
	for _, tw := range namerTwins {
		name, mk := tw.name, tw.mk
		for seed := int64(0); seed < 150; seed++ {
			rng := rand.New(rand.NewSource(seed))
			f, g := mk(), mk()
			ref := &refNamer{f: g}
			var given []string
			for step := 0; step < 500; step++ {
				var got, want string
				switch op := rng.Intn(20); {
				case op < 8:
					p := prefixes[rng.Intn(len(prefixes))]
					got, want = f.FreshName(p), ref.fresh(p)
				case op < 11:
					n := requests[rng.Intn(len(requests))]
					got, want = f.UniqueName(n), ref.unique(n)
				case op < 13 && len(given) > 0:
					// Ask again for a name already handed out.
					n := given[rng.Intn(len(given))]
					got, want = f.UniqueName(n), ref.unique(n)
				case op < 15:
					l := labels[rng.Intn(len(labels))]
					got, want = f.NewBlock(l).Name(), g.NewBlock(l).Name()
				case op < 18:
					// An instruction named through the builder, or, when
					// the step draws it, by SetName: before the first
					// request its name is seeded, after it is not.
					n := ""
					if rng.Intn(3) == 0 {
						n = requests[rng.Intn(len(requests))]
					} else if len(given) > 0 {
						n = given[rng.Intn(len(given))]
					}
					appendNamed(f, n)
					appendNamed(g, n)
				default:
					// Delete a random instruction from both twins.
					if bi := rng.Intn(len(f.Blocks) + 1); bi < len(f.Blocks) && len(f.Blocks[bi].Instrs) > 0 {
						i := rng.Intn(len(f.Blocks[bi].Instrs))
						f.Blocks[bi].RemoveAt(i)
						g.Blocks[bi].RemoveAt(i)
					}
				}
				if got != want || f.nextID != g.nextID {
					t.Fatalf("%s seed %d step %d: got %q (counter %d), reference %q (counter %d)",
						name, seed, step, got, f.nextID, want, g.nextID)
				}
				if got != "" {
					given = append(given, got)
				}
			}
		}
	}
}

// appendNamed appends an instruction named n to f's last block,
// opening an entry block if f has none.
func appendNamed(f *Func, n string) {
	if len(f.Blocks) == 0 {
		f.NewBlock("entry")
	}
	in := &Instr{Op: OpAdd, Typ: I64, Args: []Value{ConstInt(1), ConstInt(2)}}
	in.SetName(n)
	f.Blocks[len(f.Blocks)-1].Append(in)
}

// BenchmarkFreshName names functions as lowering does over the batch
// corpus, about 35 names a function (608,443 names over 17,393
// functions), seven in eight of them temporaries: 31 "t<k>" and 4
// "x.addr" requests.
func BenchmarkFreshName(b *testing.B) {
	m := NewModule("m")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := &Func{Mod: m}
		for j := 0; j < 31; j++ {
			f.FreshName("t")
			if j%8 == 0 {
				f.UniqueName("x.addr")
			}
		}
	}
}
