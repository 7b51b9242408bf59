package ir

import (
	"fmt"
	"math/rand"
	"testing"
)

// blockByName is the linear scan NewBlock used before it indexed
// labels; the tests keep it as the reference.
func (f *Func) blockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.name == name {
			return b
		}
	}
	return nil
}

// scanNewBlock returns the label and counter NewBlock must produce,
// found by scanning every block for each candidate.
func scanNewBlock(f *Func, label string) (string, int) {
	if label == "" {
		label = "b"
	}
	id, name := f.nextID, label
	for f.blockByName(name) != nil {
		id++
		name = fmt.Sprintf("%s.%d", label, id)
	}
	return name, id
}

// TestNewBlockMatchesScan drives NewBlock through random interleavings
// of block creation, FreshName, SetName, in-place removal (as the
// reducer does, sometimes followed by an append that refills the same
// backing array), filtering into a new slice (as cfg.RemoveUnreachable
// does) and reordering, on empty functions and on functions built by
// Parse, and requires the label and counter the linear scan gives.
func TestNewBlockMatchesScan(t *testing.T) {
	labels := []string{"", "b", "b.1", "x", "x.2", "x.3", "if.then", "if.then.4", "entry", "head"}
	parsed := `func @f(i64 %n) i64 {
entry:
  jmp head
head:
  %i = phi i64 [0, entry], [%i2, x.2]
  %c = icmp lt %i, %n
  br %c, x.2, x
x.2:
  %i2 = add %i, 1
  jmp head
x:
  ret %i
}
`
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var f *Func
		if seed%2 == 0 {
			f = NewModule("m").AddFunc("f", I64, nil, nil)
		} else {
			f = MustParse(parsed).Funcs[0]
		}
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(f.Blocks) == 0:
				label := labels[rng.Intn(len(labels))]
				name, id := scanNewBlock(f, label)
				b := f.NewBlock(label)
				if b.Name() != name || f.nextID != id {
					t.Fatalf("seed %d step %d: NewBlock(%q) = %s (id %d), scan gives %s (id %d)",
						seed, step, label, b.Name(), f.nextID, name, id)
				}
			case op == 5:
				f.FreshName("t")
			case op == 6:
				f.Blocks[rng.Intn(len(f.Blocks))].SetName(labels[1+rng.Intn(len(labels)-1)])
			case op == 7:
				i := rng.Intn(len(f.Blocks))
				gone := f.Blocks[i]
				f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
				if rng.Intn(2) == 0 {
					// Put an unnamed block in its place, in the
					// same backing array.
					f.Blocks = append(f.Blocks, &Block{Fn: f})
				} else if rng.Intn(2) == 0 {
					f.Blocks = append(f.Blocks, gone)
				}
			case op == 8:
				var kept []*Block
				for _, b := range f.Blocks {
					if rng.Intn(4) != 0 {
						kept = append(kept, b)
					}
				}
				f.Blocks = kept
			default:
				shuffled := append([]*Block(nil), f.Blocks...)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				f.Blocks = shuffled
			}
		}
	}
}
