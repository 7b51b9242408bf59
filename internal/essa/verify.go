package essa

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// VerifySSI checks the Static Single Information property (Definition
// 3.2 of the paper) structurally: after live-range splitting, no use
// of a split variable may appear where the split's fresh name is the
// current one. Concretely, for every sigma s renaming x in block B,
// no use of x may be dominated by B (the sigma region renamed them
// all), and for every subtraction copy c = x placed after instruction
// d, no later use of x may be dominated by the copy. Lemma 3.8
// ("LT(x) is invariant along the live range of x") relies on exactly
// this property; the test suites run the verifier after every
// transform.
func VerifySSI(f *ir.Func) error {
	f.RecomputeCFG()
	dt := cfg.NewDomTree(f)
	pos := map[*ir.Instr]int{}
	i := 0
	f.Instrs(func(in *ir.Instr) bool {
		pos[in] = i
		i++
		return true
	})

	type split struct {
		def  *ir.Instr // the sigma or copy
		root ir.Value  // the variable it renames
	}
	var splits []split
	f.Instrs(func(in *ir.Instr) bool {
		if in.Op == ir.OpSigma || in.Op == ir.OpCopy {
			splits = append(splits, split{def: in, root: in.Args[0]})
		}
		return true
	})

	var err error
	check := func(s split, user *ir.Instr, useBlock *ir.Block) {
		// The split's own operand is the legitimate last use.
		if user == s.def {
			return
		}
		// Sibling sigmas in the same block read the root on the same
		// edge (parallel-copy semantics).
		if user.Op == ir.OpSigma && user.Blk == s.def.Blk {
			return
		}
		switch s.def.Op {
		case ir.OpSigma:
			// A use is stale if it sits strictly inside the sigma's
			// dominance region.
			if useBlock == s.def.Blk {
				err = fmt.Errorf("ssi: use of %s in %s not renamed to sigma %s",
					s.root.Ref(), user.String(), s.def.Ref())
				return
			}
			if dt.StrictlyDominates(s.def.Blk, useBlock) {
				err = fmt.Errorf("ssi: use of %s in %s (block %s) dominated by sigma %s",
					s.root.Ref(), user.String(), useBlock.Name(), s.def.Ref())
			}
		case ir.OpCopy:
			// Stale if after the copy in the same block, or in a
			// strictly dominated block.
			if useBlock == s.def.Blk && pos[user] > pos[s.def] {
				err = fmt.Errorf("ssi: use of %s in %s after copy %s",
					s.root.Ref(), user.String(), s.def.Ref())
				return
			}
			if dt.StrictlyDominates(s.def.Blk, useBlock) {
				err = fmt.Errorf("ssi: use of %s in %s (block %s) dominated by copy %s",
					s.root.Ref(), user.String(), useBlock.Name(), s.def.Ref())
			}
		}
	}

	f.Instrs(func(in *ir.Instr) bool {
		for _, s := range splits {
			if in.Op == ir.OpPhi {
				for k, a := range in.Args {
					if a == s.root {
						// Phi uses happen at the end of the incoming
						// block.
						check(s, in, in.PhiBlocks()[k])
					}
				}
				continue
			}
			for _, a := range in.Args {
				if a == s.root {
					check(s, in, in.Blk)
				}
			}
		}
		return err == nil
	})
	return err
}
