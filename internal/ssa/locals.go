package ssa

import (
	"fmt"

	"repro/internal/ir"
)

// Locals records, while a frontend lowers one function, the scalar
// locals it builds directly in SSA form: it builds no alloca, load or
// store for them, and tells Locals instead where each would have
// stood. Finish then runs the one SSA construction over the function,
// which promotes whatever allocas the frontend did build as Promote
// does and treats each recorded local as the alloca it stands for.
// The function comes out as lowering it to memory and promoting it
// would have left it, phi for phi. Finish marks the scalar allocas it
// keeps in memory (ir.Instr.MarkKept): promoting the variables their
// addresses were stored into can leave such an address looking
// promotable, and a later Promote must leave it alone, as it would
// have found it escaping in the memory form.
//
// A frontend that leaves out a load must still use up the name the
// load would have taken (ir.Func.SkipTemp), and reserve each local's
// alloca name at its declaration, for the names to match.
//
// One Locals serves a whole module: Reset starts each function and
// keeps the buffers.
type Locals struct {
	f    *ir.Func
	vars []local
	// events are the definitions and the pending reads of the locals
	// in the order the frontend made them; each names its block.
	events []event
	// escapes lists the allocas the frontend gave a local as a value,
	// with the block of each definition: the store that would have
	// written the address lets it escape.
	escapes []event

	// pr is the construction Finish runs, its buffers kept from one
	// function to the next.
	pr promoter
}

// local is one recorded variable.
type local struct {
	// name is the name its alloca would have had; its phis are named
	// name.<k>.
	name string
	typ  ir.Type
	// blk and at are where its alloca would have stood: at the end of
	// blk when the function had handed out at value ids. An alloca of
	// blk built before then has a smaller id, one built after a larger.
	blk *ir.Block
	at  int
	// curEv is the event of its last definition, made in block curBlk.
	curBlk *ir.Block
	curEv  int32
}

// event is a definition of local x in blk, or a read of x there that
// no earlier definition in blk answered, which the pending read v
// stands for.
type event struct {
	blk *ir.Block
	v   ir.Value // the value defined, or the pending read
	x   int32
	def bool
}

// pending is the operand Read hands out for a read that needs the
// definition reaching it from another block. Renaming sets v to that
// definition, and the end step replaces every use of the read by it,
// following chains as it does for a dropped load. It embeds an Undef
// for its type and to be an ir.Value; none is left in the function
// once Finish returns.
type pending struct {
	ir.Undef
	v ir.Value
}

// Reset starts recording the locals of f.
func (ls *Locals) Reset(f *ir.Func) {
	clear(ls.vars)
	clear(ls.events)
	clear(ls.escapes)
	ls.f, ls.vars, ls.events, ls.escapes = f, ls.vars[:0], ls.events[:0], ls.escapes[:0]
}

// Declare records a local of type typ whose alloca, named name, would
// stand at the end of block b now, and returns its number.
func (ls *Locals) Declare(name string, typ ir.Type, b *ir.Block) int {
	ls.vars = append(ls.vars, local{name: name, typ: typ, blk: b, at: ls.f.NumValues(), curEv: -1})
	return len(ls.vars) - 1
}

// Def records that local x takes value v at the end of block b.
func (ls *Locals) Def(x int, b *ir.Block, v ir.Value) {
	if in, ok := v.(*ir.Instr); ok && in.Op == ir.OpAlloca {
		ls.escapes = append(ls.escapes, event{blk: b, v: v, x: int32(x), def: true})
	}
	l := &ls.vars[x]
	if l.curBlk == b {
		// No read of x in b since the last definition needed an event:
		// the later definition replaces it.
		ls.events[l.curEv].v = v
		return
	}
	l.curBlk, l.curEv = b, int32(len(ls.events))
	ls.events = append(ls.events, event{blk: b, v: v, x: int32(x), def: true})
}

// Read returns the value of local x at the end of block b: the last
// definition in b, or else an operand that stands for the definition
// reaching b, a fresh one for every read.
func (ls *Locals) Read(x int, b *ir.Block) ir.Value {
	l := &ls.vars[x]
	if l.curBlk == b {
		return ls.events[l.curEv].v
	}
	p := &pending{Undef: ir.Undef{Typ: l.typ}}
	ls.events = append(ls.events, event{blk: b, v: p, x: int32(x)})
	return p
}

// Finish builds the SSA form of the function, as Promote does with the
// recorded locals among its allocas. An error means the records do not
// describe the function: a pending read left without a definition, or
// an event in a block its local's declaration cannot reach.
func (ls *Locals) Finish() error {
	if _, err := ls.pr.construct(ls.f, ls); err != nil {
		return fmt.Errorf("ssa: @%s: %w", ls.f.FName, err)
	}
	return nil
}
