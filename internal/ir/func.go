package ir

import "strconv"

// Block is a basic block: a straight-line sequence of instructions
// ending in exactly one terminator.
type Block struct {
	name string
	// Fn is the enclosing function.
	Fn *Func
	// Instrs are the block's instructions in order. The last one is
	// the terminator.
	Instrs []*Instr
	// Preds are the predecessor blocks; maintained by
	// Func.RecomputeCFG.
	Preds []*Block

	// Index is the position of the block in Fn.Blocks; maintained by
	// Func.RecomputeCFG and used as a dense key by analyses.
	Index int
}

// Name returns the block's label.
func (b *Block) Name() string { return b.name }

// SetName relabels the block.
func (b *Block) SetName(n string) {
	b.name = n
	if b.Fn != nil {
		b.Fn.labels = nil // NewBlock reindexes
	}
}

// Term returns the block's terminator, or nil if the block is still
// under construction.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Succs returns the successor blocks, in terminator order.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Succs
}

// Phis returns the phi instructions at the head of the block.
func (b *Block) Phis() []*Instr {
	n := b.NumPhis()
	if n == 0 {
		return nil
	}
	return append([]*Instr(nil), b.Instrs[:n]...)
}

// NumPhis returns the number of phi instructions at the head of the
// block.
func (b *Block) NumPhis() int {
	for i, in := range b.Instrs {
		if in.Op != OpPhi {
			return i
		}
	}
	return len(b.Instrs)
}

// FirstNonPhi returns the index of the first instruction that is
// neither a phi nor a sigma, i.e. the position where ordinary
// instructions may be inserted.
func (b *Block) FirstNonPhi() int {
	for i, in := range b.Instrs {
		if in.Op != OpPhi && in.Op != OpSigma {
			return i
		}
	}
	return len(b.Instrs)
}

// Attach makes in an instruction of b without placing it: the caller
// puts it into b.Instrs. Insert and Append call it, and so does every
// pass that splices instructions in by hand. An instruction without an
// id, or with an id of another function, takes b's function's next id;
// one that moves within its function keeps its id.
func (b *Block) Attach(in *Instr) {
	if in.id == 0 || in.Blk == nil || in.Blk.Fn != b.Fn {
		in.id = 0
		if b.Fn != nil {
			in.id = b.Fn.newValueID() + 1
		}
	}
	in.Blk = b
}

// Insert places in at position i, shifting later instructions.
func (b *Block) Insert(i int, in *Instr) {
	b.Attach(in)
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[i+1:], b.Instrs[i:])
	b.Instrs[i] = in
}

// Append places in at the end of the block.
func (b *Block) Append(in *Instr) {
	b.Attach(in)
	b.Instrs = append(b.Instrs, in)
}

// RemoveAt deletes the instruction at position i.
func (b *Block) RemoveAt(i int) {
	copy(b.Instrs[i:], b.Instrs[i+1:])
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
}

// Func is a function definition: a signature plus a CFG of basic
// blocks. Blocks[0] is the entry block.
type Func struct {
	FName  string
	Params []*Param
	RetTyp Type
	Blocks []*Block
	// Mod is the enclosing module.
	Mod *Module

	// nextID is the counter behind generated value names and block
	// label suffixes; it only grows.
	nextID int
	names  valueNames

	// instrIDs counts the value ids handed to instructions; see
	// NumValues.
	instrIDs int32
	// index is the position AddFunc gave the function in Mod.Funcs, a
	// hint a ValueTable checks before it trusts it.
	index int

	// labels counts the blocks of Blocks by label, so NewBlock finds
	// a collision without a scan. labelsOf records the length, the
	// backing array and the last block of the Blocks it describes;
	// when Blocks no longer matches it (a pass resliced, filtered or
	// reassigned it), or after a Block.SetName, NewBlock rebuilds the
	// index.
	labels   map[string]int32
	labelsOf blocksShape
}

// blocksShape identifies a Blocks slice cheaply: its length, the
// address of its first element and its last block.
type blocksShape struct {
	n     int
	first **Block
	last  *Block
}

func shapeOf(bs []*Block) blocksShape {
	if len(bs) == 0 {
		return blocksShape{}
	}
	return blocksShape{len(bs), &bs[0], bs[len(bs)-1]}
}

// Name returns the function's name.
func (f *Func) Name() string { return f.FName }

// Entry returns the entry block, or nil for an empty function.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		return nil
	}
	return f.Blocks[0]
}

// Signature returns the function's type.
func (f *Func) Signature() *FuncType {
	ps := make([]Type, len(f.Params))
	for i, p := range f.Params {
		ps[i] = p.Typ
	}
	return &FuncType{Params: ps, Ret: f.RetTyp}
}

// NewBlock appends a fresh block with the given label (uniqued if it
// collides) and returns it.
func (f *Func) NewBlock(label string) *Block {
	if label == "" {
		label = "b"
	}
	f.syncLabels()
	name := label
	for f.labels[name] > 0 {
		f.nextID++
		name = label + "." + strconv.Itoa(f.nextID)
	}
	b := &Block{name: name, Fn: f, Index: len(f.Blocks)}
	f.Blocks = append(f.Blocks, b)
	f.labels[name]++
	f.labelsOf = shapeOf(f.Blocks)
	return b
}

// syncLabels rebuilds the label index unless it still describes
// Blocks.
func (f *Func) syncLabels() {
	if f.labels != nil && shapeOf(f.Blocks) == f.labelsOf {
		return
	}
	f.labels = make(map[string]int32, len(f.Blocks))
	for _, b := range f.Blocks {
		f.labels[b.name]++
	}
	f.labelsOf = shapeOf(f.Blocks)
}

// RecomputeCFG rebuilds predecessor lists and block indices from the
// terminators. Transformation passes call it after edge surgery.
func (f *Func) RecomputeCFG() {
	for i, b := range f.Blocks {
		b.Index = i
		b.Preds = b.Preds[:0]
	}
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			s.Preds = append(s.Preds, b)
		}
	}
}

// Instrs calls fn for every instruction in the function, in block
// order. Returning false stops the walk.
func (f *Func) Instrs(fn func(*Instr) bool) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !fn(in) {
				return
			}
		}
	}
}

// NumInstrs returns the number of instructions in the function.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// NumValues bounds the function's value ids: every parameter and
// every instruction has an id in [0, NumValues()). Parameters take
// 0 to len(Params)-1, their Index, and each instruction that joins the
// function takes the next id. A deleted instruction leaves a hole, and
// nothing reuses its id until RenumberValues.
func (f *Func) NumValues() int { return len(f.Params) + int(f.instrIDs) }

func (f *Func) newValueID() int32 {
	id := int32(len(f.Params)) + f.instrIDs
	f.instrIDs++
	return id
}

// RenumberValues closes the holes deletions left: the instructions
// take ids len(Params), len(Params)+1, ... in block order. A table
// indexed by id is valid only until the next transform of f, and this
// one invalidates every such table; ssa.Promote calls it once, at its
// end.
func (f *Func) RenumberValues() {
	id := int32(len(f.Params))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			id++
			in.id = id
		}
	}
	f.instrIDs = id - int32(len(f.Params))
}

// Values returns every SSA value defined in the function: parameters
// first, then instruction results in block order.
func (f *Func) Values() []Value {
	var vs []Value
	for _, p := range f.Params {
		vs = append(vs, p)
	}
	f.Instrs(func(in *Instr) bool {
		if in.HasResult() {
			vs = append(vs, in)
		}
		return true
	})
	return vs
}

// Module is a translation unit: globals plus functions.
type Module struct {
	Name    string
	Globals []*Global
	Funcs   []*Func
}

// NewModule returns an empty module.
func NewModule(name string) *Module { return &Module{Name: name} }

// AddGlobal declares a global with the given element type and returns
// it. The global's value type is a pointer to elem.
func (m *Module) AddGlobal(name string, elem Type) *Global {
	g := &Global{GName: name, Elem: elem, index: len(m.Globals)}
	m.Globals = append(m.Globals, g)
	return g
}

// GlobalByName returns the named global, or nil.
func (m *Module) GlobalByName(name string) *Global {
	for _, g := range m.Globals {
		if g.GName == name {
			return g
		}
	}
	return nil
}

// AddFunc creates a function with the given name, parameter names and
// types, and return type, and returns it.
func (m *Module) AddFunc(name string, ret Type, paramNames []string, paramTypes []Type) *Func {
	if len(paramNames) != len(paramTypes) {
		panic("ir: AddFunc parameter name/type count mismatch")
	}
	f := &Func{FName: name, RetTyp: ret, Mod: m, index: len(m.Funcs)}
	for i := range paramNames {
		f.Params = append(f.Params, &Param{
			PName: paramNames[i], Typ: paramTypes[i], Fn: f, Index: i,
		})
	}
	m.Funcs = append(m.Funcs, f)
	return f
}

// FuncByName returns the named function, or nil.
func (m *Module) FuncByName(name string) *Func {
	for _, f := range m.Funcs {
		if f.FName == name {
			return f
		}
	}
	return nil
}

// NumInstrs returns the number of instructions in the module.
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}
