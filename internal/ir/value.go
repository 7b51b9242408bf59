package ir

// Value is anything that can appear as an instruction operand: integer
// constants, globals, function parameters, and the results of
// instructions. Values are compared by identity except for constants,
// which are interned per (value, type) pair by the Builder but may also
// be constructed directly.
type Value interface {
	// Type returns the type of the value.
	Type() Type
	// Name returns the bare name of the value, without the %/@ sigil
	// used by the textual syntax. Constants return their decimal
	// representation.
	Name() string
	// Ref returns the operand rendering used by the printer, e.g.
	// "%x", "@g", or "42".
	Ref() string
	isValue()
}

// Const is an integer constant.
type Const struct {
	Val int64
	Typ Type
}

// ConstInt returns a 64-bit integer constant.
func ConstInt(v int64) *Const { return &Const{Val: v, Typ: I64} }

// ConstBool returns an i1 constant, 1 for true and 0 for false.
func ConstBool(b bool) *Const {
	v := int64(0)
	if b {
		v = 1
	}
	return &Const{Val: v, Typ: I1}
}

// Type returns the constant's type.
func (c *Const) Type() Type { return c.Typ }

// Name returns the decimal representation of the constant.
func (c *Const) Name() string { return string(AppendRef(nil, c)) }

// Ref returns the operand rendering of the constant.
func (c *Const) Ref() string { return c.Name() }

func (c *Const) isValue() {}

// Undef is an undefined value of a given type. It appears when SSA
// construction finds a load from a promoted alloca on a path with no
// preceding store; well-formed frontends never leave one reachable.
type Undef struct {
	Typ Type
}

// Type returns the undef's type.
func (u *Undef) Type() Type { return u.Typ }

// Name returns "undef".
func (u *Undef) Name() string { return "undef" }

// Ref returns "undef".
func (u *Undef) Ref() string { return "undef" }

func (u *Undef) isValue() {}

// Global is a module-level variable. Its value type is always a
// pointer to the declared element type, mirroring LLVM globals.
type Global struct {
	GName string
	// Elem is the type of the storage the global names.
	Elem Type

	// index is the position AddGlobal gave the global in
	// Module.Globals, a hint a ValueTable checks before it trusts it.
	index int
}

// Type returns the pointer type of the global.
func (g *Global) Type() Type { return Ptr(g.Elem) }

// Name returns the global's name without the @ sigil.
func (g *Global) Name() string { return g.GName }

// Ref returns "@name".
func (g *Global) Ref() string { return "@" + g.GName }

func (g *Global) isValue() {}

// Param is a formal parameter of a function.
type Param struct {
	PName string
	Typ   Type
	// Fn is the function the parameter belongs to.
	Fn *Func
	// Index is the position of the parameter in the signature.
	Index int
}

// ID returns the parameter's value id, its Index: parameters take
// ids 0 to len(Params)-1 of their function, ahead of its instructions.
func (p *Param) ID() int { return p.Index }

// ValueID returns the function that defines v and v's id in it. A
// constant, an undef, a global and an instruction without a function
// or without an id report (nil, -1): no id-indexed table holds them.
func ValueID(v Value) (*Func, int) {
	switch v := v.(type) {
	case *Instr:
		if v.id > 0 && v.Blk != nil && v.Blk.Fn != nil {
			return v.Blk.Fn, int(v.id) - 1
		}
	case *Param:
		if v.Fn != nil {
			return v.Fn, v.Index
		}
	}
	return nil, -1
}

// Type returns the parameter's type.
func (p *Param) Type() Type { return p.Typ }

// Name returns the parameter's name without the % sigil.
func (p *Param) Name() string { return p.PName }

// Ref returns "%name".
func (p *Param) Ref() string { return "%" + p.PName }

func (p *Param) isValue() {}
