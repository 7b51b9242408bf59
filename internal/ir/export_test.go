package ir

// HasPayload reports whether in carries an opcode payload, for the
// layout test in package ir_test.
func HasPayload(in *Instr) bool { return in.ext != nil }
