package shader

// Program-binary serialization for Compiled: the payload behind the gles
// OES_get_program_binary-style entry points and core's persistent compile
// cache. The blob carries everything the VM and the link tables need at
// runtime — the bytecode stream, the Stats flush table, builtin
// call descriptors, the register layout, and interface-variable stubs
// (name/slot/type for every uniform, attribute and varying) — and nothing
// else: the full AST is dropped, so an unmarshaled Compiled supports VM
// execution and program linking but not the tree-walking interpreter.
//
// The format is versioned and defensive: UnmarshalCompiled never panics on
// truncated or corrupt input, it returns an error (callers fall back to a
// source compile). Compatibility across format revisions is intentionally
// not attempted — a version mismatch is an error, mirroring how GL program
// binaries are invalidated by driver updates.

import (
	"encoding/binary"
	"fmt"
	"math"

	"glescompute/internal/glsl"
)

// BinaryFormatVersion identifies the Compiled wire format. Bump it whenever
// the instruction set, the Stats layout, or any serialized structure
// changes shape; stale blobs then unmarshal to ErrBinaryVersion.
const BinaryFormatVersion = 2

var binaryMagic = [4]byte{'G', 'C', 'P', 'B'}

// ErrBinaryVersion reports a well-formed blob written by an incompatible
// format revision.
var ErrBinaryVersion = fmt.Errorf("shader: program binary format version mismatch (want %d)", BinaryFormatVersion)

// ---- writer ----

type binWriter struct{ buf []byte }

func (w *binWriter) u8(v uint8)    { w.buf = append(w.buf, v) }
func (w *binWriter) u32(v uint32)  { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *binWriter) u64(v uint64)  { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *binWriter) i32(v int32)   { w.u32(uint32(v)) }
func (w *binWriter) f32(v float32) { w.u32(math.Float32bits(v)) }
func (w *binWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *binWriter) stats(s *Stats) {
	w.u64(s.Add)
	w.u64(s.Mul)
	w.u64(s.Div)
	w.u64(s.Cmp)
	w.u64(s.Logic)
	w.u64(s.Mov)
	w.u64(s.Select)
	w.u64(s.SFU)
	w.u64(s.Tex)
	w.u64(s.Branch)
	w.u64(s.Call)
	w.u64(s.Invocations)
}

func (w *binWriter) typ(t *glsl.Type) {
	w.u8(uint8(t.Kind))
	switch t.Kind {
	case glsl.KArray:
		w.i32(int32(t.ArrayLen))
		w.typ(t.Elem)
	case glsl.KStruct:
		w.str(t.Struct.Name)
		w.u32(uint32(len(t.Struct.Fields)))
		for _, f := range t.Struct.Fields {
			w.str(f.Name)
			w.typ(f.Type)
		}
	}
}

func (w *binWriter) decls(ds []*glsl.VarDecl) {
	w.u32(uint32(len(ds)))
	for _, d := range ds {
		w.str(d.Name)
		w.i32(int32(d.Slot))
		w.typ(d.DeclType)
	}
}

// MarshalBinary serializes the Compiled into a self-contained program
// binary blob.
func (c *Compiled) MarshalBinary() ([]byte, error) {
	if c == nil || c.Prog == nil {
		return nil, fmt.Errorf("shader: MarshalBinary: nil Compiled")
	}
	w := &binWriter{}
	w.buf = append(w.buf, binaryMagic[:]...)
	w.u32(BinaryFormatVersion)
	w.u8(uint8(c.Prog.Stage))

	// Interface-variable stubs, enough to rebuild link tables and drive
	// SetGlobal/ReadGlobalFlat against the serialized register layout.
	w.decls(c.Prog.Uniforms)
	w.decls(c.Prog.Attributes)
	w.decls(c.Prog.Varyings)

	// Bytecode stream.
	w.u32(uint32(len(c.code)))
	for i := range c.code {
		in := &c.code[i]
		w.i32(int32(in.op))
		w.i32(in.dst)
		w.i32(in.a)
		w.i32(in.b)
		w.i32(in.c)
		w.i32(in.n)
		w.i32(in.aux)
		w.f32(in.imm)
	}
	w.i32(c.initEntry)
	w.i32(c.mainEntry)

	w.u32(uint32(len(c.stats)))
	for i := range c.stats {
		w.stats(&c.stats[i])
	}
	w.u32(uint32(len(c.poss)))
	for _, p := range c.poss {
		w.i32(int32(p.Line))
		w.i32(int32(p.Col))
	}
	w.u32(uint32(len(c.builtins)))
	for i := range c.builtins {
		b := &c.builtins[i]
		w.i32(int32(b.id))
		w.i32(b.dst)
		w.i32(b.args[0])
		w.i32(b.args[1])
		w.i32(b.args[2])
		for _, s := range b.scalar {
			if s {
				w.u8(1)
			} else {
				w.u8(0)
			}
		}
		w.i32(b.nargs)
		w.i32(b.nc)
		w.i32(b.an)
		w.i32(b.dim)
	}

	w.i32(c.nregs)
	w.i32(c.globalBase)
	w.i32(c.globalEnd)
	w.u32(uint32(len(c.globalOff)))
	for _, o := range c.globalOff {
		w.i32(o)
	}
	for _, o := range c.builtinOff {
		w.i32(o)
	}
	w.u32(uint32(len(c.mutatedRanges)))
	for _, r := range c.mutatedRanges {
		w.i32(r[0])
		w.i32(r[1])
	}
	// Only each function's entry PC is live at runtime (opCall dispatch);
	// frames and AST links are compile-time state.
	w.u32(uint32(len(c.funcs)))
	for _, fi := range c.funcs {
		w.i32(fi.entry)
	}
	w.i32(c.nloops)
	w.i32(c.maxDepth)
	return w.buf, nil
}

// ---- reader ----

type binReader struct {
	buf []byte
	off int
	err error
}

func (r *binReader) fail(format string, args ...interface{}) {
	if r.err == nil {
		r.err = fmt.Errorf("shader: program binary: "+format, args...)
	}
}

func (r *binReader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}

func (r *binReader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}

func (r *binReader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("truncated at byte %d", r.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}

func (r *binReader) i32() int32   { return int32(r.u32()) }
func (r *binReader) f32() float32 { return math.Float32frombits(r.u32()) }

func (r *binReader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if int(n) < 0 || r.off+int(n) > len(r.buf) {
		r.fail("string length %d overruns buffer at byte %d", n, r.off)
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// count reads a length prefix and bounds it by the minimum per-element
// encoded size, so corrupt counts fail fast instead of allocating wild.
func (r *binReader) count(minElemBytes int) int {
	n := r.u32()
	if r.err != nil {
		return 0
	}
	if minElemBytes > 0 && int(n) > (len(r.buf)-r.off)/minElemBytes {
		r.fail("element count %d overruns buffer at byte %d", n, r.off)
		return 0
	}
	return int(n)
}

func (r *binReader) stats() Stats {
	var s Stats
	s.Add = r.u64()
	s.Mul = r.u64()
	s.Div = r.u64()
	s.Cmp = r.u64()
	s.Logic = r.u64()
	s.Mov = r.u64()
	s.Select = r.u64()
	s.SFU = r.u64()
	s.Tex = r.u64()
	s.Branch = r.u64()
	s.Call = r.u64()
	s.Invocations = r.u64()
	return s
}

// maxTypeDepth bounds recursive type decoding; real GLSL ES types nest a
// handful of levels at most.
const maxTypeDepth = 32

func (r *binReader) typ(depth int) *glsl.Type {
	if depth > maxTypeDepth {
		r.fail("type nesting exceeds %d levels", maxTypeDepth)
		return glsl.TypeInvalid
	}
	kind := glsl.BasicKind(r.u8())
	if r.err != nil {
		return glsl.TypeInvalid
	}
	switch kind {
	case glsl.KArray:
		n := int(r.i32())
		elem := r.typ(depth + 1)
		if r.err != nil {
			return glsl.TypeInvalid
		}
		if n <= 0 || n > 1<<20 {
			r.fail("array length %d out of range", n)
			return glsl.TypeInvalid
		}
		return glsl.ArrayOf(elem, n)
	case glsl.KStruct:
		name := r.str()
		nf := r.count(5)
		info := &glsl.StructInfo{Name: name}
		for i := 0; i < nf; i++ {
			fname := r.str()
			ft := r.typ(depth + 1)
			info.Fields = append(info.Fields, glsl.StructField{Name: fname, Type: ft})
		}
		return &glsl.Type{Kind: glsl.KStruct, Struct: info}
	default:
		t := &glsl.Type{Kind: kind}
		if !validBasicKind(kind) {
			r.fail("unknown type kind %d", kind)
			return glsl.TypeInvalid
		}
		return t
	}
}

func validBasicKind(k glsl.BasicKind) bool {
	switch k {
	case glsl.KBool, glsl.KInt, glsl.KFloat,
		glsl.KVec2, glsl.KVec3, glsl.KVec4,
		glsl.KBVec2, glsl.KBVec3, glsl.KBVec4,
		glsl.KIVec2, glsl.KIVec3, glsl.KIVec4,
		glsl.KMat2, glsl.KMat3, glsl.KMat4,
		glsl.KSampler2D, glsl.KSamplerCube, glsl.KVoid:
		return true
	}
	return false
}

func (r *binReader) decls(qual glsl.Qualifier) []*glsl.VarDecl {
	n := r.count(9)
	var ds []*glsl.VarDecl
	for i := 0; i < n; i++ {
		name := r.str()
		slot := int(r.i32())
		t := r.typ(0)
		if r.err != nil {
			return nil
		}
		if slot < 0 || slot > 1<<20 {
			r.fail("variable %q has slot %d out of range", name, slot)
			return nil
		}
		ds = append(ds, &glsl.VarDecl{Name: name, DeclType: t, Qual: qual, Slot: slot})
	}
	return ds
}

// UnmarshalCompiled decodes a program binary produced by MarshalBinary.
// The result executes on the VM only (Prog carries interface stubs, not the
// AST); corrupt or truncated blobs return an error, version skew returns
// ErrBinaryVersion.
func UnmarshalCompiled(data []byte) (*Compiled, error) {
	r := &binReader{buf: data}
	if len(data) < 8 || data[0] != binaryMagic[0] || data[1] != binaryMagic[1] ||
		data[2] != binaryMagic[2] || data[3] != binaryMagic[3] {
		return nil, fmt.Errorf("shader: program binary: bad magic")
	}
	r.off = 4
	if v := r.u32(); v != BinaryFormatVersion {
		return nil, ErrBinaryVersion
	}
	stage := glsl.ShaderStage(r.u8())
	if stage != glsl.StageVertex && stage != glsl.StageFragment {
		return nil, fmt.Errorf("shader: program binary: bad stage %d", stage)
	}
	prog := &glsl.Program{Stage: stage}
	prog.Uniforms = r.decls(glsl.QualUniform)
	prog.Attributes = r.decls(glsl.QualAttribute)
	prog.Varyings = r.decls(glsl.QualVarying)

	c := &Compiled{Prog: prog}
	ncode := r.count(32)
	c.code = make([]instr, ncode)
	for i := 0; i < ncode; i++ {
		c.code[i] = instr{
			op:  opcode(r.i32()),
			dst: r.i32(),
			a:   r.i32(),
			b:   r.i32(),
			c:   r.i32(),
			n:   r.i32(),
			aux: r.i32(),
			imm: r.f32(),
		}
	}
	c.initEntry = r.i32()
	c.mainEntry = r.i32()

	nstats := r.count(96)
	c.stats = make([]Stats, nstats)
	for i := 0; i < nstats; i++ {
		c.stats[i] = r.stats()
	}
	nposs := r.count(8)
	c.poss = make([]glsl.Pos, nposs)
	for i := 0; i < nposs; i++ {
		c.poss[i] = glsl.Pos{Line: int(r.i32()), Col: int(r.i32())}
	}
	nb := r.count(39)
	c.builtins = make([]builtinDesc, nb)
	for i := 0; i < nb; i++ {
		b := &c.builtins[i]
		b.id = glsl.BuiltinID(r.i32())
		b.dst = r.i32()
		b.args[0] = r.i32()
		b.args[1] = r.i32()
		b.args[2] = r.i32()
		for j := range b.scalar {
			b.scalar[j] = r.u8() != 0
		}
		b.nargs = r.i32()
		b.nc = r.i32()
		b.an = r.i32()
		b.dim = r.i32()
	}

	c.nregs = r.i32()
	c.globalBase = r.i32()
	c.globalEnd = r.i32()
	noff := r.count(4)
	c.globalOff = make([]int32, noff)
	for i := 0; i < noff; i++ {
		c.globalOff[i] = r.i32()
	}
	for i := range c.builtinOff {
		c.builtinOff[i] = r.i32()
	}
	nmut := r.count(8)
	c.mutatedRanges = make([][2]int32, nmut)
	for i := 0; i < nmut; i++ {
		c.mutatedRanges[i] = [2]int32{r.i32(), r.i32()}
	}
	nfn := r.count(4)
	c.funcs = make([]*funcInfo, nfn)
	for i := 0; i < nfn; i++ {
		c.funcs[i] = &funcInfo{entry: r.i32()}
	}
	c.nloops = r.i32()
	c.maxDepth = r.i32()
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("shader: program binary: %d trailing bytes", len(data)-r.off)
	}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// maxBinaryRegs bounds the register file of a loaded program (the lane
// engine allocates LaneWidth floats per register); real programs use a
// few thousand.
const maxBinaryRegs = 1 << 20

// validate checks every cross-reference a hostile blob could break — each
// instruction's register operands by opcode, jump targets, table indices,
// builtin descriptors, the global and builtin layout, call and loop depth
// — so a corrupt or stale cache entry fails closed at load instead of
// crashing a VM mid-draw. Only dynamic (indexed) addresses are left to the
// VM, which checks them per lane and returns a RuntimeError.
func (c *Compiled) validate() error {
	bad := func(format string, args ...interface{}) error {
		return fmt.Errorf("shader: program binary: "+format, args...)
	}
	ncode := int32(len(c.code))
	if c.nregs < 0 || c.nregs > maxBinaryRegs {
		return bad("register file size %d out of range", c.nregs)
	}
	// span reports whether registers [r, r+n) lie inside the file.
	span := func(r, n int32) bool {
		return r >= 0 && n >= 0 && int64(r)+int64(n) <= int64(c.nregs)
	}
	pcOK := func(pc int32) bool { return pc >= 0 && pc < ncode }
	if ncode == 0 || !pcOK(c.initEntry) || !pcOK(c.mainEntry) {
		return bad("entry point out of range")
	}
	if op := c.code[ncode-1].op; op != opRet && op != opJmp {
		return bad("code falls off its end")
	}
	if c.globalBase < 0 || c.globalEnd < c.globalBase || c.globalEnd > c.nregs {
		return bad("global window [%d,%d) outside register file", c.globalBase, c.globalEnd)
	}
	inGlobals := func(off, n int32) bool {
		return off >= c.globalBase && n >= 0 && int64(off)+int64(n) <= int64(c.globalEnd)
	}
	for _, o := range c.globalOff {
		if !inGlobals(o, 0) {
			return bad("global offset %d outside the global window", o)
		}
	}
	for _, ds := range [][]*glsl.VarDecl{c.Prog.Uniforms, c.Prog.Attributes, c.Prog.Varyings} {
		for _, d := range ds {
			if d.Slot >= len(c.globalOff) || !inGlobals(c.globalOff[d.Slot], flatSize(d.DeclType)) {
				return bad("variable %q does not fit its global slot", d.Name)
			}
		}
	}
	for _, r := range c.mutatedRanges {
		// Entries are {offset, length} pairs (see buildMutatedRanges).
		if !inGlobals(r[0], r[1]) {
			return bad("mutated range at %d length %d outside the global window", r[0], r[1])
		}
	}
	builtinSlots := map[int]int32{glsl.BVSlotPosition: 4, glsl.BVSlotPointSize: 1}
	if c.Prog.Stage == glsl.StageFragment {
		builtinSlots = map[int]int32{glsl.BVSlotFragCoord: 4, glsl.BVSlotFrontFacing: 1,
			glsl.BVSlotPointCoord: 2, glsl.BVSlotFragColor: 4, glsl.BVSlotFragData: 4 * glsl.MaxDrawBuffers}
	}
	for slot, n := range builtinSlots {
		if !span(c.builtinOff[slot], n) {
			return bad("builtin slot %d outside register file", slot)
		}
	}
	for _, fi := range c.funcs {
		if !pcOK(fi.entry) {
			return bad("function entry %d out of range", fi.entry)
		}
	}
	if c.nloops < 0 || c.nloops > ncode {
		return bad("loop count %d out of range", c.nloops)
	}
	if c.maxDepth < 1 || c.maxDepth > int32(len(c.funcs))+2 {
		return bad("call depth %d out of range", c.maxDepth)
	}
	for i := range c.builtins {
		if err := c.builtins[i].validate(span); err != nil {
			return bad("builtin descriptor %d: %v", i, err)
		}
	}
	for pc := range c.code {
		if err := c.validateInstr(int32(pc), span); err != nil {
			return bad("instruction %d (op %d): %v", pc, c.code[pc].op, err)
		}
	}
	return nil
}

// validateInstr checks one instruction's operands against the tables and
// the register file.
func (c *Compiled) validateInstr(pc int32, span func(r, n int32) bool) error {
	in := &c.code[pc]
	ncode := int32(len(c.code))
	regs := func(rs ...[2]int32) error {
		for _, r := range rs {
			if !span(r[0], r[1]) {
				return fmt.Errorf("registers [%d,%d) outside the file of %d", r[0], r[0]+r[1], c.nregs)
			}
		}
		return nil
	}
	one := func(r int32) [2]int32 { return [2]int32{r, 1} }
	width := func(r, n int32) [2]int32 { return [2]int32{r, n} }
	// bcast is operand r's width: 1 when its broadcast flag is set.
	bcast := func(r int32, flag int32) [2]int32 {
		if flag != 0 {
			return one(r)
		}
		return width(r, in.n)
	}
	// swz checks the n packed nibble offsets of a swizzle from base.
	swz := func(base int32) error {
		for i := int32(0); i < in.n; i++ {
			if err := regs(one(base + (in.aux>>(4*i))&0xf)); err != nil {
				return err
			}
		}
		return nil
	}
	if in.n < 0 || in.n > c.nregs {
		return fmt.Errorf("width %d out of range", in.n)
	}
	switch in.op {
	case opNop, opRet, opDiscard:
		return nil
	case opStats:
		if in.aux < 0 || int(in.aux) >= len(c.stats) {
			return fmt.Errorf("stats entry %d of %d", in.aux, len(c.stats))
		}
	case opCall:
		if in.aux < 0 || int(in.aux) >= len(c.funcs) {
			return fmt.Errorf("function %d of %d", in.aux, len(c.funcs))
		}
	case opBuiltin:
		if in.aux < 0 || int(in.aux) >= len(c.builtins) {
			return fmt.Errorf("builtin descriptor %d of %d", in.aux, len(c.builtins))
		}
	case opJmp:
		if in.aux < 0 || in.aux >= ncode {
			return fmt.Errorf("jump target %d out of range", in.aux)
		}
	case opJz, opJnz:
		if in.aux < 0 || in.aux >= ncode {
			return fmt.Errorf("jump target %d out of range", in.aux)
		}
		// A structured branch jumps forward into its own region.
		if in.c != -1 && !(pc < in.aux && in.aux <= in.c && in.c < ncode) {
			return fmt.Errorf("reconvergence pc %d does not close the branch to %d", in.c, in.aux)
		}
		return regs(one(in.a))
	case opLoopReset, opLoopGuard:
		if in.aux < 0 || in.aux >= c.nloops {
			return fmt.Errorf("loop %d of %d", in.aux, c.nloops)
		}
		if in.op == opLoopGuard && (in.b < 0 || int(in.b) >= len(c.poss)) {
			return fmt.Errorf("position %d of %d", in.b, len(c.poss))
		}
	case opLoadImm, opDiscardTake:
		return regs(one(in.dst))
	case opDiscardHalt:
		return regs(one(in.a))
	case opZero:
		return regs(width(in.dst, in.n))
	case opMov, opNeg, opConvInt:
		return regs(width(in.dst, in.n), width(in.a, in.n))
	case opConvBool:
		return regs(width(in.dst, max(in.n, 1)), width(in.a, max(in.n, 1)))
	case opSplat:
		return regs(width(in.dst, in.n), one(in.a))
	case opSwizLoad:
		if err := regs(width(in.dst, in.n)); err != nil {
			return err
		}
		return swz(in.a)
	case opSwizStore:
		if err := regs(width(in.a, in.n)); err != nil {
			return err
		}
		return swz(in.dst)
	case opLoadInd, opLoadIndC:
		return regs(width(in.dst, in.n), one(in.a))
	case opStoreInd, opStoreIndC:
		return regs(one(in.a), width(in.b, in.n))
	case opAddrOff, opNot, opBoolNorm:
		return regs(one(in.dst), one(in.a))
	case opDynAddr, opDynPick:
		if in.b >= 0 {
			if err := regs(one(in.b)); err != nil {
				return err
			}
		}
		return regs(one(in.dst), one(in.a))
	case opAdd, opSub, opMul, opDivF, opDivI:
		return regs(width(in.dst, in.n), bcast(in.a, in.aux&1), bcast(in.b, in.aux&2))
	case opXorXor, opLt, opLe, opGt, opGe:
		return regs(one(in.dst), one(in.a), one(in.b))
	case opEqV, opNeV:
		return regs(one(in.dst), width(in.a, in.n), width(in.b, in.n))
	case opMatDiag, opMatMulMM, opMatMulMV, opMatMulVM:
		n := in.n
		if n < 1 || n > 4 {
			return fmt.Errorf("matrix dimension %d", n)
		}
		d, a, b := n*n, n*n, n*n
		switch in.op {
		case opMatDiag:
			a = 1
		case opMatMulMV:
			d, b = n, n
		case opMatMulVM:
			d, a = n, n
		}
		return regs(width(in.dst, d), width(in.a, a), width(in.b, b))
	default:
		return fmt.Errorf("unknown opcode")
	}
	return nil
}

// validate checks a builtin descriptor's registers against every
// component the VM reads or writes for it.
func (d *builtinDesc) validate(span func(r, n int32) bool) error {
	if d.nargs < 1 || d.nargs > 3 || d.nc < 0 || d.nc > 16 || d.an < 0 || d.an > 4 || d.dim < 0 || d.dim > 4 {
		return fmt.Errorf("shape nargs=%d nc=%d an=%d dim=%d out of range", d.nargs, d.nc, d.an, d.dim)
	}
	out := max(d.nc, 1)
	in := max(d.nc, d.an, d.dim*d.dim, 1)
	switch d.id {
	case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod,
		glsl.BTexture2DProj3, glsl.BTexture2DProj4, glsl.BTexture2DProjLod3, glsl.BTexture2DProjLod4,
		glsl.BTextureCube, glsl.BTextureCubeBias, glsl.BTextureCubeLod:
		out, in = max(out, 4), max(in, 4)
	case glsl.BCross:
		out, in = max(out, 3), max(in, 3)
	case glsl.BMatrixCompMult:
		out = max(out, d.dim*d.dim)
	case glsl.BLessThan, glsl.BLessThanEqual, glsl.BGreaterThan, glsl.BGreaterThanEqual,
		glsl.BEqual, glsl.BNotEqual, glsl.BNot,
		glsl.BNormalize, glsl.BFaceforward, glsl.BReflect, glsl.BRefract:
		out = max(out, d.an)
	}
	if !span(d.dst, out) {
		return fmt.Errorf("destination register %d width %d outside register file", d.dst, out)
	}
	for _, a := range d.args {
		if !span(a, in) {
			return fmt.Errorf("argument register %d width %d outside register file", a, in)
		}
	}
	return nil
}
