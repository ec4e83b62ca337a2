package shader

// This file lowers a checked GLSL ES program to a linear bytecode stream
// over a flat float32 register file — the "shader compiler" of the
// simulated device. The lane engine in vm.go executes the stream over
// groups of up to 16 invocations with zero per-group heap allocation,
// replacing the tree-walking interpreter in the hot fragment path (the
// interpreter in interp.go/eval.go remains the reference implementation).
//
// Correctness contract: for every program, the VM must produce outputs
// that are bit-identical to the interpreter AND accumulate an identical
// Stats struct, because the vc4 timing model (and therefore every modeled
// speedup this repo reports) is derived from those counters. Operation
// counts are folded at compile time into a table of Stats deltas flushed
// at basic-block boundaries, so the VM pays a single opStats instruction
// per straight-line region instead of per-operation bookkeeping — and the
// lowering is free to emit fewer instructions than the source has
// operations (DESIGN.md §6l): every instruction it emits does work.
//
//   - Constants live in a read-only pool at the bottom of the register
//     file, filled once by NewVM: literals, negated literals and float
//     vector constructors of literals cost no instruction.
//   - Reads that select registers — a contiguous swizzle (v.xy), a
//     constant index — return the source registers instead of copying.
//   - A value wanted in a known place (a declared variable, a statement's
//     assignment target, a parameter, a return slot, a constructor slot)
//     is written there by the instruction that produces it, unless that
//     instruction would clobber one of its own operands.
//   - Calls to a function that cannot discard and whose only return is
//     its last statement (every runtime accessor and codec) are lowered
//     in place; other calls skip the discard bookkeeping when the callee
//     cannot discard.
//
// Register allocation is fully static: GLSL ES 1.00 forbids recursion (the
// checker enforces it), so every function's parameters, locals and return
// slot live at fixed offsets for the whole program, and scratch
// temporaries in the area of the function body being compiled (an inlined
// callee's come from its caller's). Aggregates (arrays, structs, matrices)
// occupy contiguous runs of registers in Type.FlatSize order, matching the
// flattened layout the GLES pipeline uses for varyings.

import (
	"encoding/binary"
	"fmt"
	"math"

	"glescompute/internal/glsl"
)

type opcode int32

const (
	opNop       opcode = iota
	opStats            // Stats.AddStats(statTable[aux])
	opJmp              // pc = aux
	opJz               // if regs[a] == 0: pc = aux; c = reconvergence pc, or -1 (see branch)
	opJnz              // if regs[a] != 0: pc = aux; c as for opJz
	opCall             // push pc+1; pc = funcEntry[aux]
	opRet              // pop pc, or finish when the call stack is empty
	opDiscard          // abort the invocation as discarded
	opLoopReset        // loopIters[aux] = 0
	opLoopGuard        // loopIters[aux]++ with runaway check; b = pos table index
	opZero             // regs[dst:dst+n] = 0
	opMov              // regs[dst:dst+n] = regs[a:a+n] (memmove semantics)
	opSplat            // regs[dst+i] = regs[a] for i < n
	opSwizLoad         // regs[dst+i] = regs[a+swz[i]] (swz packed in aux)
	opSwizStore        // regs[dst+swz[i]] = regs[a+i]
	opLoadInd          // regs[dst:dst+n] = regs[addr:addr+n], addr = int(regs[a])
	opStoreInd         // regs[addr:addr+n] = regs[b:b+n], addr = int(regs[a])
	opLoadIndC         // regs[dst+i] = regs[int(regs[a])+swz[i]]
	opStoreIndC        // regs[int(regs[a])+swz[i]] = regs[b+i]
	opDynAddr          // regs[dst] = base + clamp(trunc(regs[a]), aux)*n; base = regs[b] or c
	opDynPick          // regs[dst] = base + swz[clamp(trunc(regs[a]), limit)] (packed aux)
	opAddrOff          // regs[dst] = regs[a] + n
	opAdd              // componentwise; aux bit0/bit1 broadcast scalar a/b
	opSub
	opMul
	opDivF
	opDivI // trunc-toward-zero, x/0 = 0 (GLSL int semantics)
	opNeg
	opNot      // regs[dst] = regs[a]==0 ? 1 : 0
	opBoolNorm // regs[dst] = regs[a]!=0 ? 1 : 0
	opXorXor
	opLt // scalar compares on component 0
	opLe
	opGt
	opGe
	opEqV // regs[dst] = 1 if regs[a:a+n] == regs[b:b+n]
	opNeV
	opConvInt  // trunc toward zero per component
	opConvBool // !=0 → 1 per component
	opMatDiag  // zero n×n then diagonal = regs[a]
	opMatMulMM // n = dim
	opMatMulMV
	opMatMulVM
	opBuiltin     // aux = builtin descriptor index
	opDiscardTake // regs[dst] = pending-discard flag; clear the flag
	opDiscardHalt // if regs[a] != 0: finish the invocation as discarded
)

// instr is one VM instruction. All operands are absolute register indices
// into the flat register file; n is a component count, aux carries
// opcode-specific payload (jump target, packed swizzle, table index).
type instr struct {
	op  opcode
	dst int32
	a   int32
	b   int32
	c   int32
	n   int32
	aux int32
}

// builtinDesc is the static call descriptor for one opBuiltin site.
type builtinDesc struct {
	id     glsl.BuiltinID
	dst    int32
	args   [3]int32
	scalar [3]bool // argument k broadcasts its scalar (GLSL genType rules)
	nargs  int32
	nc     int32 // result component count
	an     int32 // argument-0 component count (geometric builtins)
	dim    int32 // matrix dimension (matrixCompMult)
}

// funcInfo records the static frame of one function.
type funcInfo struct {
	fd       *glsl.FuncDecl
	entry    int32
	retBase  int32
	retSize  int32
	localOff []int32 // local slot -> register base
	frameEnd int32   // registers [retBase, frameEnd) hold the return slot and locals
	inline   bool    // every call is lowered in place; no body is emitted
	idx      int32   // index in Compiled.funcs when a body is emitted
	tempBase int32
	tempMax  int32
}

// Compiled is an executable lowering of one shader program. It is immutable
// after Compile and safe to share between VMs (each draw worker gets its
// own VM over the same Compiled).
type Compiled struct {
	Prog *glsl.Program

	code      []instr
	initEntry int32
	mainEntry int32

	// pool holds the constants the code reads: registers [0, len(pool)),
	// filled once by NewVM and never written.
	pool []float32

	stats    []Stats    // opStats flush table
	poss     []glsl.Pos // positions for runtime (loop guard) errors
	builtins []builtinDesc

	nregs      int32
	globalBase int32
	globalEnd  int32
	globalOff  []int32 // by VarDecl.Slot
	builtinOff [glsl.NumBuiltinSlots]int32

	// mutatedRanges are the register ranges of globals written anywhere in
	// the program; the VM restores them from the snapshot between runs,
	// mirroring the interpreter's mutatedGlobals reset.
	mutatedRanges [][2]int32

	funcs    []*funcInfo // functions with an emitted body; opCall's aux indexes it
	nloops   int32
	maxDepth int32
}

// NumRegisters reports the size of the register file (diagnostics).
func (c *Compiled) NumRegisters() int { return int(c.nregs) }

// CodeLen reports the instruction count (diagnostics).
func (c *Compiled) CodeLen() int { return len(c.code) }

// PoolLen reports the number of constant-pool registers (diagnostics).
func (c *Compiled) PoolLen() int { return len(c.pool) }

// Bodies reports the number of functions with an emitted body — main and
// every callee that is not inlined (diagnostics).
func (c *Compiled) Bodies() int { return len(c.funcs) }

// compileError aborts compilation via panic/recover; Compile converts it
// into an error. Post-sema programs should never hit these — they guard
// against constructs the lowerer does not model.
type compileError struct{ err error }

type compiler struct {
	comp *Compiled
	prog *glsl.Program

	code    []instr
	pending Stats
	statIdx map[Stats]int32
	frames  map[*glsl.FuncDecl]*funcInfo
	sizes   map[*glsl.FuncDecl]int // see inlineSize
	poolIdx map[string]int32       // pool run -> first register

	fn      *funcInfo // the function whose body (and scratch area) is being emitted
	tempTop int32
	// The function being lowered — fn, or a callee inlined into it: the
	// register of each of its local slots, and the register runs that
	// keep their value while a call it makes runs (see isSteady).
	locals []int32
	steady [][2]int32
	loops  []loopCtx
	sealed bool // the pool is laid out; konst may only find constants
}

type loopCtx struct {
	breakL    *label
	continueL *label
}

type label struct {
	pc     int32
	fixes  []int32 // instructions whose jump target (aux) is this label
	rfixes []int32 // instructions whose reconvergence pc (c) is this label
}

func (cc *compiler) fail(pos glsl.Pos, format string, args ...interface{}) {
	panic(compileError{fmt.Errorf("shader compile at %s: %s", pos, fmt.Sprintf(format, args...))})
}

// Compile lowers a checked program to bytecode. It returns an error for
// constructs the lowerer cannot model (callers fall back to the AST
// interpreter).
func Compile(prog *glsl.Program) (c *Compiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			if ce, ok := r.(compileError); ok {
				c, err = nil, ce.err
				return
			}
			panic(r)
		}
	}()
	if prog.Entry == nil || prog.Entry.Body == nil {
		return nil, fmt.Errorf("shader compile: program has no entry point")
	}
	c = &Compiled{Prog: prog}
	cc := &compiler{comp: c, prog: prog, statIdx: map[Stats]int32{}, frames: map[*glsl.FuncDecl]*funcInfo{},
		sizes: map[*glsl.FuncDecl]int{}, poolIdx: map[string]int32{}}

	// Register layout: the constant pool first, then builtin slots, then
	// globals, then per-function frames (return slot + locals), then
	// per-function scratch areas.
	reach := cc.reachableFunctions()
	cc.layoutPool(reach)
	cc.layoutBuiltins()
	cc.layoutGlobals()
	for _, fd := range reach {
		fi := &funcInfo{fd: fd, idx: -1}
		cc.frames[fd] = fi
		fi.retSize = flatSize(fd.Ret)
		fi.retBase = c.nregs
		c.nregs += fi.retSize
		fi.localOff = cc.layoutLocals(fd)
		fi.frameEnd = c.nregs
		fi.inline = fd != prog.Entry && cc.inlined(fd)
		if !fi.inline {
			fi.idx = int32(len(c.funcs))
			c.funcs = append(c.funcs, fi)
		}
	}
	c.maxDepth = int32(len(c.funcs)) + 2

	// Compile every emitted function body, then the global-init segment.
	// Each gets its own scratch area appended after compilation (the
	// high-water mark is only known afterwards).
	for _, fi := range c.funcs {
		cc.compileFunction(fi)
	}
	cc.compileInit()

	c.code = cc.code
	cc.buildMutatedRanges()
	return c, nil
}

// layoutPool places every constant the lowering reads at the bottom of
// the register file: the folded constant expressions of every reachable
// function and global initializer, folded const globals, and the 1 that
// ++, -- and || use.
func (cc *compiler) layoutPool(reach []*glsl.FuncDecl) {
	cc.konst([]float32{1})
	collect := func(e glsl.Expr) bool {
		if v, _, ok := constValue(e); ok {
			cc.konst(v)
		}
		return false
	}
	for _, fd := range reach {
		findStmt(fd.Body, nil, collect)
	}
	for _, g := range cc.prog.Globals {
		switch {
		case g.ConstVal != nil:
			cc.konst(constGlobal(g))
		case g.Init != nil:
			findExpr(g.Init, collect)
		}
	}
	cc.sealed = true
	cc.comp.nregs = int32(len(cc.comp.pool))
}

// konst returns the first register of the pool run holding v (runs are
// told apart bit for bit: 0 and -0 differ).
func (cc *compiler) konst(v []float32) int32 {
	key := make([]byte, 0, 4*len(v))
	for _, x := range v {
		key = binary.LittleEndian.AppendUint32(key, math.Float32bits(x))
	}
	if r, ok := cc.poolIdx[string(key)]; ok {
		return r
	}
	if cc.sealed {
		cc.fail(glsl.Pos{}, "constant %v missing from the pool", v)
	}
	r := int32(len(cc.comp.pool))
	cc.comp.pool = append(cc.comp.pool, v...)
	cc.poolIdx[string(key)] = r
	return r
}

// constGlobal is a folded const global's flattened value, zero-padded to
// its type's size (FromConst).
func constGlobal(g *glsl.VarDecl) []float32 {
	v := make([]float32, flatSize(g.DeclType))
	copy(v, g.ConstVal.F)
	return v
}

// constValue reports the flattened value of a constant expression the
// pool holds — a literal, a negated numeric literal, or a float vector
// constructor whose arguments are those — with the Stats the interpreter
// charges for evaluating it.
func constValue(e glsl.Expr) ([]float32, Stats, bool) {
	var s Stats
	scalar := func(e glsl.Expr) (float32, bool) {
		switch n := e.(type) {
		case *glsl.IntLit:
			return float32(n.Val), true
		case *glsl.FloatLit:
			return n.Val, true
		case *glsl.BoolLit:
			return b2f(n.Val), true
		case *glsl.UnaryExpr:
			if n.Op != glsl.TokMinus {
				return 0, false
			}
			var x float32
			switch l := n.X.(type) {
			case *glsl.IntLit:
				x = float32(l.Val)
			case *glsl.FloatLit:
				x = l.Val
			default:
				return 0, false
			}
			s.Add++
			return -x, true
		}
		return 0, false
	}
	if x, ok := scalar(e); ok {
		return []float32{x}, s, true
	}
	n, ok := e.(*glsl.CallExpr)
	if !ok || n.Kind != glsl.CallTypeConstructor || !n.CtorType.IsVector() ||
		n.CtorType.ComponentType().Kind != glsl.KFloat {
		return nil, s, false
	}
	size := n.CtorType.VectorSize()
	var v []float32
	for _, a := range n.Args {
		x, ok := scalar(a)
		if !ok {
			return nil, s, false
		}
		v = append(v, x)
	}
	switch {
	case len(v) == 1:
		for len(v) < size {
			v = append(v, v[0])
		}
	case len(v) != size:
		return nil, s, false
	}
	s.Mov += uint64(size)
	return v, s, true
}

func (cc *compiler) layoutBuiltins() {
	c := cc.comp
	if cc.prog.Stage == glsl.StageVertex {
		c.builtinOff[glsl.BVSlotPosition] = c.nregs
		c.nregs += 4
		c.builtinOff[glsl.BVSlotPointSize] = c.nregs
		c.nregs++
	} else {
		c.builtinOff[glsl.BVSlotFragCoord] = c.nregs
		c.nregs += 4
		c.builtinOff[glsl.BVSlotFrontFacing] = c.nregs
		c.nregs++
		c.builtinOff[glsl.BVSlotPointCoord] = c.nregs
		c.nregs += 2
		c.builtinOff[glsl.BVSlotFragColor] = c.nregs
		c.nregs += 4
		c.builtinOff[glsl.BVSlotFragData] = c.nregs
		c.nregs += 4 * glsl.MaxDrawBuffers
	}
}

func (cc *compiler) layoutGlobals() {
	c := cc.comp
	c.globalBase = c.nregs
	c.globalOff = make([]int32, len(cc.prog.Globals))
	for i, g := range cc.prog.Globals {
		c.globalOff[i] = c.nregs
		c.nregs += flatSize(g.DeclType)
		if g.Slot != i {
			cc.fail(g.Pos, "global %q slot %d out of order", g.Name, g.Slot)
		}
	}
	c.globalEnd = c.nregs
}

// layoutLocals assigns a register base to every local slot of fd.
func (cc *compiler) layoutLocals(fd *glsl.FuncDecl) []int32 {
	decls := make([]*glsl.VarDecl, fd.LocalSize)
	for _, p := range fd.Params {
		decls[p.Slot] = p
	}
	findStmt(fd.Body, func(s glsl.Stmt) bool {
		if n, ok := s.(*glsl.DeclStmt); ok {
			for _, v := range n.Vars {
				decls[v.Slot] = v
			}
		}
		return false
	}, nil)
	off := make([]int32, fd.LocalSize)
	for i, d := range decls {
		off[i] = cc.comp.nregs
		size := int32(1)
		if d != nil {
			size = flatSize(d.DeclType)
		}
		cc.comp.nregs += size
	}
	return off
}

// reachableFunctions returns every function reachable from main or a
// global initializer, in deterministic discovery order (main first).
func (cc *compiler) reachableFunctions() []*glsl.FuncDecl {
	var order []*glsl.FuncDecl
	seen := map[*glsl.FuncDecl]bool{}
	var calls func(e glsl.Expr) bool
	visit := func(fd *glsl.FuncDecl) {
		if fd == nil || seen[fd] {
			return
		}
		if fd.Body == nil {
			cc.fail(fd.Pos, "call to undefined function %q", fd.Name)
		}
		seen[fd] = true
		order = append(order, fd)
		findStmt(fd.Body, nil, calls)
	}
	calls = func(e glsl.Expr) bool {
		if n, ok := e.(*glsl.CallExpr); ok && n.Kind == glsl.CallUser {
			visit(n.Func)
		}
		return false
	}
	visit(cc.prog.Entry)
	for _, g := range cc.prog.Globals {
		if g.Init != nil && g.ConstVal == nil {
			findExpr(g.Init, calls)
		}
	}
	return order
}

// ---- AST walks ----

// findExpr walks e and every expression nested in it, pre-order, and
// reports whether fn returned true for one of them (which ends the walk).
func findExpr(e glsl.Expr, fn func(glsl.Expr) bool) bool {
	if e == nil {
		return false
	}
	if fn(e) {
		return true
	}
	switch n := e.(type) {
	case *glsl.BinaryExpr:
		return findExpr(n.X, fn) || findExpr(n.Y, fn)
	case *glsl.UnaryExpr:
		return findExpr(n.X, fn)
	case *glsl.CondExpr:
		return findExpr(n.Cond, fn) || findExpr(n.Then, fn) || findExpr(n.Else, fn)
	case *glsl.AssignExpr:
		return findExpr(n.LHS, fn) || findExpr(n.RHS, fn)
	case *glsl.SequenceExpr:
		return findExpr(n.X, fn) || findExpr(n.Y, fn)
	case *glsl.CallExpr:
		for _, a := range n.Args {
			if findExpr(a, fn) {
				return true
			}
		}
	case *glsl.FieldExpr:
		return findExpr(n.X, fn)
	case *glsl.IndexExpr:
		return findExpr(n.X, fn) || findExpr(n.Index, fn)
	}
	return false
}

// findStmt walks s and every statement nested in it, pre-order, calling
// fs (when non-nil) on each statement and findExpr(·, fe) (when fe is
// non-nil) on each expression they hold; it reports whether a callback
// returned true (which ends the walk).
func findStmt(s glsl.Stmt, fs func(glsl.Stmt) bool, fe func(glsl.Expr) bool) bool {
	if s == nil {
		return false
	}
	if fs != nil && fs(s) {
		return true
	}
	ex := func(e glsl.Expr) bool { return fe != nil && findExpr(e, fe) }
	switch n := s.(type) {
	case *glsl.BlockStmt:
		for _, st := range n.Stmts {
			if findStmt(st, fs, fe) {
				return true
			}
		}
	case *glsl.DeclStmt:
		for _, v := range n.Vars {
			if ex(v.Init) {
				return true
			}
		}
	case *glsl.ExprStmt:
		return ex(n.X)
	case *glsl.IfStmt:
		return ex(n.Cond) || findStmt(n.Then, fs, fe) || findStmt(n.Else, fs, fe)
	case *glsl.ForStmt:
		return findStmt(n.InitStmt, fs, fe) || ex(n.Cond) || ex(n.Post) || findStmt(n.Body, fs, fe)
	case *glsl.WhileStmt:
		return ex(n.Cond) || findStmt(n.Body, fs, fe)
	case *glsl.DoWhileStmt:
		return findStmt(n.Body, fs, fe) || ex(n.Cond)
	case *glsl.ReturnStmt:
		return ex(n.X)
	}
	return false
}

func isDiscard(s glsl.Stmt) bool { _, ok := s.(*glsl.DiscardStmt); return ok }

func isReturnOrDiscard(s glsl.Stmt) bool {
	_, ret := s.(*glsl.ReturnStmt)
	return ret || isDiscard(s)
}

// endsInReturn reports whether fd's last top-level statement is a return,
// so control never falls off the end of its body.
func endsInReturn(fd *glsl.FuncDecl) bool {
	st := fd.Body.Stmts
	if len(st) == 0 {
		return false
	}
	_, ok := st[len(st)-1].(*glsl.ReturnStmt)
	return ok
}

// maxInlineNodes bounds the AST nodes a function may expand to with its
// inlined callees in place. A function over it keeps a body, so inlining
// cannot grow code exponentially (a chain of functions each calling the
// next twice).
const maxInlineNodes = 4096

// inlined reports whether calls to fd are lowered in place: its body
// cannot discard, its only return, if any, is its last statement (a
// value-returning function must have one), and it expands to at most
// maxInlineNodes.
func (cc *compiler) inlined(fd *glsl.FuncDecl) bool {
	return cc.inlineSize(fd) <= maxInlineNodes
}

// inlineSize is the number of AST nodes fd expands to with its inlined
// callees in place, or maxInlineNodes+1 when fd cannot be inlined at all.
func (cc *compiler) inlineSize(fd *glsl.FuncDecl) int {
	if n, ok := cc.sizes[fd]; ok {
		return n
	}
	n := 0
	st := fd.Body.Stmts
	if endsInReturn(fd) {
		st = st[:len(st)-1]
	} else if flatSize(fd.Ret) > 0 {
		n = maxInlineNodes + 1
	}
	for _, s := range st {
		if findStmt(s, isReturnOrDiscard, nil) {
			n = maxInlineNodes + 1
		}
	}
	if n == 0 {
		findStmt(fd.Body, func(glsl.Stmt) bool { n++; return false }, func(e glsl.Expr) bool {
			n++
			if c, ok := e.(*glsl.CallExpr); ok && c.Kind == glsl.CallUser && cc.inlined(c.Func) {
				n += cc.inlineSize(c.Func)
			}
			return false
		})
	}
	cc.sizes[fd] = n
	return n
}

// rootVar is the variable an l-value expression stores into.
func rootVar(e glsl.Expr) *glsl.VarDecl {
	for {
		switch n := e.(type) {
		case *glsl.Ident:
			return n.Ref
		case *glsl.FieldExpr:
			e = n.X
		case *glsl.IndexExpr:
			e = n.X
		default:
			return nil
		}
	}
}

// writes reports whether fd's body can store into its parameter p.
func writes(fd *glsl.FuncDecl, p *glsl.VarDecl) bool {
	return findStmt(fd.Body, nil, func(e glsl.Expr) bool {
		switch n := e.(type) {
		case *glsl.AssignExpr:
			return rootVar(n.LHS) == p
		case *glsl.UnaryExpr:
			return (n.Op == glsl.TokInc || n.Op == glsl.TokDec) && rootVar(n.X) == p
		case *glsl.CallExpr:
			if n.Kind == glsl.CallUser && n.Func != nil {
				for i, q := range n.Func.Params {
					if q.Dir != glsl.DirIn && rootVar(n.Args[i]) == p {
						return true
					}
				}
			}
		}
		return false
	})
}

// containsUserCall reports whether e contains any user function call.
func containsUserCall(e glsl.Expr) bool {
	return findExpr(e, func(e glsl.Expr) bool {
		n, ok := e.(*glsl.CallExpr)
		return ok && n.Kind == glsl.CallUser
	})
}

// ---- Emission helpers ----

func (cc *compiler) emit(in instr) int32 {
	cc.code = append(cc.code, in)
	return int32(len(cc.code) - 1)
}

// move copies n registers from src to dst unless they are the same.
func (cc *compiler) move(dst, src, n int32) {
	if dst != src && n > 0 {
		cc.emit(instr{op: opMov, dst: dst, a: src, n: n})
	}
}

func (cc *compiler) flushStats() {
	if cc.pending == (Stats{}) {
		return
	}
	idx, ok := cc.statIdx[cc.pending]
	if !ok {
		idx = int32(len(cc.comp.stats))
		cc.comp.stats = append(cc.comp.stats, cc.pending)
		cc.statIdx[cc.pending] = idx
	}
	cc.emit(instr{op: opStats, aux: idx})
	cc.pending = Stats{}
}

func (cc *compiler) newLabel() *label { return &label{pc: -1} }

func (cc *compiler) bind(l *label) {
	cc.flushStats()
	l.pc = int32(len(cc.code))
	for _, at := range l.fixes {
		cc.code[at].aux = l.pc
	}
	for _, at := range l.rfixes {
		cc.code[at].c = l.pc
	}
	l.fixes, l.rfixes = nil, nil
}

// jump emits an unconditional jump, or a conditional one the lane engine
// cannot mask (a loop exit or back-edge condition): lanes that disagree
// on it are serialized.
func (cc *compiler) jump(op opcode, cond int32, l *label) {
	cc.branch(op, cond, l, nil)
}

// branch emits a jump to l. A non-nil reconv marks a structured forward
// branch — if/else, ?:, &&, || — whose two sides meet again at reconv:
// the lane engine runs it masked when lanes disagree.
func (cc *compiler) branch(op opcode, cond int32, l, reconv *label) {
	cc.flushStats()
	at := cc.emit(instr{op: op, a: cond, aux: l.pc, c: -1})
	if l.pc < 0 {
		l.fixes = append(l.fixes, at)
	}
	if reconv != nil {
		reconv.rfixes = append(reconv.rfixes, at)
	}
}

func (cc *compiler) posIndex(p glsl.Pos) int32 {
	cc.comp.poss = append(cc.comp.poss, p)
	return int32(len(cc.comp.poss) - 1)
}

// temp allocates n scratch registers in the current frame.
func (cc *compiler) temp(n int32) int32 {
	r := cc.fn.tempBase + cc.tempTop
	cc.tempTop += n
	if cc.tempTop > cc.fn.tempMax {
		cc.fn.tempMax = cc.tempTop
	}
	return r
}

// target is where a value is wanted: the n registers from r, or anywhere
// when r < 0. fresh marks registers the expression being lowered cannot
// read — a variable being declared, a parameter or return slot, a slot of
// a constructor under construction — which a multi-instruction producer
// may fill piece by piece; any other target is written only by a value's
// last instruction.
type target struct {
	r     int32
	fresh bool
}

var anywhere = target{r: -1}

// operand is a run of n registers from r that an instruction reads. A
// step operand is read one component per result component, each before
// that component is written, so it may coincide exactly with the
// destination.
type operand struct {
	r, n int32
	step bool
}

// out picks the n registers an instruction writes its result to: the
// target when writing there cannot clobber one of the instruction's
// operands before it is read, else fresh scratch.
func (cc *compiler) out(t target, n int32, ops ...operand) int32 {
	if t.r < 0 {
		return cc.temp(n)
	}
	for _, o := range ops {
		if o.r < t.r+n && t.r < o.r+o.n && !(o.step && o.r == t.r && o.n == n) {
			return cc.temp(n)
		}
	}
	return t.r
}

// slots picks the n registers a multi-instruction producer fills: a fresh
// target, else scratch.
func (cc *compiler) slots(t target, n int32) int32 {
	if t.r >= 0 && t.fresh {
		return t.r
	}
	return cc.temp(n)
}

func flatSize(t *glsl.Type) int32 {
	if t == nil || t.Kind == glsl.KVoid {
		return 0
	}
	return int32(t.FlatSize())
}

func compCount(t *glsl.Type) int32 { return int32(t.ComponentCount()) }

// fieldOffset is the flat offset of field idx inside struct type t.
func fieldOffset(t *glsl.Type, idx int) int32 {
	var off int32
	for i := 0; i < idx; i++ {
		off += flatSize(t.Struct.Fields[i].Type)
	}
	return off
}

func packSwz(swz []int) int32 {
	var p int32
	for i, s := range swz {
		p |= int32(s) << (4 * i)
	}
	return p
}

// contiguous reports whether a swizzle selects consecutive components in
// order (.x, .yz, .xyzw), so reading it needs no copy.
func contiguous(swz []int) bool {
	for i := range swz {
		if swz[i] != swz[0]+i {
			return false
		}
	}
	return true
}

// ---- Function compilation ----

func (cc *compiler) compileFunction(fi *funcInfo) {
	cc.fn, cc.locals, cc.steady = fi, fi.localOff, [][2]int32{{fi.retBase, fi.frameEnd}}
	cc.tempTop = 0
	fi.tempBase = cc.comp.nregs
	fi.entry = int32(len(cc.code))
	ends := endsInReturn(fi.fd)
	if fi.retSize > 0 && !ends {
		// Falling off the end of a value-returning function yields the
		// zero value, like the interpreter's hasRet handling.
		cc.emit(instr{op: opZero, dst: fi.retBase, n: fi.retSize})
	}
	cc.compileStmt(fi.fd.Body)
	if !ends {
		cc.flushStats()
		cc.emit(instr{op: opRet})
	}
	cc.comp.nregs = fi.tempBase + fi.tempMax
	if fi.fd == cc.prog.Entry {
		cc.comp.mainEntry = fi.entry
	}
}

// compileInit emits the global-initializer segment (the code InitGlobals
// runs once per executor, with the same Stats accounting as the
// interpreter's InitGlobals).
func (cc *compiler) compileInit() {
	fi := &funcInfo{fd: cc.prog.Entry} // pseudo-frame for scratch space
	cc.fn, cc.locals, cc.steady = fi, nil, nil
	cc.tempTop = 0
	fi.tempBase = cc.comp.nregs
	cc.comp.initEntry = int32(len(cc.code))
	for i, g := range cc.prog.Globals {
		base := cc.comp.globalOff[i]
		size := flatSize(g.DeclType)
		if g.Init == nil {
			continue
		}
		var r int32
		if g.ConstVal != nil {
			r = cc.konst(constGlobal(g)) // FromConst: folded, zero-padded — no stats
		} else {
			// Not fresh: a function the initializer calls may read the
			// global.
			r, _ = cc.compileTo(g.Init, target{r: base})
		}
		cc.move(base, r, size)
	}
	cc.flushStats()
	cc.emit(instr{op: opRet})
	cc.comp.nregs = fi.tempBase + fi.tempMax
}

func (cc *compiler) buildMutatedRanges() {
	for _, slot := range MutatedGlobalSlots(cc.prog) {
		off := cc.comp.globalOff[slot]
		size := flatSize(cc.prog.Globals[slot].DeclType)
		if size > 0 {
			cc.comp.mutatedRanges = append(cc.comp.mutatedRanges, [2]int32{off, size})
		}
	}
}

// varReg returns the register base of a resolved variable reference.
func (cc *compiler) varReg(n *glsl.Ident) int32 {
	if n.BRef != nil {
		return cc.comp.builtinOff[n.BRef.Slot]
	}
	if n.Ref == nil {
		cc.fail(n.Pos, "unresolved identifier %q", n.Name)
	}
	if n.Ref.Storage == glsl.StorageGlobal {
		return cc.comp.globalOff[n.Ref.Slot]
	}
	if cc.locals == nil {
		cc.fail(n.Pos, "local %q used outside a function frame", n.Name)
	}
	return cc.locals[n.Ref.Slot]
}

// ---- Statements ----

func (cc *compiler) compileStmt(s glsl.Stmt) {
	mark := cc.tempTop
	defer func() { cc.tempTop = mark }()
	switch n := s.(type) {
	case *glsl.BlockStmt:
		for _, st := range n.Stmts {
			cc.compileStmt(st)
		}
	case *glsl.DeclStmt:
		for _, v := range n.Vars {
			dst := cc.locals[v.Slot]
			size := flatSize(v.DeclType)
			if v.Init == nil {
				cc.emit(instr{op: opZero, dst: dst, n: size})
				continue
			}
			sub := cc.tempTop
			r, _ := cc.compileTo(v.Init, target{dst, true})
			cc.pending.Mov += uint64(v.DeclType.ComponentCount())
			cc.move(dst, r, size)
			cc.tempTop = sub
		}
	case *glsl.ExprStmt:
		cc.effect(n.X)
	case *glsl.EmptyStmt:
	case *glsl.IfStmt:
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Branch++
		elseL := cc.newLabel()
		endL := cc.newLabel()
		reconv := endL
		if n.Else == nil {
			reconv = elseL
		}
		cc.branch(opJz, cond, elseL, reconv)
		cc.compileStmt(n.Then)
		if n.Else != nil {
			cc.jump(opJmp, 0, endL)
			cc.bind(elseL)
			cc.compileStmt(n.Else)
			cc.bind(endL)
		} else {
			cc.bind(elseL)
		}
	case *glsl.ForStmt:
		if n.InitStmt != nil {
			cc.compileStmt(n.InitStmt)
		}
		loopID := cc.comp.nloops
		cc.comp.nloops++
		head, post, exit := cc.newLabel(), cc.newLabel(), cc.newLabel()
		cc.emit(instr{op: opLoopReset, aux: loopID})
		cc.bind(head)
		cc.emit(instr{op: opLoopGuard, aux: loopID, b: cc.posIndex(n.Pos)})
		if n.Cond != nil {
			cond, _ := cc.compileExpr(n.Cond)
			cc.pending.Branch++
			cc.jump(opJz, cond, exit)
		}
		cc.loops = append(cc.loops, loopCtx{breakL: exit, continueL: post})
		cc.compileStmt(n.Body)
		cc.loops = cc.loops[:len(cc.loops)-1]
		cc.bind(post)
		if n.Post != nil {
			cc.effect(n.Post)
		}
		cc.jump(opJmp, 0, head)
		cc.bind(exit)
	case *glsl.WhileStmt:
		loopID := cc.comp.nloops
		cc.comp.nloops++
		head, exit := cc.newLabel(), cc.newLabel()
		cc.emit(instr{op: opLoopReset, aux: loopID})
		cc.bind(head)
		cc.emit(instr{op: opLoopGuard, aux: loopID, b: cc.posIndex(n.Pos)})
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Branch++
		cc.jump(opJz, cond, exit)
		cc.loops = append(cc.loops, loopCtx{breakL: exit, continueL: head})
		cc.compileStmt(n.Body)
		cc.loops = cc.loops[:len(cc.loops)-1]
		cc.jump(opJmp, 0, head)
		cc.bind(exit)
	case *glsl.DoWhileStmt:
		loopID := cc.comp.nloops
		cc.comp.nloops++
		head, condL, exit := cc.newLabel(), cc.newLabel(), cc.newLabel()
		cc.emit(instr{op: opLoopReset, aux: loopID})
		cc.bind(head)
		cc.emit(instr{op: opLoopGuard, aux: loopID, b: cc.posIndex(n.Pos)})
		cc.loops = append(cc.loops, loopCtx{breakL: exit, continueL: condL})
		cc.compileStmt(n.Body)
		cc.loops = cc.loops[:len(cc.loops)-1]
		cc.bind(condL)
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Branch++
		cc.jump(opJnz, cond, head)
		cc.bind(exit)
	case *glsl.ReturnStmt:
		// Only emitted bodies reach here: an inlined callee's one return
		// is lowered by compileUserCall.
		if n.X != nil {
			r, _ := cc.compileTo(n.X, target{cc.fn.retBase, true})
			cc.move(cc.fn.retBase, r, cc.fn.retSize)
		}
		cc.flushStats()
		cc.emit(instr{op: opRet})
	case *glsl.BreakStmt:
		if len(cc.loops) == 0 {
			cc.fail(n.NodePos(), "break outside loop")
		}
		cc.jump(opJmp, 0, cc.loops[len(cc.loops)-1].breakL)
	case *glsl.ContinueStmt:
		if len(cc.loops) == 0 {
			cc.fail(n.NodePos(), "continue outside loop")
		}
		cc.jump(opJmp, 0, cc.loops[len(cc.loops)-1].continueL)
	case *glsl.DiscardStmt:
		cc.flushStats()
		cc.emit(instr{op: opDiscard})
	default:
		cc.fail(s.NodePos(), "unknown statement %T", s)
	}
}

// effect lowers an expression evaluated only for its side effects — a
// statement, a for-loop step, the left operand of a comma. Assigning or
// incrementing a place known at compile time writes it directly instead
// of going through a copy of the expression's value.
func (cc *compiler) effect(e glsl.Expr) {
	switch n := e.(type) {
	case *glsl.AssignExpr:
		if p, size, ok := cc.staticPlace(n.LHS); ok {
			var r int32
			if n.Op == glsl.TokAssign {
				r, _ = cc.compileTo(n.RHS, target{r: p})
			} else {
				rhs, _ := cc.compileExpr(n.RHS)
				cur, _ := cc.compileExpr(n.LHS) // p, charging the read's Stats
				r = cc.emitBinaryOp(compoundOp[n.Op], cur, rhs, n.LHS.Type(), n.RHS.Type(), n.Type(), target{r: p})
			}
			cc.pending.Mov += uint64(maxI(1, n.Type().ComponentCount()))
			cc.move(p, r, size)
			return
		}
	case *glsl.UnaryExpr:
		if n.Op == glsl.TokInc || n.Op == glsl.TokDec {
			if p, size, ok := cc.staticPlace(n.X); ok {
				cur, _ := cc.compileExpr(n.X) // p, charging the read's Stats
				cc.move(p, cc.step(n, cur, target{r: p}), size)
				return
			}
		}
	case *glsl.SequenceExpr:
		cc.effect(n.X)
		cc.effect(n.Y)
		return
	}
	cc.compileExpr(e)
}

// staticPlace returns the registers of an l-value located without code —
// a variable, a struct field, a constant-index element, or a contiguous
// swizzle of one — as the size registers from r.
func (cc *compiler) staticPlace(e glsl.Expr) (r, size int32, ok bool) {
	switch n := e.(type) {
	case *glsl.Ident:
		return cc.varReg(n), flatSize(n.Type()), true
	case *glsl.FieldExpr:
		if r, _, ok = cc.staticPlace(n.X); !ok {
			return 0, 0, false
		}
		if n.Swizzle != nil {
			if !contiguous(n.Swizzle) {
				return 0, 0, false
			}
			return r + int32(n.Swizzle[0]), int32(len(n.Swizzle)), true
		}
		return r + fieldOffset(n.X.Type(), n.FieldIndex), flatSize(n.Type()), true
	case *glsl.IndexExpr:
		lit, isLit := n.Index.(*glsl.IntLit)
		if !isLit {
			return 0, 0, false
		}
		if r, _, ok = cc.staticPlace(n.X); !ok {
			return 0, 0, false
		}
		xt := n.X.Type()
		idx := int32(clampIndex(int(lit.Val), indexLimit(xt)))
		switch {
		case xt.Kind == glsl.KArray:
			return r + idx*flatSize(xt.Elem), flatSize(xt.Elem), true
		case xt.IsVector():
			return r + idx, 1, true
		case xt.IsMatrix():
			dim := int32(xt.MatrixDim())
			return r + idx*dim, dim, true
		}
	}
	return 0, 0, false
}

// ---- Expressions ----

// materialize copies a direct-storage operand into a scratch temp so later
// side effects cannot change the already-evaluated value.
func (cc *compiler) materialize(reg int32, direct bool, size int32) int32 {
	if !direct {
		return reg
	}
	t := cc.temp(size)
	cc.emit(instr{op: opMov, dst: t, a: reg, n: size})
	return t
}

// compileExpr emits code computing e and returns the register base holding
// its flattened value. direct reports that the register is live storage
// a later side effect can change (a variable, or a callee's frame), so
// callers must respect evaluation-order hazards before reusing it.
func (cc *compiler) compileExpr(e glsl.Expr) (reg int32, direct bool) {
	return cc.compileTo(e, anywhere)
}

// compileTo is compileExpr with a target: when the value can be produced
// in t's registers it is, and reg == t.r.
func (cc *compiler) compileTo(e glsl.Expr, t target) (reg int32, direct bool) {
	if v, s, ok := constValue(e); ok {
		cc.pending.AddStats(&s)
		return cc.konst(v), false
	}
	switch n := e.(type) {
	case *glsl.Ident:
		return cc.varReg(n), true
	case *glsl.BinaryExpr:
		return cc.compileBinary(n, t), false
	case *glsl.UnaryExpr:
		return cc.compileUnary(n, t)
	case *glsl.CondExpr:
		cond, _ := cc.compileExpr(n.Cond)
		cc.pending.Select += uint64(n.Type().ComponentCount())
		size := flatSize(n.Type())
		if t.r < 0 {
			t = target{r: cc.temp(size), fresh: true}
		}
		out := t.r
		elseL, endL := cc.newLabel(), cc.newLabel()
		cc.branch(opJz, cond, elseL, endL)
		mark := cc.tempTop
		tr, _ := cc.compileTo(n.Then, t)
		cc.move(out, tr, size)
		cc.jump(opJmp, 0, endL)
		cc.bind(elseL)
		cc.tempTop = mark // branches are exclusive; share scratch space
		er, _ := cc.compileTo(n.Else, t)
		cc.move(out, er, size)
		cc.bind(endL)
		return out, false
	case *glsl.AssignExpr:
		return cc.compileAssign(n)
	case *glsl.SequenceExpr:
		cc.effect(n.X)
		return cc.compileTo(n.Y, t)
	case *glsl.CallExpr:
		return cc.compileCall(n, t)
	case *glsl.FieldExpr:
		return cc.compileField(n, t)
	case *glsl.IndexExpr:
		return cc.compileIndex(n, t)
	}
	cc.fail(e.NodePos(), "unknown expression %T", e)
	return 0, false
}

func (cc *compiler) compileField(n *glsl.FieldExpr, t target) (int32, bool) {
	x, xdir := cc.compileExpr(n.X)
	if n.Swizzle != nil {
		cc.pending.Mov += uint64(len(n.Swizzle))
		if contiguous(n.Swizzle) {
			return x + int32(n.Swizzle[0]), xdir
		}
		size := int32(len(n.Swizzle))
		out := cc.out(t, size, operand{r: x, n: compCount(n.X.Type())})
		cc.emit(instr{op: opSwizLoad, dst: out, a: x, n: size, aux: packSwz(n.Swizzle)})
		return out, false
	}
	xt := n.X.Type()
	if xt.Kind != glsl.KStruct || n.FieldIndex < 0 || n.FieldIndex >= len(xt.Struct.Fields) {
		cc.fail(n.Pos, "field index out of range")
	}
	return x + fieldOffset(xt, n.FieldIndex), xdir
}

func (cc *compiler) compileIndex(n *glsl.IndexExpr, t target) (int32, bool) {
	x, xdir := cc.compileExpr(n.X)
	xt := n.X.Type()
	if xdir && cc.mayChange(x, flatSize(xt), n.Index) {
		// The interpreter evaluates x to a value before the index runs.
		x = cc.materialize(x, true, flatSize(xt))
		xdir = false
	}
	if lit, ok := n.Index.(*glsl.IntLit); ok {
		idx := int32(clampIndex(int(lit.Val), indexLimit(xt)))
		switch {
		case xt.Kind == glsl.KArray:
			return x + idx*flatSize(xt.Elem), xdir
		case xt.IsVector():
			cc.pending.Mov++
			return x + idx, xdir
		case xt.IsMatrix():
			dim := int32(xt.MatrixDim())
			cc.pending.Mov += uint64(dim)
			return x + idx*dim, xdir
		}
		cc.fail(n.Pos, "type %s is not indexable", xt)
	}
	idxReg, _ := cc.compileExpr(n.Index)
	var stride, limit int32
	switch {
	case xt.Kind == glsl.KArray:
		stride, limit = flatSize(xt.Elem), int32(xt.ArrayLen)
	case xt.IsVector():
		stride, limit = 1, int32(xt.VectorSize())
		cc.pending.Mov++
	case xt.IsMatrix():
		stride = int32(xt.MatrixDim())
		limit = stride
		cc.pending.Mov += uint64(stride)
	default:
		cc.fail(n.Pos, "type %s is not indexable", xt)
	}
	addr := cc.emitDynAddr(idxReg, -1, x, stride, limit)
	out := cc.out(t, stride, operand{r: x, n: flatSize(xt)})
	cc.emit(instr{op: opLoadInd, dst: out, a: addr, n: stride})
	return out, false
}

func indexLimit(t *glsl.Type) int {
	switch {
	case t.Kind == glsl.KArray:
		return t.ArrayLen
	case t.IsVector():
		return t.VectorSize()
	case t.IsMatrix():
		return t.MatrixDim()
	}
	return 1
}

// emitDynAddr computes base + clamp(trunc(idx))*stride into a fresh temp.
// baseReg >= 0 uses a dynamic base address; otherwise baseConst is the
// static base.
func (cc *compiler) emitDynAddr(idxReg, baseReg, baseConst, stride, limit int32) int32 {
	addr := cc.temp(1)
	cc.emit(instr{op: opDynAddr, dst: addr, a: idxReg, b: baseReg, c: baseConst, n: stride, aux: limit})
	return addr
}

// step computes x ± 1 for an increment or decrement n whose operand
// holds its current value in register x, charging the interpreter's
// Stats.
func (cc *compiler) step(n *glsl.UnaryExpr, x int32, t target) int32 {
	op := glsl.TokPlus
	if n.Op == glsl.TokDec {
		op = glsl.TokMinus
	}
	oneT := glsl.TypeFloat
	if n.X.Type().ComponentType().Kind == glsl.KInt {
		oneT = glsl.TypeInt
	}
	return cc.emitBinaryOp(op, x, cc.konst([]float32{1}), n.X.Type(), oneT, n.X.Type(), t)
}

func (cc *compiler) compileUnary(n *glsl.UnaryExpr, t target) (int32, bool) {
	if n.Op == glsl.TokInc || n.Op == glsl.TokDec {
		curR, curDir := cc.compileExpr(n.X)
		cur := cc.materialize(curR, curDir, compCount(n.X.Type()))
		next := cc.step(n, cur, anywhere)
		lv := cc.compileLValue(n.X)
		cc.store(lv, next)
		if n.Postfix {
			return cur, false
		}
		return next, false
	}
	x, xdir := cc.compileExpr(n.X)
	nc := compCount(n.X.Type())
	switch n.Op {
	case glsl.TokPlus:
		return x, xdir
	case glsl.TokMinus:
		out := cc.out(t, nc, operand{r: x, n: nc, step: true})
		cc.emit(instr{op: opNeg, dst: out, a: x, n: nc})
		cc.pending.Add += uint64(nc)
		return out, false
	case glsl.TokBang:
		out := cc.out(t, 1)
		cc.emit(instr{op: opNot, dst: out, a: x})
		cc.pending.Logic++
		return out, false
	}
	cc.fail(n.Pos, "unsupported unary operator %s", n.Op)
	return 0, false
}

func (cc *compiler) compileBinary(n *glsl.BinaryExpr, t target) int32 {
	switch n.Op {
	case glsl.TokAndAnd, glsl.TokOrOr:
		// x && y is y's truth when x holds, else false; x || y is true
		// when x holds, else y's truth.
		x, _ := cc.compileExpr(n.X)
		cc.pending.Logic++
		out := t.r
		if out < 0 {
			out = cc.temp(1)
		}
		shortL, endL := cc.newLabel(), cc.newLabel()
		op := opJz
		if n.Op == glsl.TokOrOr {
			op = opJnz
		}
		cc.branch(op, x, shortL, endL)
		y, _ := cc.compileExpr(n.Y)
		cc.emit(instr{op: opBoolNorm, dst: out, a: y})
		cc.jump(opJmp, 0, endL)
		cc.bind(shortL)
		if n.Op == glsl.TokOrOr {
			cc.emit(instr{op: opMov, dst: out, a: cc.konst([]float32{1}), n: 1})
		} else {
			cc.emit(instr{op: opZero, dst: out, n: 1})
		}
		cc.bind(endL)
		return out
	}
	x, xdir := cc.compileExpr(n.X)
	if xdir && cc.mayChange(x, flatSize(n.X.Type()), n.Y) {
		x = cc.materialize(x, true, flatSize(n.X.Type()))
	}
	y, _ := cc.compileExpr(n.Y)
	return cc.emitBinaryOp(n.Op, x, y, n.X.Type(), n.Y.Type(), n.Type(), t)
}

// compoundOp maps a compound assignment to its binary operator.
var compoundOp = map[glsl.TokenKind]glsl.TokenKind{
	glsl.TokPlusAssign:  glsl.TokPlus,
	glsl.TokMinusAssign: glsl.TokMinus,
	glsl.TokStarAssign:  glsl.TokStar,
	glsl.TokSlashAssign: glsl.TokSlash,
}

// emitBinaryOp mirrors the interpreter's applyBinary, including its Stats
// accounting.
func (cc *compiler) emitBinaryOp(op glsl.TokenKind, x, y int32, xt, yt, resT *glsl.Type, t target) int32 {
	switch op {
	case glsl.TokXorXor:
		cc.pending.Logic++
		out := cc.out(t, 1)
		cc.emit(instr{op: opXorXor, dst: out, a: x, b: y})
		return out
	case glsl.TokLess, glsl.TokGreater, glsl.TokLessEq, glsl.TokGreaterEq:
		cc.pending.Cmp++
		out := cc.out(t, 1)
		var o opcode
		switch op {
		case glsl.TokLess:
			o = opLt
		case glsl.TokGreater:
			o = opGt
		case glsl.TokLessEq:
			o = opLe
		case glsl.TokGreaterEq:
			o = opGe
		}
		cc.emit(instr{op: o, dst: out, a: x, b: y})
		return out
	case glsl.TokEqEq, glsl.TokNotEq:
		cc.pending.Cmp += uint64(maxI(1, xt.ComponentCount()))
		out := cc.out(t, 1)
		o := opEqV
		if op == glsl.TokNotEq {
			o = opNeV
		}
		cc.emit(instr{op: o, dst: out, a: x, b: y, n: flatSize(xt)})
		return out
	}

	if op == glsl.TokStar && (xt.IsMatrix() || yt.IsMatrix()) &&
		!(xt.IsMatrix() && yt.IsScalar()) && !(xt.IsScalar() && yt.IsMatrix()) {
		out := cc.out(t, flatSize(resT), operand{r: x, n: flatSize(xt)}, operand{r: y, n: flatSize(yt)})
		switch {
		case xt.IsMatrix() && yt.IsMatrix():
			d := xt.MatrixDim()
			cc.emit(instr{op: opMatMulMM, dst: out, a: x, b: y, n: int32(d)})
			cc.pending.Mul += uint64(d * d * d)
			cc.pending.Add += uint64(d * d * (d - 1))
		case xt.IsMatrix() && yt.IsVector():
			d := xt.MatrixDim()
			cc.emit(instr{op: opMatMulMV, dst: out, a: x, b: y, n: int32(d)})
			cc.pending.Mul += uint64(d * d)
			cc.pending.Add += uint64(d * (d - 1))
		case xt.IsVector() && yt.IsMatrix():
			d := yt.MatrixDim()
			cc.emit(instr{op: opMatMulVM, dst: out, a: x, b: y, n: int32(d)})
			cc.pending.Mul += uint64(d * d)
			cc.pending.Add += uint64(d * (d - 1))
		}
		return out
	}

	isInt := resT.ComponentType().Kind == glsl.KInt
	nc := compCount(resT)
	var aux int32
	xo, yo := operand{r: x, n: nc, step: true}, operand{r: y, n: nc, step: true}
	if xt.IsScalar() && nc > 1 {
		aux |= 1
		xo = operand{r: x, n: 1}
	}
	if yt.IsScalar() && nc > 1 {
		aux |= 2
		yo = operand{r: y, n: 1}
	}
	var o opcode
	switch op {
	case glsl.TokPlus:
		o = opAdd
		cc.pending.Add += uint64(nc)
	case glsl.TokMinus:
		o = opSub
		cc.pending.Add += uint64(nc)
	case glsl.TokStar:
		o = opMul
		cc.pending.Mul += uint64(nc)
	case glsl.TokSlash:
		if isInt {
			o = opDivI
		} else {
			o = opDivF
		}
		cc.pending.Div += uint64(nc)
	default:
		cc.fail(glsl.Pos{}, "unsupported binary operator %s", op)
	}
	out := cc.out(t, nc, xo, yo)
	cc.emit(instr{op: o, dst: out, a: x, b: y, n: nc, aux: aux})
	return out
}

// ---- L-values ----

// lplace is a compiled storage location: a static register base or a
// runtime-computed address register, with an optional static component
// selection on top (the compile-time mirror of the interpreter's lref).
type lplace struct {
	base  int32
	addr  int32 // register holding the address; -1 when static
	comps []int
	size  int32 // flat size when comps == nil
}

func (cc *compiler) compileLValue(e glsl.Expr) lplace {
	switch n := e.(type) {
	case *glsl.Ident:
		return lplace{base: cc.varReg(n), addr: -1, size: flatSize(n.Type())}
	case *glsl.FieldExpr:
		base := cc.compileLValue(n.X)
		if n.Swizzle != nil {
			if base.comps == nil {
				base.comps = append([]int{}, n.Swizzle...)
			} else {
				out := make([]int, len(n.Swizzle))
				for i, s := range n.Swizzle {
					out[i] = base.comps[s]
				}
				base.comps = out
			}
			return base
		}
		if base.comps != nil {
			cc.fail(n.Pos, "field access through component selection")
		}
		xt := n.X.Type()
		off := fieldOffset(xt, n.FieldIndex)
		base.size = flatSize(n.Type())
		if base.addr < 0 {
			base.base += off
			return base
		}
		if off != 0 {
			na := cc.temp(1)
			cc.emit(instr{op: opAddrOff, dst: na, a: base.addr, n: off})
			base.addr = na
		}
		return base
	case *glsl.IndexExpr:
		base := cc.compileLValue(n.X)
		xt := n.X.Type()
		if lit, ok := n.Index.(*glsl.IntLit); ok {
			idx := clampIndex(int(lit.Val), indexLimit(xt))
			switch {
			case xt.Kind == glsl.KArray:
				if base.comps != nil {
					cc.fail(n.Pos, "array access through component selection")
				}
				off := int32(idx) * flatSize(xt.Elem)
				base.size = flatSize(xt.Elem)
				if base.addr < 0 {
					base.base += off
				} else if off != 0 {
					na := cc.temp(1)
					cc.emit(instr{op: opAddrOff, dst: na, a: base.addr, n: off})
					base.addr = na
				}
				return base
			case xt.IsVector():
				if base.comps != nil {
					base.comps = []int{base.comps[idx]}
					return base
				}
				base.comps = []int{idx}
				return base
			case xt.IsMatrix():
				dim := xt.MatrixDim()
				col := make([]int, dim)
				for i := range col {
					col[i] = idx*dim + i
				}
				base.comps = col
				return base
			}
			cc.fail(n.Pos, "type %s is not indexable", xt)
		}
		idxReg, _ := cc.compileExpr(n.Index)
		switch {
		case xt.Kind == glsl.KArray:
			if base.comps != nil {
				cc.fail(n.Pos, "array access through component selection")
			}
			stride := flatSize(xt.Elem)
			base.addr = cc.emitDynAddr(idxReg, base.addr, base.base, stride, int32(xt.ArrayLen))
			base.size = stride
			return base
		case xt.IsVector():
			limit := int32(xt.VectorSize())
			if base.comps != nil {
				// Dynamic component through a swizzle: pick from the
				// permutation table at runtime.
				addr := cc.temp(1)
				aux := limit
				aux |= packSwz(base.comps) << 8
				cc.emit(instr{op: opDynPick, dst: addr, a: idxReg, b: base.addr, c: base.base, aux: aux})
				return lplace{addr: addr, size: 1}
			}
			base.addr = cc.emitDynAddr(idxReg, base.addr, base.base, 1, limit)
			base.size = 1
			return base
		case xt.IsMatrix():
			dim := int32(xt.MatrixDim())
			base.addr = cc.emitDynAddr(idxReg, base.addr, base.base, dim, dim)
			base.size = dim
			return base
		}
		cc.fail(n.Pos, "type %s is not indexable", xt)
	}
	cc.fail(e.NodePos(), "expression is not an l-value")
	return lplace{}
}

// store writes src into the compiled place, mirroring Exec.store (raw
// component copy, no conversions, no Stats). Callers pass a src that no
// store can overlap (a materialized value), like the interpreter's
// evaluate-then-store.
func (cc *compiler) store(lv lplace, src int32) {
	n := int32(len(lv.comps))
	switch {
	case lv.comps == nil && lv.addr < 0:
		cc.emit(instr{op: opMov, dst: lv.base, a: src, n: lv.size})
	case lv.comps == nil:
		cc.emit(instr{op: opStoreInd, a: lv.addr, b: src, n: lv.size})
	case lv.addr < 0:
		cc.emit(instr{op: opSwizStore, dst: lv.base, a: src, n: n, aux: packSwz(lv.comps)})
	default:
		cc.emit(instr{op: opStoreIndC, a: lv.addr, b: src, n: n, aux: packSwz(lv.comps)})
	}
}

// compileAssign lowers an assignment whose value is used; effect lowers
// one whose value is not.
func (cc *compiler) compileAssign(n *glsl.AssignExpr) (int32, bool) {
	rhs, rhsDir := cc.compileExpr(n.RHS)
	// The interpreter evaluates the RHS to a value before resolving the
	// destination; materialize it if resolving the LHS can mutate state.
	if rhsDir && cc.mayChange(rhs, flatSize(n.RHS.Type()), n.LHS) {
		rhs = cc.materialize(rhs, true, flatSize(n.RHS.Type()))
		rhsDir = false
	}
	lv := cc.compileLValue(n.LHS)
	if n.Op != glsl.TokAssign {
		cur, _ := cc.compileExpr(n.LHS)
		rhs = cc.emitBinaryOp(compoundOp[n.Op], cur, rhs, n.LHS.Type(), n.RHS.Type(), n.Type(), anywhere)
		rhsDir = false
	}
	// The interpreter materializes the RHS value before storing; do the
	// same so the assignment result survives the store.
	rhs = cc.materialize(rhs, rhsDir, flatSize(n.Type()))
	cc.pending.Mov += uint64(maxI(1, n.Type().ComponentCount()))
	cc.store(lv, rhs)
	return rhs, false
}

// ---- Calls ----

func (cc *compiler) compileCall(n *glsl.CallExpr, t target) (int32, bool) {
	switch n.Kind {
	case glsl.CallTypeConstructor:
		return cc.compileConstructor(n, t)
	case glsl.CallStructConstructor:
		ct := n.CtorType
		out := cc.slots(t, flatSize(ct))
		off := out
		for i, f := range ct.Struct.Fields {
			size := flatSize(f.Type)
			r, _ := cc.compileTo(n.Args[i], target{off, true})
			cc.move(off, r, size)
			off += size
		}
		return out, false
	case glsl.CallBuiltin:
		return cc.compileBuiltin(n, t), false
	case glsl.CallUser:
		return cc.compileUserCall(n, t)
	}
	cc.fail(n.Pos, "unresolved call to %q", n.Callee)
	return 0, false
}

// compileArgs evaluates an argument list left to right, materializing
// direct operands whenever a later argument has side effects.
func (cc *compiler) compileArgs(args []glsl.Expr) []int32 {
	regs := make([]int32, len(args))
	for i, a := range args {
		r, dir := cc.compileExpr(a)
		if dir && cc.mayChange(r, flatSize(a.Type()), args[i+1:]...) {
			r = cc.materialize(r, true, flatSize(a.Type()))
		}
		regs[i] = r
	}
	return regs
}

// mayChange reports whether evaluating exprs can change the n registers
// from r, which hold a value read from storage: an assignment, an
// increment or an out-parameter writeback can change any variable, a user
// call anything but the steady registers (isSteady).
func (cc *compiler) mayChange(r, n int32, exprs ...glsl.Expr) bool {
	steady := cc.isSteady(r, n)
	changes := func(e glsl.Expr) bool {
		switch x := e.(type) {
		case *glsl.AssignExpr:
			return true
		case *glsl.UnaryExpr:
			return x.Op == glsl.TokInc || x.Op == glsl.TokDec
		case *glsl.CallExpr:
			if x.Kind != glsl.CallUser {
				return false
			}
			if !steady || x.Func == nil {
				return true
			}
			for _, p := range x.Func.Params {
				if p.Dir != glsl.DirIn {
					return true
				}
			}
		}
		return false
	}
	for _, e := range exprs {
		if findExpr(e, changes) {
			return true
		}
	}
	return false
}

// convOp is the instruction converting components to target's component
// type under the constructor rules of convertCompAt; opMov copies them
// unchanged.
func convOp(target, src *glsl.Type) opcode {
	switch target.ComponentType().Kind {
	case glsl.KInt:
		if src.ComponentType().Kind == glsl.KFloat {
			return opConvInt
		}
	case glsl.KBool:
		return opConvBool
	}
	return opMov
}

// compileConstructor lowers a scalar, vector or matrix constructor. The
// checker guarantees the arguments supply enough components and that only
// the last one is truncated. Constructors that only select or copy
// registers emit nothing.
func (cc *compiler) compileConstructor(n *glsl.CallExpr, t target) (int32, bool) {
	ct := n.CtorType
	switch {
	case ct.IsScalar():
		cc.pending.Mov++
		r, dir := cc.compileExpr(n.Args[0])
		op := convOp(ct, n.Args[0].Type())
		if op == opMov {
			return r, dir
		}
		out := cc.out(t, 1)
		cc.emit(instr{op: op, dst: out, a: r, n: 1})
		return out, false
	case ct.IsVector():
		size := int32(ct.VectorSize())
		cc.pending.Mov += uint64(size)
		if len(n.Args) == 1 {
			at := n.Args[0].Type()
			r, dir := cc.compileExpr(n.Args[0])
			op := convOp(ct, at)
			if at.IsScalar() {
				if op != opMov {
					c := cc.temp(1)
					cc.emit(instr{op: op, dst: c, a: r, n: 1})
					r = c
				}
				out := cc.out(t, size, operand{r: r, n: 1})
				cc.emit(instr{op: opSplat, dst: out, a: r, n: size})
				return out, false
			}
			if op == opMov {
				return r, dir // the leading components of one vector
			}
			out := cc.out(t, size, operand{r: r, n: size, step: true})
			cc.emit(instr{op: op, dst: out, a: r, n: size})
			return out, false
		}
		out := cc.slots(t, size)
		var k int32
		for _, a := range n.Args {
			an := compCount(a.Type())
			cnt := min(an, size-k)
			if op := convOp(ct, a.Type()); op != opMov || cnt < an {
				r, _ := cc.compileExpr(a)
				if cnt > 0 {
					cc.emit(instr{op: op, dst: out + k, a: r, n: cnt})
				}
			} else {
				r, _ := cc.compileTo(a, target{out + k, true})
				cc.move(out+k, r, cnt)
			}
			k += max(cnt, 0)
		}
		return out, false
	case ct.IsMatrix():
		dim := int32(ct.MatrixDim())
		cc.pending.Mov += uint64(dim * dim)
		if len(n.Args) == 1 && n.Args[0].Type().IsScalar() {
			r, _ := cc.compileExpr(n.Args[0])
			out := cc.out(t, dim*dim, operand{r: r, n: 1})
			cc.emit(instr{op: opMatDiag, dst: out, a: r, n: dim})
			return out, false
		}
		// Matrix constructors copy raw components, no conversion.
		out := cc.slots(t, dim*dim)
		k := out
		for _, a := range n.Args {
			an := compCount(a.Type())
			r, _ := cc.compileTo(a, target{k, true})
			cc.move(k, r, an)
			k += an
		}
		return out, false
	}
	cc.fail(n.Pos, "cannot construct %s", ct)
	return 0, false
}

func (cc *compiler) compileUserCall(n *glsl.CallExpr, t target) (int32, bool) {
	fd := n.Func
	if fd == nil || fd.Body == nil {
		cc.fail(n.Pos, "call to undefined function %q", n.Callee)
	}
	fi, ok := cc.frames[fd]
	if !ok {
		cc.fail(n.Pos, "function %q was not discovered during layout", fd.Name)
	}
	cc.pending.Call++

	// When an argument expression can itself invoke user code, evaluate
	// every argument into scratch space before touching the callee's
	// parameter registers (an inner call may target the same function).
	indirect := false
	for _, a := range n.Args {
		if containsUserCall(a) {
			indirect = true
			break
		}
	}
	// An inlined callee reads a parameter it never writes straight from
	// the argument's registers when nothing can change them during the
	// call; vals holds the arguments still to copy into parameters.
	locals, steady := fi.localOff, [][2]int32{{fi.retBase, fi.frameEnd}}
	vals := make([]int32, len(n.Args))
	writeback := false
	for i, a := range n.Args {
		p := fd.Params[i]
		vals[i] = -1
		if p.Dir != glsl.DirIn {
			writeback = true
			if p.Dir == glsl.DirOut {
				continue
			}
		}
		psize := flatSize(p.DeclType)
		preg := fi.localOff[p.Slot]
		alias := fi.inline && p.Dir == glsl.DirIn && !writes(fd, p)
		want := anywhere
		if !indirect && !alias {
			want = target{preg, true}
		}
		r, dir := cc.compileTo(a, want)
		if dir && (indirect || cc.mayChange(r, psize, n.Args[i+1:]...)) {
			r, dir = cc.materialize(r, true, psize), false
		}
		switch {
		case alias && (!dir || cc.isSteady(r, psize)):
			if len(steady) == 1 {
				locals = append([]int32(nil), locals...)
			}
			locals[p.Slot] = r
			steady = append(steady, [2]int32{r, r + psize})
		case indirect:
			vals[i] = r
		default:
			cc.move(preg, r, psize)
		}
	}
	for i, p := range fd.Params {
		psize := flatSize(p.DeclType)
		preg := fi.localOff[p.Slot]
		if p.Dir == glsl.DirOut {
			cc.emit(instr{op: opZero, dst: preg, n: psize})
		} else if vals[i] >= 0 {
			cc.move(preg, vals[i], psize)
		}
	}

	var ret int32
	retDir := false
	dflag := int32(-1)
	if fi.inline {
		// The body runs in place, its locals in the callee's frame and its
		// scratch in the caller's; the value of the final return is the
		// call's, produced straight into t unless out parameters are
		// still to be written back.
		savedLocals, savedSteady := cc.locals, cc.steady
		cc.locals, cc.steady = locals, steady
		st := fd.Body.Stmts
		var last *glsl.ReturnStmt
		if endsInReturn(fd) {
			last = st[len(st)-1].(*glsl.ReturnStmt)
			st = st[:len(st)-1]
		}
		for _, s := range st {
			cc.compileStmt(s)
		}
		if last != nil && last.X != nil {
			rt := t
			if writeback {
				rt = anywhere
			}
			ret, retDir = cc.compileTo(last.X, rt)
		}
		cc.locals, cc.steady = savedLocals, savedSteady
	} else {
		cc.flushStats()
		cc.emit(instr{op: opCall, aux: fi.idx})
		if findStmt(fd.Body, isDiscard, nil) {
			// A discard in the callee's own body unwinds exactly one
			// level in the interpreter: this call's out/inout writebacks
			// (and their Stats) still run, then the invocation aborts.
			// Capture the flag, run the epilogue, then halt if it was set
			// (see Exec.evalUserCall's ctrlDiscard path).
			dflag = cc.temp(1)
			cc.emit(instr{op: opDiscardTake, dst: dflag})
		}
		ret, retDir = fi.retBase, true
	}

	if writeback {
		// Copy the result and the out/inout parameters before any
		// writeback l-value evaluation can reuse callee registers, then
		// store them in parameter order.
		ret = cc.materialize(ret, retDir, fi.retSize)
		retDir = false
		type wb struct {
			arg  glsl.Expr
			tmp  int32
			decl *glsl.VarDecl
		}
		var wbs []wb
		for i, p := range fd.Params {
			if p.Dir != glsl.DirIn {
				wbs = append(wbs, wb{n.Args[i], cc.materialize(fi.localOff[p.Slot], true, flatSize(p.DeclType)), p})
			}
		}
		for _, w := range wbs {
			cc.store(cc.compileLValue(w.arg), w.tmp)
			cc.pending.Mov += uint64(maxI(1, w.decl.DeclType.ComponentCount()))
		}
	}
	if dflag >= 0 {
		cc.flushStats()
		cc.emit(instr{op: opDiscardHalt, a: dflag})
	}
	return ret, retDir
}

// isSteady reports whether registers [r, r+n) keep their value while a
// call made from the code being lowered runs: a local of the function
// being lowered, or an argument an enclosing inlined callee reads in
// place.
func (cc *compiler) isSteady(r, n int32) bool {
	for _, s := range cc.steady {
		if r >= s[0] && r+n <= s[1] {
			return true
		}
	}
	return false
}

// componentwise reports whether the VM evaluates builtin id one component
// at a time, reading component i of each argument just before writing
// component i of the result (its lane-inner cases in execBuiltin), so a
// non-broadcast argument may share the result's registers.
func componentwise(id glsl.BuiltinID) bool {
	switch id {
	case glsl.BFloor, glsl.BFract, glsl.BAbs, glsl.BMod, glsl.BMin, glsl.BMax,
		glsl.BClamp, glsl.BMix, glsl.BStep, glsl.BExp2, glsl.BLog2:
		return true
	}
	return false
}

func (cc *compiler) compileBuiltin(n *glsl.CallExpr, t target) int32 {
	sig := n.Builtin
	if sig == nil {
		cc.fail(n.Pos, "unresolved builtin %q", n.Callee)
	}
	if len(n.Args) > 3 {
		cc.fail(n.Pos, "builtin %q has more than 3 arguments", n.Callee)
	}
	args := cc.compileArgs(n.Args)
	d := builtinDesc{
		id:    sig.ID,
		nargs: int32(len(args)),
		nc:    compCount(n.Type()),
	}
	var ops []operand
	for i, r := range args {
		d.args[i] = r
		d.scalar[i] = n.Args[i].Type().IsScalar()
		if w := flatSize(n.Args[i].Type()); sig.ID != glsl.BDot { // dot reads all, then writes one
			ops = append(ops, operand{r: r, n: w, step: componentwise(sig.ID) && w == d.nc})
		}
	}
	if len(n.Args) > 0 {
		d.an = compCount(n.Args[0].Type())
		d.dim = int32(n.Args[0].Type().MatrixDim())
	}
	d.dst = cc.out(t, maxI32(d.nc, 1), ops...)
	cc.addBuiltinStats(sig.ID, int(d.nc), int(d.an), int(d.dim))
	cc.comp.builtins = append(cc.comp.builtins, d)
	cc.emit(instr{op: opBuiltin, aux: int32(len(cc.comp.builtins) - 1)})
	return d.dst
}

// addBuiltinStats reproduces the per-builtin Stats accounting of
// Exec.evalBuiltin at compile time (all counts are static in the argument
// shapes).
func (cc *compiler) addBuiltinStats(id glsl.BuiltinID, nc, an, dim int) {
	s := &cc.pending
	u := func(x int) uint64 { return uint64(x) }
	switch id {
	case glsl.BRadians, glsl.BDegrees:
		s.Mul += u(nc)
	case glsl.BSin, glsl.BCos, glsl.BAsin, glsl.BAcos, glsl.BAtan:
		s.SFU += u(nc)
	case glsl.BTan:
		s.SFU += u(2 * nc)
	case glsl.BAtan2:
		s.SFU += u(2 * nc)
	case glsl.BPow:
		s.SFU += u(2 * nc)
		s.Mul += u(nc)
	case glsl.BExp, glsl.BLog:
		s.SFU += u(nc)
		s.Mul += u(nc)
	case glsl.BExp2, glsl.BLog2:
		s.SFU += u(nc)
	case glsl.BSqrt:
		s.SFU += u(nc)
		s.Mul += u(nc)
	case glsl.BInverseSqrt:
		s.SFU += u(nc)
	case glsl.BAbs:
		s.Mov += u(nc)
	case glsl.BSign:
		s.Cmp += u(2 * nc)
	case glsl.BFloor, glsl.BCeil:
		s.Add += u(nc)
	case glsl.BFract:
		s.Add += u(2 * nc)
	case glsl.BMod:
		s.Div += u(nc)
		s.Mul += u(nc)
		s.Add += u(2 * nc)
	case glsl.BMin, glsl.BMax:
		s.Cmp += u(nc)
	case glsl.BClamp:
		s.Cmp += u(2 * nc)
	case glsl.BMix:
		s.Mul += u(2 * nc)
		s.Add += u(2 * nc)
	case glsl.BStep:
		s.Cmp += u(nc)
		s.Select += u(nc)
	case glsl.BSmoothstep:
		s.Add += u(3 * nc)
		s.Mul += u(3 * nc)
		s.Div += u(nc)
		s.Cmp += u(2 * nc)
	case glsl.BLength:
		s.Mul += u(an)
		s.Add += u(an - 1)
		s.SFU++
	case glsl.BDistance:
		s.Mul += u(an)
		s.Add += u(2*an - 1)
		s.SFU++
	case glsl.BDot:
		s.Mul += u(an)
		s.Add += u(an - 1)
	case glsl.BCross:
		s.Mul += 6
		s.Add += 3
	case glsl.BNormalize:
		s.Mul += u(2 * an)
		s.Add += u(an - 1)
		s.SFU++
	case glsl.BFaceforward:
		s.Mul += u(an)
		s.Add += u(an - 1)
		s.Cmp++
		s.Select += u(an)
	case glsl.BReflect:
		s.Mul += u(3 * an)
		s.Add += u(2*an - 1)
	case glsl.BRefract:
		s.Mul += u(4 * an)
		s.Add += u(2 * an)
		s.SFU++
	case glsl.BMatrixCompMult:
		s.Mul += u(dim * dim)
	case glsl.BLessThan, glsl.BLessThanEqual, glsl.BGreaterThan, glsl.BGreaterThanEqual,
		glsl.BEqual, glsl.BNotEqual:
		s.Cmp += u(an)
	case glsl.BAny, glsl.BAll, glsl.BNot:
		s.Logic += u(an)
	case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod,
		glsl.BTextureCube, glsl.BTextureCubeBias, glsl.BTextureCubeLod:
		s.Tex++
	case glsl.BTexture2DProj3, glsl.BTexture2DProj4,
		glsl.BTexture2DProjLod3, glsl.BTexture2DProjLod4:
		s.Tex++
		s.Div += 2
	default:
		cc.fail(glsl.Pos{}, "builtin id %d not implemented by the bytecode compiler", id)
	}
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}
