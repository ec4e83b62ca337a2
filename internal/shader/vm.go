package shader

// The lane engine executing bytecode produced by Compile. A VM shades a
// group of up to LaneWidth invocations of one program at once — the
// 16-way SIMD width of a VideoCore IV QPU. Registers are stored
// structure-of-arrays (lane l of register r lives at regs[r*LaneWidth+l])
// and every decoded instruction runs over each active lane of the group,
// so interpreter dispatch is paid once per group instead of once per
// invocation. The same engine runs the fragment stage (groups of up to 16
// fragments), the vertex stage, InitGlobals (one lane) and the
// differential tests; one VM is reused for every group of a draw and,
// through Reset, across draws.
//
// Control flow (DESIGN.md §6k):
//
//   - Structured forward divergence — if/else, ?:, && and || — runs
//     masked. Compile records the reconvergence pc of each such
//     conditional jump in its c operand; a divergent branch pushes a
//     divergence entry, runs the fall-through lanes to the reconvergence
//     pc, then the jumped lanes, then restores the mask. A branch every
//     active lane takes the same way (every uniform loop bound) never
//     touches the mask.
//   - Unstructured divergence — a divergent loop exit, a break, continue,
//     return or discard under a partial mask, a lane finishing early —
//     serializes: each unfinished lane continues alone through this same
//     loop, with its own copy of the call stack and loop counters.
//
// Stats: every opStats block delta is charged once per active lane and
// Invocations counts lanes, so a group's Stats equal the sum of its
// invocations' Stats under the interpreter, and all arithmetic reproduces
// eval.go/builtins_exec.go bit-for-bit — the differential tests in
// vm_test.go, internal/gles and internal/paper enforce both.

import (
	"math"
	"math/bits"
	"strconv"

	"glescompute/internal/glsl"
)

// LaneWidth is the number of invocations one VM instruction dispatch
// covers: the 16-way SIMD width of a VideoCore IV QPU.
const LaneWidth = 16

// lanes is one register: its value in each lane of a group.
type lanes = [LaneWidth]float32

// row returns the lanes of register r.
func row(regs []lanes, r int32) *lanes { return &regs[r] }

// divergence is one open structured branch on the mask stack.
type divergence struct {
	lo, hi  int32  // the branch pc and its reconvergence pc
	depth   int32  // call depth of the branch
	saved   uint32 // active mask at the branch, restored at hi
	pending uint32 // lanes that jumped and have not run yet
	pendPC  int32  // where the pending lanes resume
}

// VM executes a Compiled program over groups of up to LaneWidth
// invocations. Not safe for concurrent use; create one VM per worker over
// a shared *Compiled.
type VM struct {
	Textures TextureSampler
	SFU      SFUConfig
	Stats    Stats

	// MaxLoopIter guards against runaway shaders, like Exec.MaxLoopIter.
	MaxLoopIter int

	// Dispatches counts the instructions decoded since the last Reset, one
	// per instruction per group however many lanes are active: the
	// interpreter overhead on the host clock. No modeled metric reads it.
	Dispatches uint64

	c         *Compiled
	regs      []lanes   // structure-of-arrays: register r, lane l is regs[r][l]
	snap      []float32 // one lane of globals, snapshotted by InitGlobals
	snapped   bool
	callStack []int32
	loopIters []int

	mask   uint32 // active lanes
	act    []uint8
	actBuf [LaneWidth]uint8
	stack  []divergence

	// discarding marks lanes that executed discard in a callee body: the
	// caller's out/inout writebacks still run before the invocation
	// aborts, mirroring the interpreter's one-level unwind (evalUserCall).
	discarding uint32
	discarded  uint32 // lanes of the current group finished by discard

	// Serialization scratch: the call stack and loop counters every
	// serialized lane starts from.
	serCalls []int32
	serLoops []int

	texST [2]lanes // projected texture coordinates
}

// NewVM creates an executor over compiled code.
func NewVM(c *Compiled, tex TextureSampler, sfu SFUConfig) *VM {
	if tex == nil {
		tex = nullSampler{}
	}
	vm := &VM{
		Textures:  tex,
		SFU:       sfu,
		c:         c,
		regs:      make([]lanes, c.nregs),
		snap:      make([]float32, c.globalEnd-c.globalBase),
		callStack: make([]int32, c.maxDepth),
		loopIters: make([]int, c.nloops),
		serCalls:  make([]int32, c.maxDepth),
		serLoops:  make([]int, c.nloops),
		// A branch pushes only when it splits the active lanes, so each
		// open entry holds fewer lanes than the one below it: at most
		// LaneWidth-1 entries.
		stack: make([]divergence, 0, LaneWidth),
	}
	for r, v := range c.pool {
		vm.fill(int32(r), v)
	}
	vm.Reset()
	return vm
}

// Compiled returns the program this VM executes.
func (vm *VM) Compiled() *Compiled { return vm.c }

// Lanes reports the group width Run accepts.
func (vm *VM) Lanes() int { return LaneWidth }

// Reset returns the VM to its freshly created state — builtin and global
// registers zeroed, builtin defaults restored, no snapshot, Stats and
// Dispatches cleared — so one VM can serve draw after draw without
// reallocating its register file. The constant pool is left as NewVM
// filled it.
func (vm *VM) Reset() {
	c := vm.c
	clear(vm.regs[len(c.pool):c.globalEnd])
	// Builtin register defaults, mirroring NewExec.
	if c.Prog.Stage == glsl.StageVertex {
		vm.fill(c.builtinOff[glsl.BVSlotPointSize], 1)
	} else {
		vm.fill(c.builtinOff[glsl.BVSlotFrontFacing], 1)
	}
	vm.snapped = false
	vm.Stats = Stats{}
	vm.Dispatches = 0
}

// fill stores v into every lane of register r.
func (vm *VM) fill(r int32, v float32) {
	lv := row(vm.regs, r)
	for l := range lv {
		lv[l] = v
	}
}

func (vm *VM) loopLimit() int {
	if vm.MaxLoopIter > 0 {
		return vm.MaxLoopIter
	}
	return DefaultMaxLoopIter
}

// setMask activates the lanes of m.
func (vm *VM) setMask(m uint32) {
	vm.mask = m
	n := 0
	for ; m != 0; m &= m - 1 {
		vm.actBuf[n] = uint8(bits.TrailingZeros32(m))
		n++
	}
	vm.act = vm.actBuf[:n]
}

// InitGlobals runs the file-scope initializer segment on one lane, then
// broadcasts the globals to every lane and snapshots them, mirroring
// Exec.InitGlobals (including its Stats accounting, charged once).
func (vm *VM) InitGlobals() error {
	vm.discarded = 0
	vm.discarding = 0
	vm.stack = vm.stack[:0]
	vm.setMask(1)
	if err := vm.exec(vm.c.initEntry, 0); err != nil {
		return err
	}
	if vm.discarded != 0 {
		// A discard reached from a global initializer is an init failure,
		// like the interpreter's errDiscard escaping InitGlobals.
		return &RuntimeError{Msg: "discard"}
	}
	for r := vm.c.globalBase; r < vm.c.globalEnd; r++ {
		v := vm.regs[r][0]
		vm.fill(r, v)
		vm.snap[r-vm.c.globalBase] = v
	}
	vm.snapped = true
	return nil
}

// SetGlobal stores a runtime value into a global's registers on every lane
// (uniforms). Mirrors Exec.SetGlobal: the post-init snapshot is updated
// too, so per-run resets preserve the value.
func (vm *VM) SetGlobal(d *glsl.VarDecl, val Value) {
	off := vm.c.globalOff[d.Slot]
	n := flatSize(d.DeclType)
	// Before InitGlobals the snapshot is scratch that InitGlobals
	// overwrites.
	flat := vm.snap[off-vm.c.globalBase : off-vm.c.globalBase+n]
	flattenValueInto(flat, val)
	for i := int32(0); i < n; i++ {
		vm.fill(off+i, flat[i])
	}
}

// Run executes main() once on each of lanes [0, n) and returns the mask of
// lanes that discarded. Fragment outputs are zeroed first (GL leaves them
// undefined; zero is deterministic).
func (vm *VM) Run(n int) (uint32, error) {
	if n < 1 || n > LaneWidth {
		return 0, &RuntimeError{Msg: "vm: group of " + strconv.Itoa(n) + " lanes"}
	}
	c := vm.c
	if vm.snapped {
		for _, r := range c.mutatedRanges {
			for i := int32(0); i < r[1]; i++ {
				v := vm.snap[r[0]+i-c.globalBase]
				lv := row(vm.regs, r[0]+i)
				for l := 0; l < n; l++ {
					lv[l] = v
				}
			}
		}
	}
	if c.Prog.Stage == glsl.StageFragment {
		fc, fd := c.builtinOff[glsl.BVSlotFragColor], c.builtinOff[glsl.BVSlotFragData]
		clear(vm.regs[fc : fc+4])
		clear(vm.regs[fd : fd+4*glsl.MaxDrawBuffers])
	}
	vm.Stats.Invocations += uint64(n)
	vm.discarded = 0
	vm.discarding = 0
	vm.stack = vm.stack[:0]
	vm.setMask(1<<n - 1)
	err := vm.exec(c.mainEntry, 0)
	return vm.discarded, err
}

// reconvAt is the pc at which the innermost open branch of call depth sp
// reconverges, or -1.
func (vm *VM) reconvAt(sp int32) int32 {
	if n := len(vm.stack); n > 0 && vm.stack[n-1].depth == sp {
		return vm.stack[n-1].hi
	}
	return -1
}

// leaves reports whether a jump to target at call depth sp exits the
// innermost open branch region of that depth — a divergent break,
// continue or loop exit, which masking cannot express.
func (vm *VM) leaves(target, sp int32) bool {
	n := len(vm.stack)
	if n == 0 {
		return false
	}
	top := &vm.stack[n-1]
	return top.depth == sp && (target <= top.lo || target > top.hi)
}

// reconverge handles reaching the innermost branch's reconvergence pc:
// the pending lanes run next, or, when both sides are done, the branch's
// mask is restored. It returns the pc to continue at.
func (vm *VM) reconverge() int32 {
	top := &vm.stack[len(vm.stack)-1]
	if top.pending != 0 {
		vm.setMask(top.pending)
		top.pending = 0
		return top.pendPC
	}
	vm.setMask(top.saved)
	pc := top.hi
	vm.stack = vm.stack[:len(vm.stack)-1]
	return pc
}

// serialize finishes the group one lane at a time from the current state:
// the active lanes resume at pc, the lanes parked on the mask stack at
// their branch target or reconvergence pc. Lanes run in ascending order,
// so the first error reported is the one the interpreter, shading the
// group's invocations in order, would report.
func (vm *VM) serialize(pc, sp int32) error {
	var resume, depth [LaneWidth]int32
	var todo uint32
	park := func(m uint32, at, d int32) {
		for m &^= todo; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			resume[l], depth[l] = at, d
			todo |= 1 << l
		}
	}
	park(vm.mask, pc, sp)
	for i := len(vm.stack) - 1; i >= 0; i-- {
		e := &vm.stack[i]
		park(e.pending, e.pendPC, e.depth)
		park(e.saved, e.hi, e.depth)
	}
	vm.stack = vm.stack[:0]
	copy(vm.serCalls, vm.callStack)
	copy(vm.serLoops, vm.loopIters)
	for ; todo != 0; todo &= todo - 1 {
		l := bits.TrailingZeros32(todo)
		copy(vm.callStack, vm.serCalls)
		copy(vm.loopIters, vm.serLoops)
		vm.setMask(1 << l)
		if err := vm.exec(resume[l], depth[l]); err != nil {
			return err
		}
	}
	return nil
}

func (vm *VM) badAddr(ad int32) error {
	return &RuntimeError{Msg: "vm: register address " + strconv.Itoa(int(ad)) + " outside the register file"}
}

func (vm *VM) badStore(ad int32) error {
	return &RuntimeError{Msg: "vm: store to register " + strconv.Itoa(int(ad)) + " outside the writable registers"}
}

// exec runs the active lanes from pc at call depth sp until every lane of
// the group has finished.
func (vm *VM) exec(pc, sp int32) error {
	code := vm.c.code
	regs := vm.regs
	nregs := vm.c.nregs
	npool := int32(len(vm.c.pool)) // registers below npool are read-only
	act := vm.act
	// full selects the fast paths of the hottest instructions, which
	// sweep all LaneWidth lanes when every lane is active.
	full := len(act) == LaneWidth
	reconv := vm.reconvAt(sp)
	for {
		for pc == reconv {
			pc = vm.reconverge()
			act = vm.act
			full = len(act) == LaneWidth
			reconv = vm.reconvAt(sp)
		}
		in := &code[pc]
		vm.Dispatches++
		switch in.op {
		case opNop:
		case opStats:
			vm.Stats.addN(&vm.c.stats[in.aux], uint64(len(act)))
		case opJmp:
			if vm.leaves(in.aux, sp) {
				return vm.serialize(pc, sp)
			}
			pc = in.aux
			continue
		case opJz, opJnz:
			x := row(regs, in.a)
			var taken uint32
			for _, l := range act {
				if (x[l&15] == 0) == (in.op == opJz) {
					taken |= 1 << l
				}
			}
			if taken == 0 {
				break
			}
			if taken == vm.mask {
				if vm.leaves(in.aux, sp) {
					return vm.serialize(pc, sp)
				}
				pc = in.aux
				continue
			}
			if in.c < 0 {
				return vm.serialize(pc, sp)
			}
			vm.stack = append(vm.stack, divergence{
				lo: pc, hi: in.c, depth: sp,
				saved: vm.mask, pending: taken, pendPC: in.aux,
			})
			vm.setMask(vm.mask &^ taken)
			act = vm.act
			full = false
			reconv = in.c
		case opCall:
			if int(sp) >= len(vm.callStack) {
				return &RuntimeError{Msg: "vm: call stack overflow"}
			}
			vm.callStack[sp] = pc + 1
			sp++
			pc = vm.c.funcs[in.aux].entry
			reconv = -1
			continue
		case opRet:
			if reconv >= 0 {
				// A divergent return, or lanes finishing main early.
				return vm.serialize(pc, sp)
			}
			if sp == 0 {
				return nil
			}
			sp--
			pc = vm.callStack[sp]
			reconv = vm.reconvAt(sp)
			continue
		case opDiscard:
			// Discard in main finishes the lanes; in a callee it unwinds
			// one level so the call site's writeback epilogue (and its
			// Stats) still runs, like the interpreter's ctrlDiscard path.
			if reconv >= 0 {
				return vm.serialize(pc, sp)
			}
			if sp == 0 {
				vm.discarded |= vm.mask
				return nil
			}
			vm.discarding |= vm.mask
			sp--
			pc = vm.callStack[sp]
			reconv = vm.reconvAt(sp)
			continue
		case opDiscardTake:
			d := row(regs, in.dst)
			if full && vm.discarding == 0 {
				*d = lanes{}
				break
			}
			for _, l := range act {
				d[l&15] = b2f(vm.discarding&(1<<l) != 0)
			}
			vm.discarding &^= vm.mask
		case opDiscardHalt:
			x := row(regs, in.a)
			var halt uint32
			for _, l := range act {
				if x[l&15] != 0 {
					halt |= 1 << l
				}
			}
			if halt == 0 {
				break
			}
			if halt != vm.mask || len(vm.stack) > 0 {
				return vm.serialize(pc, sp)
			}
			vm.discarded |= halt
			return nil
		case opLoopReset:
			vm.loopIters[in.aux] = 0
		case opLoopGuard:
			if vm.loopIters[in.aux] > vm.loopLimit() {
				if len(vm.stack) > 0 {
					// Lanes parked on the stack run first if they come
					// first: the interpreter reports the earliest error.
					return vm.serialize(pc, sp)
				}
				return &RuntimeError{
					Pos: vm.c.poss[in.b],
					Msg: "loop exceeded " + strconv.Itoa(vm.loopLimit()) + " iterations (runaway shader)",
				}
			}
			vm.loopIters[in.aux]++
		case opZero:
			if full {
				clear(regs[in.dst : in.dst+in.n])
				break
			}
			for i := int32(0); i < in.n; i++ {
				d := row(regs, in.dst+i)
				for _, l := range act {
					d[l&15] = 0
				}
			}
		case opMov:
			// memmove semantics per lane: copy away from the overlap.
			if full {
				copy(regs[in.dst:in.dst+in.n], regs[in.a:in.a+in.n])
			} else if in.dst <= in.a {
				for i := int32(0); i < in.n; i++ {
					d, x := row(regs, in.dst+i), row(regs, in.a+i)
					for _, l := range act {
						d[l&15] = x[l&15]
					}
				}
			} else {
				for i := in.n - 1; i >= 0; i-- {
					d, x := row(regs, in.dst+i), row(regs, in.a+i)
					for _, l := range act {
						d[l&15] = x[l&15]
					}
				}
			}
		case opSplat:
			x := row(regs, in.a)
			for i := int32(0); i < in.n; i++ {
				d := row(regs, in.dst+i)
				if full {
					*d = *x
					continue
				}
				for _, l := range act {
					d[l&15] = x[l&15]
				}
			}
		case opSwizLoad:
			for i := int32(0); i < in.n; i++ {
				d, x := row(regs, in.dst+i), row(regs, in.a+(in.aux>>(4*i))&0xf)
				if full {
					*d = *x
					continue
				}
				for _, l := range act {
					d[l&15] = x[l&15]
				}
			}
		case opSwizStore:
			for i := int32(0); i < in.n; i++ {
				d, x := row(regs, in.dst+(in.aux>>(4*i))&0xf), row(regs, in.a+i)
				if full {
					*d = *x
					continue
				}
				for _, l := range act {
					d[l&15] = x[l&15]
				}
			}
		case opLoadInd:
			addr := row(regs, in.a)
			for _, l := range act {
				ad := int32(addr[l&15])
				if ad < 0 || ad > nregs-in.n {
					return vm.badAddr(ad)
				}
				moveLane(regs, in.dst, ad, in.n, l)
			}
		case opStoreInd:
			addr := row(regs, in.a)
			for _, l := range act {
				ad := int32(addr[l&15])
				if ad < npool || ad > nregs-in.n {
					return vm.badStore(ad)
				}
				moveLane(regs, ad, in.b, in.n, l)
			}
		case opLoadIndC:
			addr := row(regs, in.a)
			for _, l := range act {
				ad := int32(addr[l&15])
				for i := int32(0); i < in.n; i++ {
					p := ad + (in.aux>>(4*i))&0xf
					if p < 0 || p >= nregs {
						return vm.badAddr(p)
					}
					regs[in.dst+i][l&15] = regs[p][l&15]
				}
			}
		case opStoreIndC:
			addr := row(regs, in.a)
			for _, l := range act {
				ad := int32(addr[l&15])
				for i := int32(0); i < in.n; i++ {
					p := ad + (in.aux>>(4*i))&0xf
					if p < npool || p >= nregs {
						return vm.badStore(p)
					}
					regs[p][l&15] = regs[in.b+i][l&15]
				}
			}
		case opAddrOff:
			d, x := row(regs, in.dst), row(regs, in.a)
			for _, l := range act {
				d[l&15] = x[l&15] + float32(in.n)
			}
		case opDynAddr:
			d, x := row(regs, in.dst), row(regs, in.a)
			for _, l := range act {
				base := in.c
				if in.b >= 0 {
					base = int32(regs[in.b][l&15])
				}
				idx := clampIndex(int(int32(x[l&15])), int(in.aux))
				d[l&15] = float32(base + int32(idx)*in.n)
			}
		case opDynPick:
			d, x := row(regs, in.dst), row(regs, in.a)
			limit := int(in.aux & 0xff)
			for _, l := range act {
				base := in.c
				if in.b >= 0 {
					base = int32(regs[in.b][l&15])
				}
				idx := clampIndex(int(int32(x[l&15])), limit)
				d[l&15] = float32(base + (in.aux>>(8+4*int32(idx)))&0xf)
			}
		case opAdd, opSub, opMul, opDivF, opDivI:
			sx, sy := stride(in.aux&1), stride(in.aux&2)
			for i := int32(0); i < in.n; i++ {
				d, x, y := row(regs, in.dst+i), row(regs, in.a+i*sx), row(regs, in.b+i*sy)
				if full && in.op != opDivI {
					arith(in.op, d, x, y)
					continue
				}
				switch in.op {
				case opAdd:
					for _, l := range act {
						d[l&15] = x[l&15] + y[l&15]
					}
				case opSub:
					for _, l := range act {
						d[l&15] = x[l&15] - y[l&15]
					}
				case opMul:
					for _, l := range act {
						d[l&15] = x[l&15] * y[l&15]
					}
				case opDivF:
					for _, l := range act {
						d[l&15] = x[l&15] / y[l&15]
					}
				default:
					for _, l := range act {
						if y[l&15] == 0 {
							d[l&15] = 0 // undefined in GLSL; pick 0 deterministically
						} else {
							d[l&15] = truncToward0(float64(x[l&15]) / float64(y[l&15]))
						}
					}
				}
			}
		case opNeg:
			for i := int32(0); i < in.n; i++ {
				d, x := row(regs, in.dst+i), row(regs, in.a+i)
				for _, l := range act {
					d[l&15] = -x[l&15]
				}
			}
		case opNot, opBoolNorm, opConvBool:
			for i := int32(0); i < max(in.n, 1); i++ {
				d, x := row(regs, in.dst+i), row(regs, in.a+i)
				for _, l := range act {
					d[l&15] = b2f((x[l&15] != 0) != (in.op == opNot))
				}
			}
		case opXorXor, opLt, opLe, opGt, opGe:
			d, x, y := row(regs, in.dst), row(regs, in.a), row(regs, in.b)
			for _, l := range act {
				a, b := x[l&15], y[l&15]
				var r bool
				switch in.op {
				case opXorXor:
					r = (a != 0) != (b != 0)
				case opLt:
					r = a < b
				case opLe:
					r = a <= b
				case opGt:
					r = a > b
				default:
					r = a >= b
				}
				d[l&15] = b2f(r)
			}
		case opEqV, opNeV:
			for _, l := range act {
				eq := true
				for i := int32(0); i < in.n; i++ {
					if regs[in.a+i][l&15] != regs[in.b+i][l&15] {
						eq = false
						break
					}
				}
				regs[in.dst][l&15] = b2f(eq != (in.op == opNeV))
			}
		case opConvInt:
			for i := int32(0); i < in.n; i++ {
				d, x := row(regs, in.dst+i), row(regs, in.a+i)
				for _, l := range act {
					d[l&15] = truncToward0(float64(x[l&15]))
				}
			}
		case opMatDiag, opMatMulMM, opMatMulMV, opMatMulVM:
			for _, l := range act {
				matLane(regs, l, in)
			}
		case opBuiltin:
			vm.execBuiltin(&vm.c.builtins[in.aux], act)
		default:
			return &RuntimeError{Msg: "vm: unknown opcode " + strconv.Itoa(int(in.op))}
		}
		pc++
	}
}

// arith runs opAdd, opSub, opMul or opDivF on all LaneWidth lanes,
// unrolled by four.
func arith(op opcode, d, x, y *lanes) {
	switch op {
	case opAdd:
		for l := 0; l < LaneWidth; l += 4 {
			d[l], d[l+1], d[l+2], d[l+3] = x[l]+y[l], x[l+1]+y[l+1], x[l+2]+y[l+2], x[l+3]+y[l+3]
		}
	case opSub:
		for l := 0; l < LaneWidth; l += 4 {
			d[l], d[l+1], d[l+2], d[l+3] = x[l]-y[l], x[l+1]-y[l+1], x[l+2]-y[l+2], x[l+3]-y[l+3]
		}
	case opMul:
		for l := 0; l < LaneWidth; l += 4 {
			d[l], d[l+1], d[l+2], d[l+3] = x[l]*y[l], x[l+1]*y[l+1], x[l+2]*y[l+2], x[l+3]*y[l+3]
		}
	case opDivF:
		for l := 0; l < LaneWidth; l += 4 {
			d[l], d[l+1], d[l+2], d[l+3] = x[l]/y[l], x[l+1]/y[l+1], x[l+2]/y[l+2], x[l+3]/y[l+3]
		}
	}
}

// stride is the register step between components of an operand: 0 when
// the operand's broadcast flag is set (a scalar applied to every
// component), else 1.
func stride(flag int32) int32 {
	if flag != 0 {
		return 0
	}
	return 1
}

// moveLane copies n registers from src to dst in one lane with memmove
// semantics, like the scalar copy it replaces.
func moveLane(regs []lanes, dst, src, n int32, l uint8) {
	if dst <= src {
		for i := int32(0); i < n; i++ {
			regs[dst+i][l&15] = regs[src+i][l&15]
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		regs[dst+i][l&15] = regs[src+i][l&15]
	}
}

// matLane runs one matrix instruction in lane l.
func matLane(regs []lanes, l uint8, in *instr) {
	r := func(x int32) *float32 { return &regs[x][l&15] }
	n := in.n
	switch in.op {
	case opMatDiag:
		for i := int32(0); i < n*n; i++ {
			*r(in.dst + i) = 0
		}
		v := *r(in.a)
		for i := int32(0); i < n; i++ {
			*r(in.dst + i*n + i) = v
		}
	case opMatMulMM:
		for col := int32(0); col < n; col++ {
			for rw := int32(0); rw < n; rw++ {
				var s float32
				for k := int32(0); k < n; k++ {
					s += *r(in.a + k*n + rw) * *r(in.b + col*n + k)
				}
				*r(in.dst + col*n + rw) = s
			}
		}
	case opMatMulMV:
		for rw := int32(0); rw < n; rw++ {
			var s float32
			for k := int32(0); k < n; k++ {
				s += *r(in.a + k*n + rw) * *r(in.b + k)
			}
			*r(in.dst + rw) = s
		}
	case opMatMulVM:
		for col := int32(0); col < n; col++ {
			var s float32
			for k := int32(0); k < n; k++ {
				s += *r(in.a + k) * *r(in.b + col*n + k)
			}
			*r(in.dst + col) = s
		}
	}
}

func b2f(b bool) float32 {
	if b {
		return 1
	}
	return 0
}

// sfuExp2 and sfuLog2 mirror the Exec methods (SFU counts are folded into
// the compiled stats tables, so only the arithmetic lives here).
func (vm *VM) sfuExp2(x float32) float32 {
	return vm.SFU.Approx(x, float32(math.Exp2(float64(x))))
}

func (vm *VM) sfuLog2(x float32) float32 {
	return vm.SFU.Approx(x, float32(math.Log2(float64(x))))
}

// execBuiltin reproduces Exec.evalBuiltin's arithmetic over the active
// lanes. The builtins of the codec and NN kernels run lane-inner loops
// (the compiler's componentwise list names those that read each argument
// component just before writing the same result component); a texture
// instruction is one SampleLanes call; the rest run the lane-at-a-time
// reference in builtinLane. Every case must stay bit-for-bit identical to
// builtins_exec.go.
func (vm *VM) execBuiltin(d *builtinDesc, act []uint8) {
	regs := vm.regs
	nc := d.nc
	// arg(k, i) is component i of argument k; comp(k, i) broadcasts a
	// scalar argument (GLSL genType rules).
	arg := func(k, i int32) *lanes { return row(regs, d.args[k]+i) }
	comp := func(k, i int32) *lanes {
		if d.scalar[k] {
			return row(regs, d.args[k])
		}
		return row(regs, d.args[k]+i)
	}
	switch d.id {
	case glsl.BFloor:
		for i := int32(0); i < nc; i++ {
			o, x := row(regs, d.dst+i), arg(0, i)
			for _, l := range act {
				o[l&15] = float32(math.Floor(float64(x[l&15])))
			}
		}
	case glsl.BFract:
		for i := int32(0); i < nc; i++ {
			o, x := row(regs, d.dst+i), arg(0, i)
			for _, l := range act {
				v := float64(x[l&15])
				o[l&15] = float32(v - math.Floor(v))
			}
		}
	case glsl.BAbs:
		for i := int32(0); i < nc; i++ {
			o, x := row(regs, d.dst+i), arg(0, i)
			for _, l := range act {
				o[l&15] = float32(math.Abs(float64(x[l&15])))
			}
		}
	case glsl.BMod:
		for i := int32(0); i < nc; i++ {
			o, x, y := row(regs, d.dst+i), comp(0, i), comp(1, i)
			for _, l := range act {
				a, b := x[l&15], y[l&15]
				o[l&15] = a - b*float32(math.Floor(float64(a/b)))
			}
		}
	case glsl.BMin:
		for i := int32(0); i < nc; i++ {
			o, x, y := row(regs, d.dst+i), comp(0, i), comp(1, i)
			for _, l := range act {
				o[l&15] = minf(x[l&15], y[l&15])
			}
		}
	case glsl.BMax:
		for i := int32(0); i < nc; i++ {
			o, x, y := row(regs, d.dst+i), comp(0, i), comp(1, i)
			for _, l := range act {
				o[l&15] = maxf(x[l&15], y[l&15])
			}
		}
	case glsl.BClamp:
		for i := int32(0); i < nc; i++ {
			o, x, lo, hi := row(regs, d.dst+i), arg(0, i), comp(1, i), comp(2, i)
			for _, l := range act {
				o[l&15] = minf(maxf(x[l&15], lo[l&15]), hi[l&15])
			}
		}
	case glsl.BMix:
		for i := int32(0); i < nc; i++ {
			o, x, y, tt := row(regs, d.dst+i), arg(0, i), arg(1, i), comp(2, i)
			for _, l := range act {
				a, b, t := x[l&15], y[l&15], tt[l&15]
				o[l&15] = a*(1-t) + b*t
			}
		}
	case glsl.BStep:
		for i := int32(0); i < nc; i++ {
			o, edge, x := row(regs, d.dst+i), comp(0, i), comp(1, i)
			for _, l := range act {
				o[l&15] = b2f(!(x[l&15] < edge[l&15]))
			}
		}
	case glsl.BDot:
		o := row(regs, d.dst)
		for _, l := range act {
			var s float32
			for i := int32(0); i < d.an; i++ {
				s += regs[d.args[0]+i][l&15] * regs[d.args[1]+i][l&15]
			}
			o[l&15] = s
		}
	case glsl.BExp2, glsl.BLog2:
		for i := int32(0); i < nc; i++ {
			o, x := row(regs, d.dst+i), arg(0, i)
			for _, l := range act {
				if d.id == glsl.BExp2 {
					o[l&15] = vm.sfuExp2(x[l&15])
				} else {
					o[l&15] = vm.sfuLog2(x[l&15])
				}
			}
		}
	case glsl.BTexture2D, glsl.BTexture2DBias, glsl.BTexture2DLod:
		vm.Textures.SampleLanes(arg(0, 0), arg(1, 0), arg(1, 1), nil, act, texOut(regs, d.dst))
	case glsl.BTexture2DProj3, glsl.BTexture2DProjLod3, glsl.BTexture2DProj4, glsl.BTexture2DProjLod4:
		q := arg(1, 2)
		if d.id == glsl.BTexture2DProj4 || d.id == glsl.BTexture2DProjLod4 {
			q = arg(1, 3)
		}
		s, t := arg(1, 0), arg(1, 1)
		ps, pt := &vm.texST[0], &vm.texST[1]
		for _, l := range act {
			ps[l&15], pt[l&15] = s[l&15]/q[l&15], t[l&15]/q[l&15]
		}
		vm.Textures.SampleLanes(arg(0, 0), ps, pt, nil, act, texOut(regs, d.dst))
	case glsl.BTextureCube, glsl.BTextureCubeBias, glsl.BTextureCubeLod:
		vm.Textures.SampleLanes(arg(0, 0), arg(1, 0), arg(1, 1), arg(1, 2), act, texOut(regs, d.dst))
	default:
		// Zero the destination first, like the interpreter's fresh out
		// Value (some builtins write components conditionally, e.g.
		// refract); the cases above write every component.
		for i := int32(0); i < max(nc, 1); i++ {
			o := row(regs, d.dst+i)
			for _, l := range act {
				o[l&15] = 0
			}
		}
		for _, l := range act {
			vm.builtinLane(d, l)
		}
	}
}

// texOut is the four result rows of a texture instruction.
func texOut(regs []lanes, dst int32) *[4]lanes { return (*[4]lanes)(regs[dst : dst+4]) }

// builtinLane evaluates the remaining builtins in one lane.
func (vm *VM) builtinLane(d *builtinDesc, l uint8) {
	regs := vm.regs
	nc := d.nc
	out := func(i int32) *float32 { return &regs[d.dst+i][l&15] }
	arg := func(k, i int32) float32 { return regs[d.args[k]+i][l&15] }
	comp := func(k, i int32) float32 {
		if d.scalar[k] {
			return regs[d.args[k]][l&15]
		}
		return arg(k, i)
	}
	un := func(fn func(float64) float64, sfu bool) {
		for i := int32(0); i < nc; i++ {
			r := float32(fn(float64(arg(0, i))))
			if sfu {
				r = vm.SFU.Quantize(r)
			}
			*out(i) = r
		}
	}

	switch d.id {
	case glsl.BRadians:
		un(func(x float64) float64 { return x * math.Pi / 180 }, false)
	case glsl.BDegrees:
		un(func(x float64) float64 { return x * 180 / math.Pi }, false)
	case glsl.BSin:
		un(math.Sin, true)
	case glsl.BCos:
		un(math.Cos, true)
	case glsl.BTan:
		un(math.Tan, true)
	case glsl.BAsin:
		un(math.Asin, true)
	case glsl.BAcos:
		un(math.Acos, true)
	case glsl.BAtan:
		un(math.Atan, true)
	case glsl.BAtan2:
		for i := int32(0); i < nc; i++ {
			*out(i) = float32(math.Atan2(float64(comp(0, i)), float64(comp(1, i))))
		}
	case glsl.BPow:
		for i := int32(0); i < nc; i++ {
			x, y := comp(0, i), comp(1, i)
			*out(i) = vm.sfuExp2(y * vm.sfuLog2(x))
		}
	case glsl.BExp:
		for i := int32(0); i < nc; i++ {
			*out(i) = vm.sfuExp2(arg(0, i) * float32(math.Log2E))
		}
	case glsl.BLog:
		for i := int32(0); i < nc; i++ {
			*out(i) = vm.sfuLog2(arg(0, i)) * float32(math.Ln2)
		}
	case glsl.BSqrt:
		un(math.Sqrt, false)
	case glsl.BInverseSqrt:
		un(func(x float64) float64 { return 1 / math.Sqrt(x) }, false)
	case glsl.BSign:
		un(func(x float64) float64 {
			if x > 0 {
				return 1
			}
			if x < 0 {
				return -1
			}
			return 0
		}, false)
	case glsl.BCeil:
		un(math.Ceil, false)
	case glsl.BSmoothstep:
		for i := int32(0); i < nc; i++ {
			e0, e1, x := comp(0, i), comp(1, i), arg(d.nargs-1, i)
			t := (x - e0) / (e1 - e0)
			if t < 0 {
				t = 0
			}
			if t > 1 {
				t = 1
			}
			*out(i) = t * t * (3 - 2*t)
		}
	case glsl.BLength:
		var s float64
		for i := int32(0); i < d.an; i++ {
			s += float64(arg(0, i)) * float64(arg(0, i))
		}
		*out(0) = float32(math.Sqrt(s))
	case glsl.BDistance:
		var s float64
		for i := int32(0); i < d.an; i++ {
			df := float64(arg(0, i) - arg(1, i))
			s += df * df
		}
		*out(0) = float32(math.Sqrt(s))
	case glsl.BCross:
		a0, a1, a2 := arg(0, 0), arg(0, 1), arg(0, 2)
		b0, b1, b2 := arg(1, 0), arg(1, 1), arg(1, 2)
		*out(0) = a1*b2 - a2*b1
		*out(1) = a2*b0 - a0*b2
		*out(2) = a0*b1 - a1*b0
	case glsl.BNormalize:
		var s float64
		for i := int32(0); i < d.an; i++ {
			s += float64(arg(0, i)) * float64(arg(0, i))
		}
		inv := float32(1 / math.Sqrt(s))
		for i := int32(0); i < d.an; i++ {
			*out(i) = arg(0, i) * inv
		}
	case glsl.BFaceforward:
		var dd float32
		for i := int32(0); i < d.an; i++ {
			dd += arg(2, i) * arg(1, i)
		}
		for i := int32(0); i < d.an; i++ {
			if dd < 0 {
				*out(i) = arg(0, i)
			} else {
				*out(i) = -arg(0, i)
			}
		}
	case glsl.BReflect:
		var dd float32
		for i := int32(0); i < d.an; i++ {
			dd += arg(1, i) * arg(0, i)
		}
		for i := int32(0); i < d.an; i++ {
			*out(i) = arg(0, i) - 2*dd*arg(1, i)
		}
	case glsl.BRefract:
		eta := arg(2, 0)
		var dd float64
		for i := int32(0); i < d.an; i++ {
			dd += float64(arg(1, i)) * float64(arg(0, i))
		}
		k := 1 - float64(eta)*float64(eta)*(1-dd*dd)
		if k >= 0 {
			for i := int32(0); i < d.an; i++ {
				*out(i) = eta*arg(0, i) - float32(float64(eta)*dd+math.Sqrt(k))*arg(1, i)
			}
		}
	case glsl.BMatrixCompMult:
		for i := int32(0); i < d.dim*d.dim; i++ {
			*out(i) = arg(0, i) * arg(1, i)
		}
	case glsl.BLessThan, glsl.BLessThanEqual, glsl.BGreaterThan, glsl.BGreaterThanEqual,
		glsl.BEqual, glsl.BNotEqual:
		for i := int32(0); i < d.an; i++ {
			a, b := arg(0, i), arg(1, i)
			var r bool
			switch d.id {
			case glsl.BLessThan:
				r = a < b
			case glsl.BLessThanEqual:
				r = a <= b
			case glsl.BGreaterThan:
				r = a > b
			case glsl.BGreaterThanEqual:
				r = a >= b
			case glsl.BEqual:
				r = a == b
			case glsl.BNotEqual:
				r = a != b
			}
			*out(i) = b2f(r)
		}
	case glsl.BAny:
		for i := int32(0); i < d.an; i++ {
			if arg(0, i) != 0 {
				*out(0) = 1
			}
		}
	case glsl.BAll:
		*out(0) = 1
		for i := int32(0); i < d.an; i++ {
			if arg(0, i) == 0 {
				*out(0) = 0
			}
		}
	case glsl.BNot:
		for i := int32(0); i < d.an; i++ {
			*out(i) = b2f(arg(0, i) == 0)
		}
	}
}
