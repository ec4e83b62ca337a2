package shader

// Executor abstracts the two shader execution engines — the bytecode
// lane engine (VM, the default) and the AST interpreter (Exec, the
// reference implementation and link-failure fallback, adapted by Serial)
// — behind the operations the GLES pipeline needs. An Executor shades a
// group of up to Lanes() invocations that share uniforms; per-invocation
// inputs and outputs are addressed by lane. The differential tests run
// both engines and require bit-identical results and Stats.

import (
	"strconv"

	"glescompute/internal/glsl"
)

// Executor shades groups of invocations of one shader stage.
type Executor interface {
	// Lanes is the largest group Run accepts.
	Lanes() int
	// InitGlobals evaluates file-scope initializers. Call after uniforms
	// are set and before the first Run.
	InitGlobals() error
	// Run executes main() once on each of lanes [0, n) and returns the
	// mask of lanes that discarded. Fragment outputs are zeroed first.
	Run(n int) (discarded uint32, err error)
	// StatsRef exposes the accumulated operation counters.
	StatsRef() *Stats
	// SetGlobal stores a runtime value into a global variable on every
	// lane (uniforms).
	SetGlobal(d *glsl.VarDecl, val Value)
	// ReadGlobalFlat copies a lane's global flattened components out
	// (varying capture after the vertex stage); out holds the global's
	// flat size.
	ReadGlobalFlat(lane int, d *glsl.VarDecl, out []float32)
	// SetGlobalFlat fills a lane's global from its flattened components
	// (attributes and varyings). Unlike SetGlobal it does not touch the
	// per-run reset snapshot.
	SetGlobalFlat(lane int, d *glsl.VarDecl, in []float32)

	// Vertex-stage outputs.
	Position(lane int) [4]float32
	PointSize(lane int) float32

	// Fragment-stage inputs and outputs.
	SetFragCoord(lane int, v [4]float32)
	SetFrontFacing(lane int, front bool)
	SetPointCoord(lane int, x, y float32)
	FragOutput(lane int) [4]float32
}

// ---- Exec (interpreter) implementation ----

// StatsRef returns the interpreter's counters.
func (ex *Exec) StatsRef() *Stats { return &ex.Stats }

// ReadGlobalFlat flattens the global's current value.
func (ex *Exec) ReadGlobalFlat(d *glsl.VarDecl, out []float32) {
	flattenValueInto(out, ex.Globals[d.Slot])
}

// SetGlobalFlat rebuilds the global from flattened components.
func (ex *Exec) SetGlobalFlat(d *glsl.VarDecl, in []float32) {
	v := Zero(d.DeclType)
	unflattenValueFrom(&v, in)
	ex.Globals[d.Slot] = v
}

// Position returns gl_Position.
func (ex *Exec) Position() [4]float32 {
	return ex.Builtins[glsl.BVSlotPosition].Vec4()
}

// PointSize returns gl_PointSize.
func (ex *Exec) PointSize() float32 {
	return ex.Builtins[glsl.BVSlotPointSize].F[0]
}

// SetFragCoord sets gl_FragCoord.
func (ex *Exec) SetFragCoord(v [4]float32) {
	ex.Builtins[glsl.BVSlotFragCoord] = Vec4Val(v[0], v[1], v[2], v[3])
}

// SetFrontFacing sets gl_FrontFacing.
func (ex *Exec) SetFrontFacing(front bool) {
	ex.Builtins[glsl.BVSlotFrontFacing] = BoolVal(front)
}

// SetPointCoord sets gl_PointCoord.
func (ex *Exec) SetPointCoord(x, y float32) {
	ex.Builtins[glsl.BVSlotPointCoord] = Vec2Val(x, y)
}

// ResetFragOutputs zeroes gl_FragColor and gl_FragData (GL leaves them
// undefined; zero is deterministic).
func (ex *Exec) ResetFragOutputs() {
	ex.Builtins[glsl.BVSlotFragColor] = Zero(glsl.TypeVec4)
	ex.Builtins[glsl.BVSlotFragData] = Zero(glsl.ArrayOf(glsl.TypeVec4, glsl.MaxDrawBuffers))
}

// FragOutput returns the fragment color: gl_FragColor, or gl_FragData[0]
// when the shader wrote it.
func (ex *Exec) FragOutput() [4]float32 {
	out := ex.Builtins[glsl.BVSlotFragColor]
	fd := ex.Builtins[glsl.BVSlotFragData]
	if len(fd.Agg) > 0 && anyComponentNonZero(fd.Agg[0]) {
		out = fd.Agg[0]
	}
	return out.Vec4()
}

func anyComponentNonZero(v Value) bool {
	for i := 0; i < 4; i++ {
		if v.F[i] != 0 {
			return true
		}
	}
	return false
}

// serial adapts the interpreter to Executor as a group of one lane.
type serial struct{ *Exec }

// Serial returns ex as an Executor shading one invocation per group.
func Serial(ex *Exec) Executor { return serial{ex} }

func (s serial) Lanes() int { return 1 }

func (s serial) Run(n int) (uint32, error) {
	if n != 1 {
		return 0, &RuntimeError{Msg: "interpreter: group of " + strconv.Itoa(n) + " lanes"}
	}
	if s.Prog.Stage == glsl.StageFragment {
		s.ResetFragOutputs()
	}
	discarded, err := s.Exec.Run()
	if discarded {
		return 1, err
	}
	return 0, err
}

func (s serial) ReadGlobalFlat(_ int, d *glsl.VarDecl, out []float32) {
	s.Exec.ReadGlobalFlat(d, out)
}
func (s serial) SetGlobalFlat(_ int, d *glsl.VarDecl, in []float32) { s.Exec.SetGlobalFlat(d, in) }
func (s serial) Position(int) [4]float32                            { return s.Exec.Position() }
func (s serial) PointSize(int) float32                              { return s.Exec.PointSize() }
func (s serial) SetFragCoord(_ int, v [4]float32)                   { s.Exec.SetFragCoord(v) }
func (s serial) SetFrontFacing(_ int, front bool)                   { s.Exec.SetFrontFacing(front) }
func (s serial) SetPointCoord(_ int, x, y float32)                  { s.Exec.SetPointCoord(x, y) }
func (s serial) FragOutput(int) [4]float32                          { return s.Exec.FragOutput() }

// ---- VM (lane engine) implementation ----

// StatsRef returns the VM's counters.
func (vm *VM) StatsRef() *Stats { return &vm.Stats }

// lane returns register r of lane l.
func (vm *VM) lane(r int32, l int) *float32 { return &vm.regs[r][l] }

// ReadGlobalFlat copies len(out) flattened components of a lane's global
// out.
func (vm *VM) ReadGlobalFlat(lane int, d *glsl.VarDecl, out []float32) {
	off := vm.c.globalOff[d.Slot]
	for i := range out {
		out[i] = *vm.lane(off+int32(i), lane)
	}
}

// SetGlobalFlat copies len(in) flattened components into a lane's
// global.
func (vm *VM) SetGlobalFlat(lane int, d *glsl.VarDecl, in []float32) {
	off := vm.c.globalOff[d.Slot]
	for i, v := range in {
		*vm.lane(off+int32(i), lane) = v
	}
}

// vec4 reads registers r..r+3 of a lane.
func (vm *VM) vec4(r int32, l int) [4]float32 {
	return [4]float32{*vm.lane(r, l), *vm.lane(r+1, l), *vm.lane(r+2, l), *vm.lane(r+3, l)}
}

// Position returns a lane's gl_Position.
func (vm *VM) Position(lane int) [4]float32 {
	return vm.vec4(vm.c.builtinOff[glsl.BVSlotPosition], lane)
}

// PointSize returns a lane's gl_PointSize.
func (vm *VM) PointSize(lane int) float32 {
	return *vm.lane(vm.c.builtinOff[glsl.BVSlotPointSize], lane)
}

// SetFragCoord sets a lane's gl_FragCoord.
func (vm *VM) SetFragCoord(lane int, v [4]float32) {
	o := vm.c.builtinOff[glsl.BVSlotFragCoord]
	for i := int32(0); i < 4; i++ {
		*vm.lane(o+i, lane) = v[i]
	}
}

// SetFrontFacing sets a lane's gl_FrontFacing.
func (vm *VM) SetFrontFacing(lane int, front bool) {
	*vm.lane(vm.c.builtinOff[glsl.BVSlotFrontFacing], lane) = b2f(front)
}

// SetPointCoord sets a lane's gl_PointCoord.
func (vm *VM) SetPointCoord(lane int, x, y float32) {
	o := vm.c.builtinOff[glsl.BVSlotPointCoord]
	*vm.lane(o, lane), *vm.lane(o+1, lane) = x, y
}

// FragOutput returns a lane's gl_FragColor, or gl_FragData[0] when
// written.
func (vm *VM) FragOutput(lane int) [4]float32 {
	fd := vm.vec4(vm.c.builtinOff[glsl.BVSlotFragData], lane)
	if fd != [4]float32{} {
		return fd
	}
	return vm.vec4(vm.c.builtinOff[glsl.BVSlotFragColor], lane)
}

// ---- Flattening helpers ----

// flattenValueInto writes a value's scalar components in declaration
// order (aggregates first-to-last, matrices column-major, samplers as
// their unit index) and returns the component count.
func flattenValueInto(dst []float32, v Value) int {
	if len(v.Agg) > 0 {
		off := 0
		for _, el := range v.Agg {
			off += flattenValueInto(dst[off:], el)
		}
		return off
	}
	n := 0
	if v.T != nil {
		n = v.T.FlatSize()
	}
	if n > len(v.F) {
		n = len(v.F)
	}
	copy(dst[:n], v.F[:n])
	return n
}

// unflattenValueFrom fills a zero-shaped value from flattened components
// and returns the consumed count.
func unflattenValueFrom(v *Value, in []float32) int {
	if len(v.Agg) > 0 {
		off := 0
		for i := range v.Agg {
			off += unflattenValueFrom(&v.Agg[i], in[off:])
		}
		return off
	}
	n := 0
	if v.T != nil {
		n = v.T.FlatSize()
	}
	if n > len(v.F) {
		n = len(v.F)
	}
	copy(v.F[:n], in[:n])
	return n
}
