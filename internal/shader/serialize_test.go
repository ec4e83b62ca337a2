package shader

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"glescompute/internal/glsl"
)

// loaderProbeSrc exercises every operand shape the loader checks: dynamic
// indexing (opDynAddr/opLoadInd/opStoreInd and the swizzled …C forms),
// builtins with broadcast and vector arguments, matrices, calls with out
// parameters, loops and discard. Its literals fill a constant pool.
const loaderProbeSrc = `precision highp float;
uniform sampler2D u_t;
uniform vec4 u_v;
varying vec4 v_p;
void split(float x, out float ip, inout vec2 acc) { ip = floor(x); acc += vec2(x - ip, ip); }
void main() {
	float arr[5];
	for (int i = 0; i < 5; i++) { arr[i] = float(i) * v_p.x; }
	int j = int(v_p.y);
	arr[j] += 1.0;
	vec4 v = u_v;
	v.zyx[j] = arr[j];
	vec4 q[2];
	q[0] = u_v; q[1] = v_p;
	q[j].zx = v_p.xy;
	mat3 m = mat3(v_p.x, v_p.y, v_p.z, u_v.x, u_v.y, u_v.z, 1.0, 2.0, 3.0);
	vec3 mv = m * vec3(1.0, arr[1], arr[j]);
	float ip; vec2 acc = v_p.zw;
	split(v_p.w * 3.7, ip, acc);
	vec4 t = texture2D(u_t, v_p.xy) + vec4(dot(mv, mv));
	vec3 r = refract(normalize(mv + vec3(3.0)), vec3(0.0, 1.0, 0.0), 0.9);
	if (v_p.z > 20.0) { discard; }
	gl_FragColor = t + vec4(r, ip) + v + q[0] + vec4(clamp(acc, 0.0, 1.0), mix(v_p.xy, v_p.zw, 0.5));
}`

func marshalProbe(t *testing.T) (*Compiled, []byte) {
	t.Helper()
	c, err := Compile(compileSrc(t, loaderProbeSrc, glsl.StageFragment))
	if err != nil {
		t.Fatal(err)
	}
	blob, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return c, blob
}

// runGroup shades one full group of the loaded program, converting a
// panic into a test failure.
func runGroup(t *testing.T, c *Compiled, what string) (err error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: VM panicked: %v", what, r)
		}
	}()
	vm := NewVM(c, diffSampler{}, DefaultSFU)
	vm.MaxLoopIter = 1 << 10
	if err := vm.InitGlobals(); err != nil {
		return err
	}
	g := lcg(9)
	for l := 0; l < LaneWidth; l++ {
		for _, vr := range c.Prog.Varyings {
			in := make([]float32, vr.DeclType.FlatSize())
			for i := range in {
				in[i] = g.float(glsl.KFloat)
			}
			vm.SetGlobalFlat(l, vr, in)
		}
	}
	_, err = vm.Run(LaneWidth)
	return err
}

// TestUnmarshalRejectsRegisterOperands is the regression test for
// program binaries whose register operands lie outside the register
// file: they used to load and then panic the VM ("index out of range
// [1022] with length 22"). Every register-bearing field of every
// instruction and builtin descriptor is corrupted in turn; each corrupted
// blob must either be rejected by UnmarshalCompiled or run without
// panicking.
func TestUnmarshalRejectsRegisterOperands(t *testing.T) {
	_, blob := marshalProbe(t)
	orig, err := UnmarshalCompiled(blob)
	if err != nil {
		t.Fatalf("pristine blob rejected: %v", err)
	}
	if err := runGroup(t, orig, "pristine"); err != nil {
		t.Fatalf("pristine program: %v", err)
	}
	wild := []int32{-1, orig.nregs, orig.nregs + 1000, 1 << 30}

	try := func(what string, corrupt func(c *Compiled), runnable bool) (rejected bool) {
		c, err := UnmarshalCompiled(blob)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(c)
		bad, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := UnmarshalCompiled(bad)
		if err != nil {
			return true
		}
		if runnable {
			runGroup(t, loaded, what)
		}
		return false
	}

	fields := []struct {
		name string
		ptr  func(in *instr) *int32
	}{
		{"dst", func(in *instr) *int32 { return &in.dst }},
		{"a", func(in *instr) *int32 { return &in.a }},
		{"b", func(in *instr) *int32 { return &in.b }},
		{"c", func(in *instr) *int32 { return &in.c }},
		{"n", func(in *instr) *int32 { return &in.n }},
		{"aux", func(in *instr) *int32 { return &in.aux }},
	}
	rejected := 0
	for pc, in := range orig.code {
		// Corrupted control flow may legally loop forever, so only
		// straight-line instructions are run after a corruption loads.
		runnable := true
		switch in.op {
		case opJmp, opJz, opJnz, opCall, opRet, opLoopReset, opLoopGuard:
			runnable = false
		}
		for _, f := range fields {
			for _, v := range wild {
				what := fmt.Sprintf("pc %d op %d %s=%d", pc, in.op, f.name, v)
				if try(what, func(c *Compiled) { *f.ptr(&c.code[pc]) = v }, runnable) {
					rejected++
				}
			}
		}
	}
	for i := range orig.builtins {
		for k := -1; k < 3; k++ {
			for _, v := range wild {
				what := fmt.Sprintf("builtin %d operand %d=%d", i, k, v)
				if try(what, func(c *Compiled) {
					if k < 0 {
						c.builtins[i].dst = v
					} else {
						c.builtins[i].args[k] = v
					}
				}, true) {
					rejected++
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no corruption was rejected")
	}

	// The constant pool is read-only: a pool outside the register file,
	// and any static write into it — an instruction's destination or a
	// builtin descriptor's — fail to load.
	if len(orig.pool) == 0 {
		t.Fatal("probe program has no constant pool")
	}
	if !try("pool beyond the file", func(c *Compiled) { c.pool = make([]float32, c.nregs+1) }, false) {
		t.Fatal("a constant pool larger than the register file loaded")
	}
	writes := 0
	for pc, in := range orig.code {
		switch in.op {
		case opNop, opStats, opJmp, opJz, opJnz, opCall, opRet, opDiscard, opLoopReset, opLoopGuard,
			opStoreInd, opStoreIndC, opDiscardHalt, opBuiltin:
			continue
		}
		writes++
		if !try(fmt.Sprintf("pc %d op %d writes the pool", pc, in.op), func(c *Compiled) { c.code[pc].dst = 0 }, false) {
			t.Fatalf("pc %d (op %d): a static write into the constant pool loaded", pc, in.op)
		}
	}
	for i := range orig.builtins {
		if !try(fmt.Sprintf("builtin %d writes the pool", i), func(c *Compiled) { c.builtins[i].dst = 0 }, false) {
			t.Fatalf("builtin descriptor %d: a write into the constant pool loaded", i)
		}
	}
	if writes == 0 || len(orig.builtins) == 0 {
		t.Fatal("probe program has no writing instruction or builtin")
	}

	// The original report: one destination register far outside a small
	// file.
	for pc, in := range orig.code {
		if in.op == opAdd || in.op == opMov {
			if !try("dst=1022", func(c *Compiled) { c.code[pc].dst = 1022 + c.nregs }, false) {
				t.Fatalf("pc %d: out-of-range destination register loaded", pc)
			}
			break
		}
	}
}

// TestDynamicStoreIntoPool points the static base of every dynamic store
// (opStoreInd and opStoreIndC) at the constant pool, which no load-time
// check can see: the VM must report a RuntimeError and leave the pool
// intact.
func TestDynamicStoreIntoPool(t *testing.T) {
	_, blob := marshalProbe(t)
	orig, err := UnmarshalCompiled(blob)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []opcode{opStoreInd, opStoreIndC} {
		// The address a store writes through comes from the opDynAddr
		// that computes its register.
		at := -1
		for pc, in := range orig.code {
			if in.op != op {
				continue
			}
			for k := pc - 1; k >= 0; k-- {
				if d := orig.code[k]; d.op == opDynAddr && d.dst == in.a && d.b < 0 {
					at = k
					break
				}
			}
			break
		}
		if at < 0 {
			t.Fatalf("probe program has no op %d through a static-base address", op)
		}
		c, err := UnmarshalCompiled(blob)
		if err != nil {
			t.Fatal(err)
		}
		c.code[at].c = 0
		bad, err := c.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		loaded, err := UnmarshalCompiled(bad)
		if err != nil {
			t.Fatalf("op %d: a dynamic base is only checkable at run time, got load error %v", op, err)
		}
		vm := NewVM(loaded, diffSampler{}, DefaultSFU)
		vm.MaxLoopIter = 1 << 10
		if err := vm.InitGlobals(); err != nil {
			t.Fatal(err)
		}
		var re *RuntimeError
		if _, err := vm.Run(LaneWidth); !errors.As(err, &re) || !strings.Contains(err.Error(), "writable") {
			t.Fatalf("op %d: store into the pool ran with error %v, want a RuntimeError for the store", op, err)
		}
		for r, v := range loaded.pool {
			for l := 0; l < LaneWidth; l++ {
				if vm.regs[r][l] != v {
					t.Fatalf("op %d: pool register %d lane %d changed to %v", op, r, l, vm.regs[r][l])
				}
			}
		}
	}
}

// TestDynamicAddressRuntimeError corrupts the static base of a dynamic
// index, which no load-time check can bound: the VM must report a
// RuntimeError instead of panicking.
func TestDynamicAddressRuntimeError(t *testing.T) {
	_, blob := marshalProbe(t)
	c, err := UnmarshalCompiled(blob)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := range c.code {
		if c.code[i].op == opDynAddr && c.code[i].b < 0 {
			c.code[i].c = c.nregs + 100
			found = true
		}
	}
	if !found {
		t.Fatal("probe program has no static-base dynamic index")
	}
	bad, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalCompiled(bad)
	if err != nil {
		t.Fatalf("a dynamic base is only checkable at run time, got load error %v", err)
	}
	var re *RuntimeError
	if err := runGroup(t, loaded, "dynamic base"); !errors.As(err, &re) {
		t.Fatalf("Run error %v, want a RuntimeError", err)
	}
}
