package shader

// Differential tests: every shader is executed by both the AST
// interpreter (reference) and the bytecode VM (default), and the results
// must agree bit-for-bit — outputs, every global, the discard flag AND
// the full Stats struct, since the vc4 timing model derives every modeled
// paper metric from those counters.

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glescompute/internal/glsl"
)

// diffSampler is a deterministic pure-function sampler shared by both
// executors.
type diffSampler struct{}

func (diffSampler) Sample2D(unit int, s, t float32) [4]float32 {
	h := math.Float32bits(s)*2654435761 ^ math.Float32bits(t)*40503 ^ uint32(unit)*97
	return [4]float32{
		float32(h&0xff) / 255,
		float32((h>>8)&0xff) / 255,
		float32((h>>16)&0xff) / 255,
		float32((h>>24)&0xff) / 255,
	}
}

func (diffSampler) SampleCube(unit int, x, y, z float32) [4]float32 {
	h := math.Float32bits(x)*31 ^ math.Float32bits(y)*17 ^ math.Float32bits(z)*7 ^ uint32(unit)
	return [4]float32{float32(h&0xff) / 255, float32((h>>8)&0xff) / 255, 0.25, 1}
}

// lcg is a tiny deterministic generator for input values.
type lcg uint32

func (g *lcg) next() uint32 {
	*g = *g*1664525 + 1013904223
	return uint32(*g)
}

func (g *lcg) float(kind glsl.BasicKind) float32 {
	n := g.next()
	switch kind {
	case glsl.KBool:
		return float32(n % 2)
	case glsl.KInt:
		return float32(int32(n%64) - 16)
	default:
		return (float32(n%4096) - 1024) / 128 // -8..24 range, exact quarters
	}
}

// fillValue builds a deterministic value of type t.
func fillValue(t *glsl.Type, g *lcg) Value {
	v := Zero(t)
	var fill func(v *Value)
	fill = func(v *Value) {
		if len(v.Agg) > 0 {
			for i := range v.Agg {
				fill(&v.Agg[i])
			}
			return
		}
		if v.T.IsSampler() {
			v.F[0] = float32(g.next() % 4)
			return
		}
		kind := v.T.ComponentType().Kind
		for i := 0; i < v.T.ComponentCount(); i++ {
			v.F[i] = g.float(kind)
		}
	}
	fill(&v)
	return v
}

// runDifferential executes prog through both engines with identical
// deterministic inputs: the interpreter one invocation at a time, the VM
// as groups of up to LaneWidth lanes (the last group ragged). Outputs,
// every global and the discard flag must agree per invocation, the first
// error must agree, and the Stats must agree after every group.
func runDifferential(t *testing.T, prog *glsl.Program, invocations int) {
	t.Helper()
	comp, err := Compile(prog)
	if err != nil {
		t.Fatalf("bytecode compile failed: %v", err)
	}
	ex := NewExec(prog, diffSampler{}, DefaultSFU)
	vm := NewVM(comp, diffSampler{}, DefaultSFU)
	ex.MaxLoopIter = 1 << 16
	vm.MaxLoopIter = 1 << 16

	// Uniforms, identical on both sides.
	gU, gV := lcg(12345), lcg(12345)
	for _, gl := range prog.Globals {
		if gl.Qual == glsl.QualUniform || gl.Qual == glsl.QualAttribute {
			ex.SetGlobal(gl, fillValue(gl.DeclType, &gU))
			vm.SetGlobal(gl, fillValue(gl.DeclType, &gV))
		}
	}
	if err := ex.InitGlobals(); err != nil {
		t.Fatalf("InitGlobals (interp): %v", err)
	}
	if err := vm.InitGlobals(); err != nil {
		t.Fatalf("InitGlobals (vm): %v", err)
	}
	if s1, s2 := *ex.StatsRef(), *vm.StatsRef(); s1 != s2 {
		t.Fatalf("InitGlobals stats diverge:\ninterp: %+v\nvm:     %+v", s1, s2)
	}

	// inputs applies invocation inv's stage inputs to the interpreter and
	// to one VM lane.
	flat := make([]float32, 64)
	inputs := func(inv, lane int) {
		seed := lcg(777 + 31*uint32(inv))
		if prog.Stage == glsl.StageFragment {
			fc := [4]float32{float32(inv%7) + 0.5, float32(inv/7) + 0.5, 0.5, 1}
			ex.SetFragCoord(fc)
			ex.SetFrontFacing(inv%2 == 0)
			ex.SetPointCoord(0.25, 0.75)
			ex.ResetFragOutputs()
			vm.SetFragCoord(lane, fc)
			vm.SetFrontFacing(lane, inv%2 == 0)
			vm.SetPointCoord(lane, 0.25, 0.75)
			for _, vr := range prog.Varyings {
				n := vr.DeclType.FlatSize()
				for i := 0; i < n; i++ {
					flat[i] = seed.float(glsl.KFloat)
				}
				ex.SetGlobalFlat(vr, flat[:n])
				vm.SetGlobalFlat(lane, vr, flat[:n])
			}
			return
		}
		for _, a := range prog.Attributes {
			v := fillValue(a.DeclType, &seed)
			ex.SetGlobal(a, v)
			n := flattenValueInto(flat, v)
			vm.SetGlobalFlat(lane, a, flat[:n])
		}
	}

	for base := 0; base < invocations; base += LaneWidth {
		n := min(LaneWidth, invocations-base)
		for l := 0; l < n; l++ {
			inputs(base+l, l)
		}
		discards, errV := vm.Run(n)
		var errI error
		for l := 0; l < n && errI == nil; l++ {
			inv := base + l
			inputs(inv, l)
			var d bool
			if d, errI = ex.Run(); errI != nil {
				break
			}
			if d != (discards&(1<<l) != 0) {
				t.Fatalf("invocation %d: discard divergence: interp=%v vm=%v", inv, d, !d)
			}
			if prog.Stage == glsl.StageFragment {
				if o1, o2 := ex.FragOutput(), vm.FragOutput(l); !bitsEqual4(o1, o2) {
					t.Fatalf("invocation %d: gl_FragColor diverges:\ninterp: %v\nvm:     %v", inv, o1, o2)
				}
			} else {
				if p1, p2 := ex.Position(), vm.Position(l); !bitsEqual4(p1, p2) {
					t.Fatalf("invocation %d: gl_Position diverges:\ninterp: %v\nvm:     %v", inv, p1, p2)
				}
				if math.Float32bits(ex.PointSize()) != math.Float32bits(vm.PointSize(l)) {
					t.Fatalf("invocation %d: gl_PointSize diverges: %v vs %v", inv, ex.PointSize(), vm.PointSize(l))
				}
			}
			// All globals (catches varying outputs and mutated globals).
			for _, gl := range prog.Globals {
				n := gl.DeclType.FlatSize()
				b1 := make([]float32, n)
				b2 := make([]float32, n)
				ex.ReadGlobalFlat(gl, b1)
				vm.ReadGlobalFlat(l, gl, b2)
				for i := range b1 {
					if math.Float32bits(b1[i]) != math.Float32bits(b2[i]) {
						t.Fatalf("invocation %d: global %q[%d] diverges: %v vs %v",
							inv, gl.Name, i, b1[i], b2[i])
					}
				}
			}
		}
		if (errI == nil) != (errV == nil) || errI != nil && errI.Error() != errV.Error() {
			t.Fatalf("group at %d: error divergence: interp=%v vm=%v", base, errI, errV)
		}
		if errI != nil {
			return
		}
		if s1, s2 := *ex.StatsRef(), *vm.StatsRef(); s1 != s2 {
			t.Fatalf("group at %d: stats diverge:\ninterp: %+v\nvm:     %+v", base, s1, s2)
		}
	}
}

func bitsEqual4(a, b [4]float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func compileSrc(t *testing.T, src string, stage glsl.ShaderStage) *glsl.Program {
	t.Helper()
	prog, errs := glsl.CompileSource(src, stage, glsl.CheckOptions{})
	if errs.Err() != nil {
		t.Fatalf("GLSL compile failed:\n%v", errs)
	}
	return prog
}

// TestVMDifferentialCorpus runs every corpus shader through both engines.
func TestVMDifferentialCorpus(t *testing.T) {
	dir := filepath.Join("..", "glsl", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		stage := glsl.StageFragment
		if strings.HasSuffix(name, ".vert") {
			stage = glsl.StageVertex
		}
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			runDifferential(t, compileSrc(t, string(src), stage), 24)
		})
	}
}

// TestVMDifferentialConstructs covers language constructs not exercised by
// the corpus: aliasing writes, out/inout parameters, dynamic indexing,
// struct values, discard, operator corner cases.
func TestVMDifferentialConstructs(t *testing.T) {
	frag := func(body string) string {
		return "precision highp float;\nuniform float u_a;\nuniform float u_b;\nuniform vec4 u_v;\n" + body
	}
	perLane := func(body string) string { return frag("varying vec4 v_p;\n" + body) }
	cases := map[string]string{
		"swizzle-alias": frag(`
void main() {
	vec4 v = u_v;
	v.xy = v.yx;
	v.zw = v.xy + v.wz;
	gl_FragColor = v;
}`),
		"compound-swizzle": frag(`
void main() {
	vec4 v = u_v;
	v.yz *= 2.0;
	v.x += v.w;
	v.w -= u_a;
	gl_FragColor = v;
}`),
		"inc-dec": frag(`
void main() {
	float a = u_a;
	float b = a++ + a-- + (++a) + (--a);
	vec3 v = vec3(u_v);
	v.x++;
	int i = int(u_b);
	i--;
	gl_FragColor = vec4(a, b, v.x, float(i));
}`),
		"ternary-logic": frag(`
void main() {
	bool p = u_a > 0.0;
	bool q = u_b > 1.0;
	float x = (p && q) ? u_a : (p || q) ? u_b : u_a + u_b;
	bool r = p != q;
	gl_FragColor = vec4(x, float(p ^^ q), float(r), float(!p));
}`),
		"short-circuit-effects": frag(`
float g;
bool bump() { g += 1.0; return g > 2.0; }
void main() {
	g = u_a;
	bool x = (u_a > 0.0) && bump();
	bool y = (u_b > 0.0) || bump();
	gl_FragColor = vec4(g, float(x), float(y), 1.0);
}`),
		"out-params": frag(`
void split(float x, out float ipart, inout float acc, out vec2 pair) {
	ipart = floor(x);
	acc += x - ipart;
	pair = vec2(ipart, acc);
}
void main() {
	float ip; float acc = u_b; vec2 pr;
	split(u_a * 3.7, ip, acc, pr);
	split(acc, ip, acc, pr);
	gl_FragColor = vec4(ip, acc, pr);
}`),
		"nested-call-args": frag(`
float dbl(float x) { return x * 2.0; }
void main() {
	float r = dbl(dbl(dbl(u_a) + dbl(u_b)));
	gl_FragColor = vec4(r, dbl(u_a + 1.0), 0.0, 1.0);
}`),
		"array-dynamic": frag(`
void main() {
	float arr[5];
	for (int i = 0; i < 5; i++) { arr[i] = float(i) * u_a; }
	int j = int(u_b);
	arr[j] += 10.0;
	float s = arr[0] + arr[1] + arr[2] + arr[3] + arr[4];
	gl_FragColor = vec4(s, arr[j], arr[-1 + int(u_a)], arr[j * 7]);
}`),
		"matrix-ops": frag(`
void main() {
	mat3 m = mat3(u_v.x, u_v.y, u_v.z, u_v.w, u_a, u_b, 1.0, 2.0, 3.0);
	mat3 mm = m * m;
	vec3 mv = m * vec3(1.0, u_a, u_b);
	vec3 vm = vec3(u_b, 1.0, u_a) * m;
	mat3 ms = m * 2.0;
	mat3 sm = 0.5 * m;
	mat3 cw = matrixCompMult(ms, sm);
	int c = int(u_a);
	vec3 col = m[c];
	m[1] = vec3(7.0, 8.0, 9.0);
	m[c][1] = u_b;
	gl_FragColor = vec4(mm[0][0] + mv.x + vm.y, ms[2][2] + sm[0][1], cw[1][1] + col.x, m[1][0] + m[c][1]);
}`),
		"struct-values": frag(`
struct P { vec2 pos; float w; };
struct Pair { P a; P b; };
P flip(P p) { P q; q.pos = p.pos.yx; q.w = -p.w; return q; }
void main() {
	P p = P(u_v.xy, u_a);
	Pair pr = Pair(p, flip(p));
	P copy = pr.b;
	copy.w += 1.0;
	bool same = copy == pr.b;
	pr.a = copy;
	gl_FragColor = vec4(pr.a.pos, pr.a.w + pr.b.w, float(same));
}`),
		"discard-helper": frag(`
void maybeDrop(float x) { if (x > 2.0) { discard; } }
void main() {
	maybeDrop(u_a);
	if (u_b > 3.0) { discard; }
	gl_FragColor = vec4(u_a, u_b, 0.0, 1.0);
}`),
		"discard-out-writeback": frag(`
void h(out float o, inout float p) { o = 1.0; p += 2.0; if (u_a < 100.0) { discard; } }
void main() {
	float x = 0.0;
	float y = 3.0;
	h(x, y);
	gl_FragColor = vec4(x, y, 0.0, 1.0);
}`),
		"discard-nested-unwind": frag(`
void h(out float o) { o = 1.0; if (u_a < 100.0) { discard; } }
void outer(out float q) { float w = 0.0; h(w); q = w + 5.0; }
void main() {
	float z = 9.0;
	outer(z);
	gl_FragColor = vec4(z);
}`),
		"loops-break-continue": frag(`
void main() {
	float s = 0.0;
	for (int i = 0; i < 10; i++) {
		if (i == 3) { continue; }
		if (float(i) > u_a + 5.0) { break; }
		s += float(i);
	}
	int k = 0;
	while (k < 8) { k += 2; if (k == 6) { break; } }
	int d = 0;
	do { d++; } while (d < int(u_b));
	gl_FragColor = vec4(s, float(k), float(d), 1.0);
}`),
		"int-arith": frag(`
void main() {
	int a = int(u_a * 10.0);
	int b = int(u_b);
	int q = a / b;
	int z = a / 0;
	ivec3 v = ivec3(a, b, q) * 2;
	ivec3 w = v / ivec3(2, 3, 4);
	gl_FragColor = vec4(float(q), float(z), float(v.y), float(w.z));
}`),
		"vector-ctors": frag(`
void main() {
	vec4 a = vec4(u_a);
	vec4 b = vec4(u_v.xy, u_b, 1.0);
	vec3 c = vec3(u_v);
	ivec2 d = ivec2(u_v.zw);
	bvec3 e = bvec3(u_a, 0.0, u_b);
	vec2 f = vec2(d);
	gl_FragColor = vec4(a.x + b.y, c.z + f.x, float(d.y), float(e.x) + float(e.z));
}`),
		"builtins-wide": frag(`
void main() {
	vec3 x = u_v.xyz;
	vec3 a = abs(x) + sign(x) + floor(x) + ceil(x) + fract(x);
	vec3 b = min(x, 0.5) + max(x, vec3(0.1)) + clamp(x, 0.0, 1.0);
	vec3 c = mix(x, vec3(1.0), 0.25) + step(0.5, x) + smoothstep(0.0, 1.0, x);
	float d = length(x) + distance(x, vec3(1.0)) + dot(x, x);
	vec3 e = cross(x, vec3(1.0, 0.0, 0.0)) + normalize(x + vec3(3.0));
	vec3 f = faceforward(x, vec3(1.0), vec3(0.0, 1.0, 0.0)) + reflect(x, normalize(vec3(1.0)));
	vec3 g = refract(normalize(x + vec3(3.0)), vec3(0.0, 1.0, 0.0), 0.9);
	float h = mod(u_a, 0.7) + pow(abs(u_a) + 1.0, 2.0) + exp(u_b * 0.1) + log(abs(u_b) + 2.0);
	float i = exp2(u_a * 0.5) + log2(abs(u_a) + 4.0) + sqrt(abs(u_b)) + inversesqrt(abs(u_b) + 1.0);
	float j = sin(u_a) + cos(u_b) + tan(u_a * 0.3) + atan(u_a, u_b + 10.0) + atan(u_b * 0.2);
	float k = asin(clamp(u_a * 0.1, -1.0, 1.0)) + acos(clamp(u_b * 0.1, -1.0, 1.0));
	float l = radians(u_a) + degrees(u_b);
	gl_FragColor = vec4(a.x + b.y + c.z, d + e.x + f.y, g.z + h + i, j + k + l);
}`),
		"relational-vec": frag(`
void main() {
	vec3 x = u_v.xyz;
	vec3 y = vec3(u_a);
	bvec3 lt = lessThan(x, y);
	bvec3 le = lessThanEqual(x, y);
	bvec3 gt = greaterThan(x, y);
	bvec3 ge = greaterThanEqual(x, y);
	bvec3 eq = equal(x, y);
	bvec3 ne = notEqual(x, y);
	gl_FragColor = vec4(float(any(lt)) + float(all(le)), float(not(gt).x), float(ge.y) + float(eq.z), float(ne.x));
}`),
		"comma-sequence": frag(`
void main() {
	float a = u_a;
	float b = (a += 1.0, a * 2.0);
	gl_FragColor = vec4(a, b, (1.0, 2.0, 3.0), 1.0);
}`),
		"global-mutation": frag(`
float counter = 5.0;
float plain = 2.5;
void main() {
	counter += u_a;
	gl_FragColor = vec4(counter, plain, 0.0, 1.0);
}`),
		"fragdata": frag(`
void main() {
	gl_FragData[0] = vec4(u_a, u_b, u_v.x, 1.0);
}`),
		"swizzle-dynamic-index": frag(`
void main() {
	vec4 v = u_v;
	int i = int(u_a);
	float x = v.zyx[i];
	float y = v[i];
	gl_FragColor = vec4(x, y, v.wzyx[2], 1.0);
}`),
		"builtin-constants": frag(`
void main() {
	gl_FragColor = vec4(float(gl_MaxDrawBuffers), float(gl_MaxTextureImageUnits), 0.0, 1.0);
}`),
		"const-globals": frag(`
const float CF = 2.5;
const vec3 CV = vec3(1.0, 2.0, 3.0);
const int CI = 7;
void main() {
	gl_FragColor = vec4(CF, CV.y, float(CI), CV.z);
}`),
		"deep-aggregates": frag(`
struct Node { vec2 uv; float w[2]; };
void main() {
	Node nodes[3];
	for (int i = 0; i < 3; i++) {
		nodes[i].uv = vec2(float(i), u_a);
		nodes[i].w[0] = u_b * float(i);
		nodes[i].w[1] = u_a - float(i);
	}
	int j = int(u_b);
	float s = nodes[j].w[1] + nodes[1].uv.y + nodes[j].uv.x;
	nodes[j].w[int(u_a)] = 42.0;
	gl_FragColor = vec4(s, nodes[j].w[0], nodes[j].w[1], 1.0);
}`),
		"texture-sampling": frag(`
uniform sampler2D u_t0;
uniform samplerCube u_c0;
void main() {
	vec4 a = texture2D(u_t0, u_v.xy);
	vec4 b = texture2D(u_t0, u_v.zw, 0.5);
	vec4 c = texture2DProj(u_t0, vec3(u_v.xy, 2.0));
	vec4 d = texture2DProj(u_t0, u_v + vec4(0.0, 0.0, 0.0, 2.0));
	vec4 e = textureCube(u_c0, u_v.xyz);
	gl_FragColor = a + b * 0.5 + c * 0.25 + d * 0.125 + e * 0.0625;
}`),
		// The codec decode→ALU→encode spine of the paper kernels.
		"codec-spine": `
precision highp float;
uniform sampler2D u_d;
varying vec2 v_uv;
void main() {
	vec4 t = texture2D(u_d, v_uv);
	vec4 b = floor(t * 255.0 + vec4(0.5));
	float v = b.r + b.g * 256.0 + b.b * 65536.0;
	v = v * 0.0001 + 0.5;
	float f = fract(v);
	float q = clamp(mod(v, 256.0), 0.0, 255.0);
	float s = step(128.0, q) * min(f, 0.75) + max(f, 0.25);
	gl_FragColor = vec4(fract(v * 0.001), f, q / 255.0, s * 0.5);
}`,
		"loop-break-calls": `
precision highp float;
varying vec2 v_uv;
uniform float u_k;
float spin(float x) {
	float acc = 0.0;
	for (int i = 0; i < 12; i++) {
		acc = acc + fract(x * 0.37 + acc * 0.61);
		if (acc > 4.0) { break; }
		x = x * 1.1 + 0.01;
	}
	return acc;
}
void main() {
	float a = spin(v_uv.x * 3.0);
	float b = 0.0;
	for (int j = 0; j < 4; j++) {
		b += spin(v_uv.y * float(j) + a * 0.25);
	}
	gl_FragColor = vec4(a, b * 0.1, fract(a + b), 1.0);
}`,
		// Group constructs: the varying differs per lane, so these
		// diverge inside one 16-fragment group.
		"group-divergent-if": perLane(`
void main() {
	float x = v_p.x;
	vec4 c = vec4(0.0);
	if (x > 4.0) {
		c.r = x * 2.0;
		if (v_p.y < 0.0) { c.g = 1.0; } else { c.g = fract(x); }
	} else {
		c.b = floor(x) + u_a;
	}
	float t = x > 0.0 ? (v_p.y > 2.0 ? v_p.z : -v_p.z) : (v_p.w < 1.0 ? 3.0 : floor(v_p.w));
	bool both = x > 1.0 && v_p.y < 5.0 || v_p.z > 10.0;
	gl_FragColor = c + vec4(t, float(both), 0.0, 1.0);
}`),
		"group-int32-decode": perLane(`
float dec(vec4 t) {
	vec4 b = floor(t * 255.0 + vec4(0.5));
	if (b.a < 128.0) {
		return b.r + b.g * 256.0 + b.b * 65536.0 + b.a * 16777216.0;
	}
	vec4 nb = vec4(255.0) - b;
	return -(nb.r + nb.g * 256.0 + nb.b * 65536.0 + nb.a * 16777216.0 + 1.0);
}
vec4 enc(float v) {
	float neg = v < 0.0 ? 1.0 : 0.0;
	float w = v < 0.0 ? -(v + 1.0) : v;
	float b0 = mod(w, 256.0);
	float r1 = floor((w - b0) / 256.0);
	float b1 = mod(r1, 256.0);
	float r2 = floor((r1 - b1) / 256.0);
	float b2 = mod(r2, 256.0);
	float b3 = floor((r2 - b2) / 256.0);
	vec4 bb = vec4(b0, b1, b2, b3);
	if (neg == 1.0) { bb = vec4(255.0) - bb; }
	return (bb + vec4(0.25)) / 255.0;
}
void main() {
	float v = dec(fract(abs(v_p) * 0.37));
	gl_FragColor = enc(floor(v / 4096.0) + u_a);
}`),
		"group-loop-divergence": perLane(`
float walk(float x) {
	float acc = 0.0;
	for (int i = 0; i < 16; i++) {
		if (float(i) > x) { break; }
		if (mod(float(i), 3.0) == 0.0) { continue; }
		acc += float(i);
		if (acc > 20.0) { return -acc; }
	}
	return acc;
}
float climb(float x) {
	float acc = 0.0;
	for (int i = 0; i < 16; i++) {
		if (float(i) > x) { acc -= 1.0; break; } else { acc += 0.5; }
	}
	return acc;
}
void main() {
	float k = climb(v_p.y);
	while (k < v_p.y) { k += 1.5; }
	int n = 0;
	do { n++; } while (float(n) < v_p.w);
	gl_FragColor = vec4(walk(v_p.x), k, walk(v_p.z), float(n));
}`),
		"group-discard": perLane(`
void drop(float x) { if (x > 6.0) { discard; } }
void h(out float o, inout float p) { o = 1.0; p += 2.0; if (v_p.w > 4.0) { discard; } }
void main() {
	if (v_p.x < 0.0) { discard; }
	float y = v_p.y;
	if (y > 2.0) { drop(v_p.z); }
	float a = 0.0;
	float b = y;
	if (v_p.z > 0.0) { h(a, b); }
	gl_FragColor = vec4(y, v_p.z, a, b);
}`),
		"group-dynamic-index": perLane(`
void main() {
	float arr[6];
	for (int i = 0; i < 6; i++) { arr[i] = float(i) * v_p.y; }
	int j = int(v_p.x);
	arr[j] += v_p.z;
	vec4 v = v_p;
	v[int(v_p.w)] = 7.0;
	gl_FragColor = vec4(arr[j], arr[int(v_p.z)], v[int(v_p.y)], v.x + v.w);
}`),
		"group-runaway-lane": perLane(`
void main() {
	float s = 0.0;
	for (int i = 0; i >= 0; i++) {
		if (gl_FragCoord.x != 5.5) { break; }
		s += 1.0;
	}
	gl_FragColor = vec4(s);
}`),
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			runDifferential(t, compileSrc(t, src, glsl.StageFragment), 16)
		})
	}
}

// TestVMDifferentialPaperKernels runs the exact fragment shaders the
// compute runtime generates for the paper's kernels (sum, sgemm,
// identity) through both engines.
func TestVMDifferentialPaperKernels(t *testing.T) {
	decoder := `
float gc_decode_i32(vec4 t) {
	vec4 b = floor(t * 255.0 + vec4(0.5));
	if (b.a < 128.0) {
		return b.r + b.g * 256.0 + b.b * 65536.0 + b.a * 16777216.0;
	}
	vec4 nb = vec4(255.0) - b;
	return -(nb.r + nb.g * 256.0 + nb.b * 65536.0 + nb.a * 16777216.0 + 1.0);
}
float gc_decode_f32(vec4 t) {
	vec4 b = floor(t * 255.0 + vec4(0.5));
	if (b.a == 0.0) { return 0.0; }
	float sgn = b.b < 128.0 ? 1.0 : -1.0;
	float m2 = b.b < 128.0 ? b.b : b.b - 128.0;
	float mant = (b.r + b.g * 256.0 + m2 * 65536.0) / 8388608.0;
	return sgn * (1.0 + mant) * exp2(b.a - 127.0);
}
vec4 gc_encode_out(float v) {
	float neg = v < 0.0 ? 1.0 : 0.0;
	float w = v < 0.0 ? -(v + 1.0) : v;
	float b0 = mod(w, 256.0);
	float r1 = floor((w - b0) / 256.0);
	float b1 = mod(r1, 256.0);
	float r2 = floor((r1 - b1) / 256.0);
	float b2 = mod(r2, 256.0);
	float b3 = floor((r2 - b2) / 256.0);
	vec4 bb = vec4(b0, b1, b2, b3);
	if (neg == 1.0) { bb = vec4(255.0) - bb; }
	return (bb + vec4(0.25)) / 255.0;
}
uniform sampler2D gc_a_tex;
uniform vec2 gc_a_dims;
float gc_a(float idx) {
	float row = floor((idx + 0.5) / gc_a_dims.x);
	float col = idx - row * gc_a_dims.x;
	vec2 st = vec2((col + 0.5) / gc_a_dims.x, (row + 0.5) / gc_a_dims.y);
	return gc_decode_i32(texture2D(gc_a_tex, st));
}
float gc_a_at(float col, float row) {
	vec2 st = vec2((col + 0.5) / gc_a_dims.x, (row + 0.5) / gc_a_dims.y);
	return gc_decode_i32(texture2D(gc_a_tex, st));
}
uniform sampler2D gc_b_tex;
uniform vec2 gc_b_dims;
float gc_b(float idx) {
	float row = floor((idx + 0.5) / gc_b_dims.x);
	float col = idx - row * gc_b_dims.x;
	vec2 st = vec2((col + 0.5) / gc_b_dims.x, (row + 0.5) / gc_b_dims.y);
	return gc_decode_f32(texture2D(gc_b_tex, st));
}
float gc_b_at(float col, float row) {
	vec2 st = vec2((col + 0.5) / gc_b_dims.x, (row + 0.5) / gc_b_dims.y);
	return gc_decode_f32(texture2D(gc_b_tex, st));
}
uniform vec2 gc_out_dims;
uniform float gc_out_n;
uniform float u_n;
varying vec2 v_uv;
`
	kernels := map[string]string{
		"sum": `
float gc_kernel(float idx) {
	return gc_a(idx) + gc_b(idx);
}
void main() {
	float gc_idx = floor(gl_FragCoord.y) * gc_out_dims.x + floor(gl_FragCoord.x);
	gl_FragColor = gc_encode_out(gc_kernel(gc_idx));
}`,
		"sgemm": `
float gc_kernel(float idx) {
	float row = floor((idx + 0.5) / u_n);
	float col = idx - row * u_n;
	float acc = 0.0;
	for (float k = 0.0; k < 2048.0; k += 1.0) {
		if (k >= u_n) { break; }
		acc += gc_a_at(k, row) * gc_b_at(col, k);
	}
	return acc;
}
void main() {
	float gc_idx = floor(gl_FragCoord.y) * gc_out_dims.x + floor(gl_FragCoord.x);
	gl_FragColor = gc_encode_out(gc_kernel(gc_idx));
}`,
		"identity": `
float gc_kernel(float idx) { return gc_a(idx); }
void main() {
	float gc_idx = floor(gl_FragCoord.y) * gc_out_dims.x + floor(gl_FragCoord.x);
	gl_FragColor = gc_encode_out(gc_kernel(gc_idx));
}`,
	}
	for name, src := range kernels {
		t.Run(name, func(t *testing.T) {
			runDifferential(t, compileSrc(t, "precision highp float;\n"+decoder+src, glsl.StageFragment), 24)
		})
	}
}

// TestVMLoopGuard verifies both engines abort runaway loops with an
// error, including a runaway loop in one lane of a group whose other lanes
// leave the loop: the VM must report the interpreter's error.
func TestVMLoopGuard(t *testing.T) {
	src := `precision highp float;
void main() {
	float s = 0.0;
	for (int i = 0; i >= 0; i++) {
		if (gl_FragCoord.x != 5.5) { break; }
		s += 1.0;
	}
	gl_FragColor = vec4(s);
}`
	prog := compileSrc(t, src, glsl.StageFragment)
	comp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	ex := NewExec(prog, nil, ExactSFU)
	ex.MaxLoopIter = 100
	if err := ex.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	ex.SetFragCoord([4]float32{5.5, 0.5, 0, 1})
	_, errI := ex.Run()
	if errI == nil {
		t.Fatal("interpreter did not catch runaway loop")
	}
	vm := NewVM(comp, nil, ExactSFU)
	vm.MaxLoopIter = 100
	if err := vm.InitGlobals(); err != nil {
		t.Fatal(err)
	}
	for l := 0; l < LaneWidth; l++ {
		vm.SetFragCoord(l, [4]float32{float32(l) + 0.5, 0.5, 0, 1})
	}
	if _, err := vm.Run(LaneWidth); err == nil || err.Error() != errI.Error() {
		t.Fatalf("VM group error %v, want %v", err, errI)
	}
	if _, err := vm.Run(5); err != nil {
		t.Fatalf("lanes 0-4 leave the loop, got %v", err)
	}
}

// TestVMZeroAllocRun verifies the lane engine allocates nothing per group
// and nothing per repeated draw (Reset, uniforms, InitGlobals, groups) —
// the whole point of a reusable register file.
func TestVMZeroAllocRun(t *testing.T) {
	src := `precision highp float;
uniform float u_a;
varying vec2 v_uv;
float g = 1.0;
void main() {
	float acc = 0.0;
	for (float k = 0.0; k < 16.0; k += 1.0) { acc += mod(k * u_a, 7.0); }
	if (v_uv.x > 0.5) { acc = -acc; } else { g += acc; }
	gl_FragColor = vec4(acc, exp2(u_a), log2(abs(u_a) + 2.0), g);
}`
	prog := compileSrc(t, src, glsl.StageFragment)
	comp, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	vm := NewVM(comp, nil, DefaultSFU)
	ua, uv := prog.LookupUniform("u_a"), prog.Varyings[0]
	val := FloatVal(1.75)
	draw := func() {
		vm.Reset()
		vm.SetGlobal(ua, val)
		if err := vm.InitGlobals(); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < LaneWidth; l++ {
			vm.SetGlobalFlat(l, uv, []float32{float32(l) / LaneWidth, 0})
		}
		for _, n := range []int{LaneWidth, 7} {
			if _, err := vm.Run(n); err != nil {
				t.Fatal(err)
			}
		}
	}
	draw()
	if allocs := testing.AllocsPerRun(100, func() {
		if _, err := vm.Run(LaneWidth); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("VM.Run allocates %v times per group, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, draw); allocs != 0 {
		t.Fatalf("a repeated draw allocates %v times, want 0", allocs)
	}
}
