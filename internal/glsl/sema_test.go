package glsl

import (
	"strings"
	"testing"
)

// compileOK compiles source for a stage, requiring success.
func compileOK(t *testing.T, src string, stage ShaderStage) *Program {
	t.Helper()
	prog, errs := CompileSource(src, stage, CheckOptions{})
	if errs.Err() != nil {
		t.Fatalf("unexpected errors:\n%v", errs)
	}
	return prog
}

// compileFail compiles and requires an error containing substr.
func compileFail(t *testing.T, src string, stage ShaderStage, substr string) {
	t.Helper()
	_, errs := CompileSource(src, stage, CheckOptions{})
	if errs.Err() == nil {
		t.Fatalf("expected error containing %q, got success", substr)
	}
	if !strings.Contains(errs.Error(), substr) {
		t.Fatalf("expected error containing %q, got:\n%v", substr, errs)
	}
}

func TestCheckMinimalShaders(t *testing.T) {
	compileOK(t, "void main(){ gl_Position = vec4(0.0); }", StageVertex)
	compileOK(t, "precision mediump float;\nvoid main(){ gl_FragColor = vec4(0.0); }", StageFragment)
}

func TestCheckMissingMain(t *testing.T) {
	compileFail(t, "float f(){ return 1.0; }", StageFragment, "main")
}

func TestCheckNoImplicitConversions(t *testing.T) {
	compileFail(t, "void main(){ float f = 1; }", StageFragment, "implicit")
	compileFail(t, "void main(){ int i = 1.0; }", StageFragment, "implicit")
	compileFail(t, "void main(){ float f = 1.0 + 1; }", StageFragment, "implicit")
	compileOK(t, "void main(){ float f = float(1); int i = int(1.0); }", StageFragment)
}

func TestCheckUndeclaredIdentifier(t *testing.T) {
	compileFail(t, "void main(){ float f = nope; }", StageFragment, "undeclared")
}

func TestCheckRedeclarationSameScope(t *testing.T) {
	compileFail(t, "void main(){ float a; float a; }", StageFragment, "redeclaration")
	// Shadowing in an inner scope is allowed.
	compileOK(t, "void main(){ float a = 1.0; { float a = 2.0; a += 1.0; } a += 1.0; }", StageFragment)
}

func TestCheckStageBuiltins(t *testing.T) {
	// gl_FragColor is fragment-only.
	compileFail(t, "void main(){ gl_FragColor = vec4(0.0); }", StageVertex, "undeclared")
	// gl_Position is vertex-only.
	compileFail(t, "void main(){ gl_Position = vec4(0.0); }", StageFragment, "undeclared")
	// gl_FragCoord is readable in fragment.
	compileOK(t, "precision mediump float;\nvoid main(){ gl_FragColor = vec4(gl_FragCoord.xy, 0.0, 1.0); }", StageFragment)
	// gl_FragCoord is not writable.
	compileFail(t, "void main(){ gl_FragCoord = vec4(0.0); }", StageFragment, "read-only")
}

func TestCheckAttributeRules(t *testing.T) {
	compileOK(t, "attribute vec4 a_pos;\nvoid main(){ gl_Position = a_pos; }", StageVertex)
	compileFail(t, "attribute vec4 a_pos;\nvoid main(){ gl_FragColor = a_pos; }", StageFragment, "vertex")
	compileFail(t, "attribute int a_i;\nvoid main(){ gl_Position = vec4(0.0); }", StageVertex, "not allowed")
	compileFail(t, "attribute vec4 a = vec4(0.0);\nvoid main(){ gl_Position = a; }", StageVertex, "initializer")
	compileFail(t, "attribute vec4 a_pos;\nvoid main(){ a_pos = vec4(0.0); }", StageVertex, "read-only")
}

func TestCheckUniformRules(t *testing.T) {
	compileOK(t, "uniform vec4 u;\nvoid main(){ gl_Position = u; }", StageVertex)
	compileFail(t, "uniform vec4 u;\nvoid main(){ u = vec4(0.0); gl_Position = u; }", StageVertex, "read-only")
	compileFail(t, "uniform float u = 1.0;\nvoid main(){ gl_Position = vec4(u); }", StageVertex, "initializer")
}

func TestCheckVaryingRules(t *testing.T) {
	compileOK(t, "varying vec2 v;\nvoid main(){ v = vec2(0.0); gl_Position = vec4(0.0); }", StageVertex)
	// Read-only in fragment shaders.
	compileFail(t, "precision mediump float;\nvarying vec2 v;\nvoid main(){ v = vec2(0.0); }", StageFragment, "read-only")
	compileOK(t, "precision mediump float;\nvarying vec2 v;\nvoid main(){ gl_FragColor = vec4(v, 0.0, 1.0); }", StageFragment)
	// int varyings are not allowed.
	compileFail(t, "varying ivec2 v;\nvoid main(){ gl_Position = vec4(0.0); }", StageVertex, "not allowed")
}

func TestCheckConstRules(t *testing.T) {
	compileOK(t, "const float PI = 3.14159;\nvoid main(){ gl_Position = vec4(PI); }", StageVertex)
	compileFail(t, "const float PI;\nvoid main(){}", StageVertex, "initialized")
	compileFail(t, "uniform float u;\nconst float c = u;\nvoid main(){}", StageVertex, "constant")
	compileFail(t, "const float PI = 3.0;\nvoid main(){ PI = 4.0; }", StageVertex, "const")
}

func TestCheckSamplerRules(t *testing.T) {
	compileOK(t, "precision mediump float;\nuniform sampler2D t;\nvoid main(){ gl_FragColor = texture2D(t, vec2(0.5)); }", StageFragment)
	compileFail(t, "sampler2D t;\nvoid main(){}", StageFragment, "uniform")
	compileFail(t, "void main(){ sampler2D t; }", StageFragment, "uniform")
	compileFail(t, "varying sampler2D t;\nvoid main(){}", StageFragment, "not allowed")
}

func TestCheckVectorOps(t *testing.T) {
	compileOK(t, `
void main(){
	vec3 a = vec3(1.0);
	vec3 b = vec3(2.0);
	vec3 c = a + b * 2.0;
	float d = dot(a, b);
	vec3 e = cross(a, b);
	gl_Position = vec4(c + e, d);
}
`, StageVertex)
}

func TestCheckMatrixOps(t *testing.T) {
	compileOK(t, `
void main(){
	mat4 m = mat4(1.0);
	vec4 v = vec4(1.0);
	vec4 a = m * v;
	vec4 b = v * m;
	mat4 c = m * m;
	gl_Position = a + b + c[0];
}
`, StageVertex)
	compileFail(t, "void main(){ mat3 m = mat3(1.0); vec4 v = vec4(1.0); vec4 r = m * v; }", StageVertex, "invalid operands")
}

func TestCheckRelationalOps(t *testing.T) {
	compileOK(t, "void main(){ bool b = 1.0 < 2.0; bool c = 1 < 2; gl_Position = vec4(0.0); }", StageVertex)
	compileFail(t, "void main(){ bool b = vec2(0.0) < vec2(1.0); }", StageVertex, "relational")
	compileFail(t, "void main(){ bool b = 1.0 < 2; }", StageVertex, "relational")
}

func TestCheckLogicalOps(t *testing.T) {
	compileOK(t, "void main(){ bool b = true && false || true ^^ false; gl_Position = vec4(0.0); }", StageVertex)
	compileFail(t, "void main(){ bool b = 1.0 && true; }", StageVertex, "bool")
}

func TestCheckConditionTypes(t *testing.T) {
	compileFail(t, "void main(){ if (1.0) {} }", StageVertex, "bool")
	compileFail(t, "void main(){ while (1) {} }", StageVertex, "bool")
	compileFail(t, "void main(){ float x = 1.0 ? 2.0 : 3.0; }", StageVertex, "bool")
	compileFail(t, "void main(){ float x = true ? 2.0 : 3; }", StageVertex, "mismatched")
}

func TestCheckSwizzles(t *testing.T) {
	compileOK(t, `
void main(){
	vec4 v = vec4(1.0, 2.0, 3.0, 4.0);
	vec2 a = v.xy;
	vec3 b = v.rgb;
	vec2 c = v.st;
	float d = v.w;
	vec4 e = v.xxxx;
	v.yz = vec2(9.0);
	gl_Position = vec4(a, b.x + c.x + d + e.x, 1.0);
}
`, StageVertex)
	compileFail(t, "void main(){ vec4 v; vec2 a = v.xr; }", StageVertex, "swizzle")
	compileFail(t, "void main(){ vec2 v; float a = v.z; }", StageVertex, "swizzle")
	compileFail(t, "void main(){ vec4 v; v.xx = vec2(1.0); }", StageVertex, "repeated")
	compileFail(t, "void main(){ float f; float g = f.x; }", StageVertex, "no fields")
}

func TestCheckIndexing(t *testing.T) {
	compileOK(t, `
uniform float w[4];
void main(){
	vec4 v = vec4(1.0);
	float a = v[0] + w[3];
	mat3 m = mat3(1.0);
	vec3 col = m[2];
	gl_Position = vec4(a + col.x);
}
`, StageVertex)
	compileFail(t, "uniform float w[4];\nvoid main(){ float a = w[4]; }", StageVertex, "out of range")
	compileFail(t, "void main(){ vec3 v; float a = v[3]; }", StageVertex, "out of range")
	compileFail(t, "void main(){ vec3 v; float a = v[1.0]; }", StageVertex, "must be int")
	compileFail(t, "void main(){ float f; float a = f[0]; }", StageVertex, "not indexable")
}

func TestCheckFragDataRules(t *testing.T) {
	compileOK(t, "precision mediump float;\nvoid main(){ gl_FragData[0] = vec4(1.0); }", StageFragment)
	compileFail(t, "precision mediump float;\nvoid main(){ gl_FragData[1] = vec4(1.0); }", StageFragment, "gl_MaxDrawBuffers")
	compileFail(t, "precision mediump float;\nuniform int i;\nvoid main(){ gl_FragData[i] = vec4(1.0); }", StageFragment, "constant")
}

func TestCheckFunctionCalls(t *testing.T) {
	compileOK(t, `
float square(float x) { return x * x; }
vec2 square(vec2 x) { return x * x; } // overload
void main(){ gl_Position = vec4(square(2.0), square(vec2(1.0)), 0.0); }
`, StageVertex)
	compileFail(t, "float f(float x){ return x; }\nvoid main(){ float y = f(1); }", StageVertex, "no overload")
	compileFail(t, "void main(){ float y = undefined_fn(1.0); }", StageVertex, "undeclared function")
}

func TestCheckOutParams(t *testing.T) {
	compileOK(t, `
void split(float v, out float a, out float b) { a = v; b = v * 2.0; }
void main(){ float x; float y; split(3.0, x, y); gl_Position = vec4(x, y, 0.0, 1.0); }
`, StageVertex)
	compileFail(t, `
void split(float v, out float a) { a = v; }
void main(){ const float c = 1.0; split(3.0, c); }
`, StageVertex, "assignable")
}

func TestCheckRecursionForbidden(t *testing.T) {
	compileFail(t, `
float f(float x);
float g(float x) { return f(x); }
float f(float x) { return g(x); }
void main(){ gl_Position = vec4(f(1.0)); }
`, StageVertex, "recursion")
	compileFail(t, "float f(float x) { return f(x); }\nvoid main(){ gl_Position = vec4(f(1.0)); }", StageVertex, "recursion")
}

// TestCheckCallToUndefinedFunction: a call to a function that is only
// declared cannot link; it used to pass the checker and crash the
// bytecode compiler.
func TestCheckCallToUndefinedFunction(t *testing.T) {
	compileFail(t, "float h(float x);\nvoid main(){ gl_Position = vec4(h(1.0)); }", StageVertex, "never defined")
	compileFail(t, "float h();\nfloat g = h();\nvoid main(){ gl_Position = vec4(g); }", StageVertex, "never defined")
	compileOK(t, "float h(float x);\nvoid main(){ gl_Position = vec4(h(1.0)); }\nfloat h(float x) { return x; }", StageVertex)
}

func TestCheckReturnTypes(t *testing.T) {
	compileFail(t, "float f() { return; }\nvoid main(){}", StageVertex, "missing return value")
	compileFail(t, "void f() { return 1.0; }\nvoid main(){}", StageVertex, "void function")
	compileFail(t, "float f() { return 1; }\nvoid main(){}", StageVertex, "cannot return")
}

func TestCheckDiscardOnlyInFragment(t *testing.T) {
	compileOK(t, "precision mediump float;\nvoid main(){ if (gl_FragCoord.x > 10.0) discard; gl_FragColor = vec4(0.0); }", StageFragment)
	compileFail(t, "void main(){ discard; }", StageVertex, "fragment")
}

func TestCheckBreakContinueOutsideLoop(t *testing.T) {
	compileFail(t, "void main(){ break; }", StageVertex, "outside loop")
	compileFail(t, "void main(){ continue; }", StageVertex, "outside loop")
	compileOK(t, "void main(){ for (int i = 0; i < 3; ++i) { if (i == 1) continue; if (i == 2) break; } }", StageVertex)
}

func TestCheckConstructors(t *testing.T) {
	compileOK(t, `
void main(){
	vec4 a = vec4(1.0);               // splat
	vec4 b = vec4(vec2(1.0), 2.0, 3.0); // mixed
	vec3 c = vec3(vec4(1.0));          // truncating
	mat2 m = mat2(1.0, 0.0, 0.0, 1.0);
	mat3 d = mat3(5.0);                // diagonal
	ivec2 iv = ivec2(1, 2);
	bvec2 bv = bvec2(true, false);
	gl_Position = a + b + vec4(c, m[0][0] + d[0][0] + float(iv.x) + (bv.x ? 1.0 : 0.0));
}
`, StageVertex)
	compileFail(t, "void main(){ vec4 v = vec4(1.0, 2.0); }", StageVertex, "too few components")
	compileFail(t, "void main(){ vec2 v = vec2(1.0, 2.0, 3.0); }", StageVertex, "too many")
	compileFail(t, "void main(){ mat2 m = mat2(1.0, 2.0, 3.0); }", StageVertex, "exactly")
	compileFail(t, "void main(){ mat2 m = mat2(mat3(1.0)); }", StageVertex, "not available in GLSL ES")
}

func TestCheckStructUsage(t *testing.T) {
	compileOK(t, `
struct Material { vec3 color; float shininess; };
uniform Material u_mat;
void main(){
	Material m = Material(vec3(1.0), 0.5);
	m.shininess = u_mat.shininess;
	gl_Position = vec4(m.color, m.shininess);
}
`, StageVertex)
	compileFail(t, `
struct S { float x; };
void main(){ S s = S(1.0); float y = s.missing; }
`, StageVertex, "no field")
	compileFail(t, `
struct S { float x; };
void main(){ S s = S(1.0, 2.0); }
`, StageVertex, "expects 1 arguments")
	compileFail(t, "struct S { sampler2D t; };\nvoid main(){}", StageVertex, "samplers are not allowed")
}

func TestCheckBuiltinOverloads(t *testing.T) {
	compileOK(t, `
precision mediump float;
void main(){
	float a = mod(7.0, 3.0);
	vec2 b = mod(vec2(7.0), 3.0);
	vec3 c = clamp(vec3(2.0), 0.0, 1.0);
	float d = mix(0.0, 1.0, 0.5);
	vec4 e = mix(vec4(0.0), vec4(1.0), vec4(0.5));
	bvec2 f = lessThan(vec2(1.0), vec2(2.0));
	bool g = any(f) && all(f);
	gl_FragColor = vec4(a + b.x + c.x + d + e.x, g ? 1.0 : 0.0, 0.0, 1.0);
}
`, StageFragment)
	compileFail(t, "void main(){ float a = sin(1); }", StageVertex, "no overload")
	compileFail(t, "void main(){ float a = dot(vec2(1.0), vec3(1.0)); }", StageVertex, "no overload")
}

func TestCheckTexture2DLodStageRestrictions(t *testing.T) {
	// texture2DLod is vertex-only.
	compileFail(t, "precision mediump float;\nuniform sampler2D s;\nvoid main(){ gl_FragColor = texture2DLod(s, vec2(0.0), 0.0); }", StageFragment, "no overload")
	// bias variant is fragment-only.
	compileFail(t, "uniform sampler2D s;\nvoid main(){ gl_Position = texture2D(s, vec2(0.0), 1.0); }", StageVertex, "no overload")
}

func TestCheckBuiltinConstants(t *testing.T) {
	prog := compileOK(t, "void main(){ int n = gl_MaxVertexAttribs; gl_Position = vec4(float(n)); }", StageVertex)
	if prog == nil {
		t.Fatal("no program")
	}
}

func TestCheckAppendixAWarnings(t *testing.T) {
	// Uniform-bounded loop: warning by default, error in strict mode.
	src := `
uniform float u_n;
void main(){
	float acc = 0.0;
	for (float i = 0.0; i < u_n; i += 1.0) { acc += 1.0; }
	gl_Position = vec4(acc);
}
`
	prog, errs := CompileSource(src, StageVertex, CheckOptions{})
	if errs.Err() != nil {
		t.Fatalf("relaxed mode should accept: %v", errs)
	}
	if len(prog.Warnings) == 0 {
		t.Error("expected an Appendix A warning")
	}
	_, errs = CompileSource(src, StageVertex, CheckOptions{StrictAppendixA: true})
	if errs.Err() == nil {
		t.Error("strict mode should reject uniform loop bounds")
	}
}

func TestCheckGlobalSlotAssignment(t *testing.T) {
	prog := compileOK(t, `
uniform float a;
uniform vec2 b;
varying vec3 v;
void main(){ v = vec3(a, b); gl_Position = vec4(0.0); }
`, StageVertex)
	if len(prog.Uniforms) != 2 {
		t.Fatalf("expected 2 uniforms, got %d", len(prog.Uniforms))
	}
	if len(prog.Varyings) != 1 {
		t.Fatalf("expected 1 varying, got %d", len(prog.Varyings))
	}
	seen := map[int]bool{}
	for _, g := range prog.Globals {
		if seen[g.Slot] {
			t.Errorf("duplicate slot %d", g.Slot)
		}
		seen[g.Slot] = true
	}
	if prog.LookupUniform("a") == nil || prog.LookupUniform("b") == nil {
		t.Error("uniform lookup failed")
	}
	if prog.LookupVarying("v") == nil {
		t.Error("varying lookup failed")
	}
}

func TestCheckVertexShaderPassThrough(t *testing.T) {
	// The paper's challenge #1: a pass-through vertex shader must compile.
	compileOK(t, `
attribute vec2 a_position;
attribute vec2 a_texcoord;
varying vec2 v_texcoord;
void main() {
	v_texcoord = a_texcoord;
	gl_Position = vec4(a_position, 0.0, 1.0);
}
`, StageVertex)
}

func TestCheckRedefinitionOfBuiltin(t *testing.T) {
	compileFail(t, "float sin(float x) { return x; }\nvoid main(){}", StageVertex, "builtin")
}

func TestCheckFunctionRedefinition(t *testing.T) {
	compileFail(t, `
float f(float x) { return x; }
float f(float x) { return x + 1.0; }
void main(){}
`, StageVertex, "redefinition")
}

func TestCheckMainSignature(t *testing.T) {
	compileFail(t, "int main() { return 1; }", StageVertex, "main")
	compileFail(t, "void main(float x) {}", StageVertex, "main")
}

func TestFoldConstBasics(t *testing.T) {
	prog := compileOK(t, `
const float A = 2.0 * 3.0 + 1.0;
const int B = 10 / 3;
const bool C = 1.0 < 2.0 && true;
const vec2 D = vec2(1.0, 2.0) * 3.0;
const float E = D.y;
const float F = clamp(5.0, 0.0, 1.0);
void main(){ gl_Position = vec4(A, float(B), E, F); }
`, StageVertex)
	find := func(name string) *VarDecl {
		for _, g := range prog.Globals {
			if g.Name == name {
				return g
			}
		}
		t.Fatalf("global %s not found", name)
		return nil
	}
	cases := []struct {
		name string
		want float32
	}{
		{"A", 7.0}, {"B", 3}, {"C", 1}, {"E", 6.0}, {"F", 1.0},
	}
	for _, c := range cases {
		v := find(c.name)
		if v.ConstVal == nil {
			t.Errorf("%s: not folded", c.name)
			continue
		}
		if v.ConstVal.F[0] != c.want {
			t.Errorf("%s: got %g, want %g", c.name, v.ConstVal.F[0], c.want)
		}
	}
	d := find("D")
	if d.ConstVal == nil || len(d.ConstVal.F) != 2 || d.ConstVal.F[0] != 3.0 || d.ConstVal.F[1] != 6.0 {
		t.Errorf("D folded wrong: %v", d.ConstVal)
	}
}

func TestFoldMatrixConstant(t *testing.T) {
	prog := compileOK(t, `
const mat2 M = mat2(1.0, 2.0, 3.0, 4.0);
const vec2 V = M * vec2(1.0, 1.0);
void main(){ gl_Position = vec4(V, 0.0, 1.0); }
`, StageVertex)
	for _, g := range prog.Globals {
		if g.Name == "V" {
			if g.ConstVal == nil {
				t.Fatal("V not folded")
			}
			// Column-major: M = [1 3; 2 4], M*(1,1) = (4, 6).
			if g.ConstVal.F[0] != 4.0 || g.ConstVal.F[1] != 6.0 {
				t.Errorf("V = %v, want (4,6)", g.ConstVal.F)
			}
		}
	}
}
