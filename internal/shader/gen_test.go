package shader

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"glescompute/internal/glsl"
)

// TestVMDifferentialGenerated runs randomly generated, well-typed fragment
// shaders through both engines. The generator stresses what the bytecode
// optimizer rewrites (DESIGN.md §6l): assignments, compound assignments,
// increments and swizzle stores whose right side reads the destination
// (a vector rebuilt from its own components among them),
// literal-heavy constructors, ternaries, componentwise builtins with
// broadcast arguments, calls inlined with and without parameter aliasing
// and with writes to a global, inout and early-return callees, and
// dynamic indexing. Results compare as in FuzzVMDifferential (any NaN
// matches any NaN).
func TestVMDifferentialGenerated(t *testing.T) {
	const programs = 400
	for seed := int64(0); seed < programs; seed++ {
		src := generateShader(seed)
		prog, errs := glsl.CompileSource(src, glsl.StageFragment, glsl.CheckOptions{})
		if errs.Err() != nil {
			t.Fatalf("seed %d: generated shader rejected: %v\n%s", seed, errs.Err(), src)
		}
		comp, err := Compile(prog)
		if err != nil {
			t.Fatalf("seed %d: bytecode compile failed: %v", seed, err)
		}
		if !t.Run(strconv.FormatInt(seed, 10), func(t *testing.T) {
			runCompiled(t, prog, comp, LaneWidth, 1<<10, sameValue)
		}) {
			t.Fatalf("seed %d diverges:\n%s", seed, src)
		}
	}
}

// shaderGen builds one random program; vars lists the variables of each
// type in scope.
type shaderGen struct {
	r     *rand.Rand
	vars  map[string][]string
	depth int
	next  int
}

var genTypes = []string{"float", "vec2", "vec3", "vec4"}

func (g *shaderGen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

// genWidth is the component count of float or vecN; genType its inverse.
func genWidth(t string) int {
	if t == "float" {
		return 1
	}
	return int(t[3] - '0')
}

func genType(n int) string {
	if n == 1 {
		return "float"
	}
	return "vec" + strconv.Itoa(n)
}

func (g *shaderGen) lit() string {
	v := float64(g.r.Intn(17)) / 4
	if g.r.Intn(4) == 0 {
		return fmt.Sprintf("(-%.2f)", v)
	}
	return fmt.Sprintf("%.2f", v)
}

func (g *shaderGen) variable(t string) (string, bool) {
	if vs := g.vars[t]; len(vs) > 0 {
		return g.pick(vs), true
	}
	return "", false
}

// expr returns an expression of type t.
func (g *shaderGen) expr(t string) string {
	g.depth++
	defer func() { g.depth-- }()
	w := genWidth(t)
	leaf := func() string {
		if v, ok := g.variable(t); ok && g.r.Intn(2) == 0 {
			return v
		}
		if w == 1 {
			return g.lit()
		}
		return t + "(" + g.lit() + ")"
	}
	if g.depth > 4 {
		return leaf()
	}
	switch g.r.Intn(15) {
	case 0, 1:
		return leaf()
	case 2: // a swizzle of a wider variable, contiguous or not
		src := g.pick([]string{"vec2", "vec3", "vec4"})
		v, ok := g.variable(src)
		if !ok || w > genWidth(src) {
			return leaf()
		}
		comps := "xyzw"[:genWidth(src)]
		sw := ""
		if g.r.Intn(2) == 0 {
			off := g.r.Intn(len(comps) - w + 1)
			sw = comps[off : off+w]
		} else {
			for i := 0; i < w; i++ {
				sw += string(comps[g.r.Intn(len(comps))])
			}
		}
		return v + "." + sw
	case 3, 4:
		op := g.pick([]string{"+", "-", "*", "/"})
		if w > 1 && g.r.Intn(3) == 0 {
			return "(" + g.expr("float") + " " + op + " " + g.expr(t) + ")"
		}
		return "(" + g.expr(t) + " " + op + " " + g.expr(t) + ")"
	case 5:
		return "-(" + g.expr(t) + ")"
	case 6:
		return "(" + g.expr("float") + " > " + g.expr("float") + " ? " + g.expr(t) + " : " + g.expr(t) + ")"
	case 7:
		return g.pick([]string{"floor", "fract", "abs", "sin", "exp2", "sqrt", "normalize"}) + "(" + g.expr(t) + ")"
	case 8:
		f := g.pick([]string{"min", "max", "mod", "step"})
		if w > 1 && g.r.Intn(2) == 0 { // a broadcast scalar argument
			if f == "step" {
				return f + "(" + g.expr("float") + ", " + g.expr(t) + ")"
			}
			return f + "(" + g.expr(t) + ", " + g.expr("float") + ")"
		}
		return f + "(" + g.expr(t) + ", " + g.expr(t) + ")"
	case 9:
		return "clamp(" + g.expr(t) + ", " + g.expr(t) + ", " + g.expr(t) + ")"
	case 10:
		return "mix(" + g.expr(t) + ", " + g.expr(t) + ", " + g.expr("float") + ")"
	case 11:
		if w == 1 {
			return "dot(" + g.expr("vec3") + ", " + g.expr("vec3") + ")"
		}
		var parts []string
		for k := 0; k < w; {
			n := 1 + g.r.Intn(w-k)
			parts = append(parts, g.expr(genType(n)))
			k += n
		}
		return t + "(" + strings.Join(parts, ", ") + ")"
	case 12: // inlined calls: aliasing (f), a global write (h), early return (e)
		fn := g.pick([]string{"f", "h", "e"})
		if fn == "f" {
			return "f" + strconv.Itoa(w) + "(" + g.expr(t) + ", " + g.expr("float") + ")"
		}
		return fn + strconv.Itoa(w) + "(" + g.expr(t) + ")"
	case 13: // dynamic indexing
		if w == 1 {
			return "arr[int(mod(abs(v_p.x + " + g.expr("float") + "), 3.0))]"
		}
		if v, ok := g.variable(t); ok {
			return t + "(" + v + "[int(mod(abs(v_p.y + " + g.expr("float") + "), " + strconv.Itoa(w) + ".0))])"
		}
		return leaf()
	default: // an assignment used as a value
		if v, ok := g.variable(t); ok {
			return "(" + v + " " + g.pick([]string{"+=", "-=", "*=", "="}) + " " + g.expr(t) + ")"
		}
		return leaf()
	}
}

// block emits n statements, forgetting the variables they declare.
func (g *shaderGen) block(b *strings.Builder, ind string, n int) {
	saved := map[string][]string{}
	for k, v := range g.vars {
		saved[k] = append([]string(nil), v...)
	}
	g.stmts(b, ind, n)
	g.vars = saved
}

func (g *shaderGen) stmts(b *strings.Builder, ind string, n int) {
	for i := 0; i < n; i++ {
		t := g.pick(genTypes)
		switch g.r.Intn(10) {
		case 0, 1:
			g.next++
			name := fmt.Sprintf("l%d", g.next)
			fmt.Fprintf(b, "%s%s %s = %s;\n", ind, t, name, g.expr(t))
			g.vars[t] = append(g.vars[t], name)
		case 2, 3:
			if v, ok := g.variable(t); ok {
				fmt.Fprintf(b, "%s%s %s %s;\n", ind, v, g.pick([]string{"=", "+=", "*=", "-="}), g.expr(t))
			}
		case 4: // a swizzle store, in order or with its first two swapped
			if t == "float" {
				t = "vec4"
			}
			if v, ok := g.variable(t); ok {
				k := 1 + g.r.Intn(genWidth(t))
				off := g.r.Intn(genWidth(t) - k + 1)
				sw := "xyzw"[off : off+k]
				if k >= 2 && g.r.Intn(2) == 0 {
					sw = sw[1:2] + sw[:1] + sw[2:]
				}
				fmt.Fprintf(b, "%s%s.%s %s %s;\n", ind, v, sw, g.pick([]string{"=", "+=", "*="}), g.expr(genType(k)))
			}
		case 5:
			fmt.Fprintf(b, "%sif (%s > %s) {\n", ind, g.expr("float"), g.expr("float"))
			g.block(b, ind+"\t", 1+g.r.Intn(2))
			fmt.Fprintf(b, "%s} else {\n", ind)
			g.block(b, ind+"\t", 1+g.r.Intn(2))
			fmt.Fprintf(b, "%s}\n", ind)
		case 6:
			if g.r.Intn(2) == 0 {
				fmt.Fprintf(b, "%sarr[int(mod(abs(v_p.z + %s), 3.0))] %s %s;\n", ind, g.expr("float"), g.pick([]string{"=", "+="}), g.expr("float"))
			} else if v, ok := g.variable("float"); ok {
				fmt.Fprintf(b, "%s%s%s;\n", ind, v, g.pick([]string{"++", "--"}))
			}
		case 7:
			if v, ok := g.variable(t); ok {
				fmt.Fprintf(b, "%so%d(%s, %s);\n", ind, genWidth(t), v, g.expr("float"))
			}
		case 8: // a vector rebuilt from its own components
			v, ok := g.variable(t)
			if !ok || t == "float" {
				break
			}
			w := genWidth(t)
			comp := func() string { return v + "." + string("xyzw"[g.r.Intn(w)]) }
			var rhs string
			switch g.r.Intn(3) {
			case 0:
				rhs = comp() + " * " + v
			case 1:
				parts := make([]string, w)
				for k := range parts {
					parts[k] = comp()
				}
				rhs = t + "(" + strings.Join(parts, ", ") + ")"
			default:
				rhs = g.pick([]string{"min", "max", "mod"}) + "(" + v + ", " + comp() + ")"
			}
			fmt.Fprintf(b, "%s%s %s %s;\n", ind, v, g.pick([]string{"=", "+=", "*="}), rhs)
		default:
			fmt.Fprintf(b, "%sfor (int i%d = 0; i%d < 3; i%d++) {\n", ind, i, i, i)
			g.block(b, ind+"\t", 1+g.r.Intn(2))
			fmt.Fprintf(b, "%s}\n", ind)
		}
	}
}

// generateShader returns the program of one seed: helper functions per
// width, then a main of random statements whose every variable reaches
// gl_FragColor.
func generateShader(seed int64) string {
	g := &shaderGen{r: rand.New(rand.NewSource(seed)), vars: map[string][]string{}}
	var b strings.Builder
	b.WriteString("precision highp float;\nvarying vec4 v_p;\nuniform vec4 u_v;\nfloat gg;\n")
	for w := 1; w <= 4; w++ {
		t, all := genType(w), ""
		if w > 1 {
			all = "." + "xyzw"[:w]
		}
		fmt.Fprintf(&b, "%s f%d(%s a, float s) { %s q = a * s + %s(gg); return q - a; }\n", t, w, t, t, t)
		fmt.Fprintf(&b, "%s h%d(%s a) { gg += 0.5; return a%s * gg; }\n", t, w, t, all)
		fmt.Fprintf(&b, "%s e%d(%s a) { if (gg > 1.0) { return a * 2.0; } gg -= 0.25; return -a; }\n", t, w, t)
		fmt.Fprintf(&b, "void o%d(inout %s a, float s) { a = a * s + %s(1.0); }\n", w, t, t)
	}
	b.WriteString("void main() {\n\tgg = v_p.w;\n\tvec4 c0 = v_p;\n\tvec4 c1 = u_v;\n\tfloat c2 = v_p.x;\n")
	b.WriteString("\tfloat arr[3];\n\tarr[0] = c2; arr[1] = v_p.y; arr[2] = 0.5;\n")
	g.vars["vec4"] = []string{"c0", "c1"}
	g.vars["float"] = []string{"gg", "c2"}
	g.stmts(&b, "\t", 8+g.r.Intn(8))
	b.WriteString("\tgl_FragColor = vec4(gg, arr[0], arr[1], arr[2])")
	for _, t := range genTypes {
		for _, v := range g.vars[t] {
			switch genWidth(t) {
			case 1:
				b.WriteString(" + vec4(" + v + ")")
			case 2:
				b.WriteString(" + vec4(" + v + ", 0.0, 1.0)")
			case 3:
				b.WriteString(" + vec4(" + v + ", 1.0)")
			default:
				b.WriteString(" + " + v)
			}
		}
	}
	b.WriteString(";\n}\n")
	return b.String()
}
