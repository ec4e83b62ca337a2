package shader

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"glescompute/internal/glsl"
)

// FuzzVMDifferential feeds arbitrary GLSL source to both engines. The
// shared front end either rejects an input for both, or the program runs
// as one full group of LaneWidth invocations whose outputs, globals,
// discards, Stats and first error must equal the interpreter's (bit for
// bit, any NaN matching any NaN); neither engine may panic. Seeds are the
// GLSL corpus, the construct zoo, the generated int8 LeNet programs and
// shaders from TestVMDifferentialGenerated's generator.
//
//	go test -run '^$' -fuzz FuzzVMDifferential -fuzztime 10s ./internal/shader
func FuzzVMDifferential(f *testing.F) {
	dir := filepath.Join("..", "glsl", "testdata")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src), strings.HasSuffix(e.Name(), ".vert"))
	}
	for _, src := range constructZoo() {
		f.Add(src, false)
	}
	f.Add(int8Im2colSrc, false)
	f.Add(int8FusedSrc, false)
	for seed := int64(0); seed < 16; seed++ {
		f.Add(generateShader(seed), false)
	}

	f.Fuzz(func(t *testing.T, src string, vertex bool) {
		stage := glsl.StageFragment
		if vertex {
			stage = glsl.StageVertex
		}
		prog, errs := glsl.CompileSource(src, stage, glsl.CheckOptions{})
		if errs.Err() != nil {
			return // rejected by the front end both engines share
		}
		comp, err := Compile(prog)
		if err != nil {
			t.Fatalf("the interpreter runs a program the bytecode compiler rejects: %v", err)
		}
		// Harness bounds, not semantics: keep each input's memory and
		// loop work small (loops nested through calls multiply).
		if comp.NumRegisters() > 1<<14 || loopNest(prog.Entry, map[*glsl.FuncDecl]int{}) > 2 {
			return
		}
		runCompiled(t, prog, comp, LaneWidth, 64, sameValue)
	})
}

// sameValue is bit equality, except that every NaN equals every other:
// which operand's NaN an addition propagates (and so its sign) depends on
// how the Go compiler ordered the operands of that engine's instruction,
// and a random program easily adds NaNs of both signs.
func sameValue(a, b float32) bool { return sameBits(a, b) || a != a && b != b }

// loopNest is the deepest nesting of loops reachable from fd, counting
// the loops of the functions it calls.
func loopNest(fd *glsl.FuncDecl, memo map[*glsl.FuncDecl]int) int {
	if fd == nil || fd.Body == nil {
		return 0
	}
	if d, ok := memo[fd]; ok {
		return d
	}
	memo[fd] = 0
	// calls is the deepest nesting among the functions e calls.
	calls := func(e glsl.Expr) int {
		d := 0
		findExpr(e, func(e glsl.Expr) bool {
			if n, ok := e.(*glsl.CallExpr); ok && n.Kind == glsl.CallUser {
				d = max(d, loopNest(n.Func, memo))
			}
			return false
		})
		return d
	}
	var stmt func(s glsl.Stmt) int
	stmt = func(s glsl.Stmt) int {
		switch n := s.(type) {
		case *glsl.BlockStmt:
			d := 0
			for _, st := range n.Stmts {
				d = max(d, stmt(st))
			}
			return d
		case *glsl.ForStmt:
			return 1 + max(stmt(n.InitStmt), calls(n.Cond), calls(n.Post), stmt(n.Body))
		case *glsl.WhileStmt:
			return 1 + max(calls(n.Cond), stmt(n.Body))
		case *glsl.DoWhileStmt:
			return 1 + max(calls(n.Cond), stmt(n.Body))
		case *glsl.IfStmt:
			return max(calls(n.Cond), stmt(n.Then), stmt(n.Else))
		}
		d := 0 // a statement holding expressions only
		findStmt(s, func(glsl.Stmt) bool { return false }, func(e glsl.Expr) bool {
			if n, ok := e.(*glsl.CallExpr); ok && n.Kind == glsl.CallUser {
				d = max(d, loopNest(n.Func, memo))
			}
			return false
		})
		return d
	}
	memo[fd] = stmt(fd.Body)
	return memo[fd]
}
