package glsl

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestPreprocessVersion(t *testing.T) {
	res, errs := Preprocess("#version 100\nvoid main(){}\n")
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if res.Version != 100 {
		t.Errorf("version = %d, want 100", res.Version)
	}
}

func TestPreprocessUnsupportedVersion(t *testing.T) {
	_, errs := Preprocess("#version 300 es\n")
	if errs.Err() == nil {
		t.Fatal("expected an error for #version 300")
	}
}

func TestPreprocessObjectMacro(t *testing.T) {
	res, errs := Preprocess("#define N 4\nfloat a[N];\n")
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "float a[4];") {
		t.Errorf("macro not expanded: %q", res.Source)
	}
}

func TestPreprocessFunctionMacro(t *testing.T) {
	res, errs := Preprocess("#define SQ(x) ((x)*(x))\nfloat a = SQ(3.0);\n")
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "((3.0)*(3.0))") {
		t.Errorf("function macro not expanded: %q", res.Source)
	}
}

func TestPreprocessNestedMacro(t *testing.T) {
	res, errs := Preprocess("#define A B\n#define B 7\nint x = A;\n")
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "int x = 7;") {
		t.Errorf("nested macro not expanded: %q", res.Source)
	}
}

func TestPreprocessRecursiveMacroTerminates(t *testing.T) {
	res, errs := Preprocess("#define A A\nint x = A;\n")
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "int x = A;") {
		t.Errorf("self-referential macro should stop expanding: %q", res.Source)
	}
}

func TestPreprocessConditionals(t *testing.T) {
	src := `#define FEATURE 1
#if FEATURE
float enabled;
#else
float disabled;
#endif
`
	res, errs := Preprocess(src)
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "enabled") {
		t.Errorf("#if branch missing: %q", res.Source)
	}
	if strings.Contains(res.Source, "disabled") {
		t.Errorf("#else branch leaked: %q", res.Source)
	}
}

func TestPreprocessIfdef(t *testing.T) {
	src := "#ifdef GL_ES\nprecision mediump float;\n#endif\n"
	res, errs := Preprocess(src)
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "precision mediump float;") {
		t.Errorf("GL_ES must be predefined: %q", res.Source)
	}
}

func TestPreprocessIfndefElse(t *testing.T) {
	src := "#ifndef NOPE\nint yes;\n#else\nint no;\n#endif\n"
	res, errs := Preprocess(src)
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "int yes;") || strings.Contains(res.Source, "int no;") {
		t.Errorf("wrong branch: %q", res.Source)
	}
}

func TestPreprocessElifChain(t *testing.T) {
	src := `#define V 2
#if V == 1
int one;
#elif V == 2
int two;
#elif V == 3
int three;
#else
int other;
#endif
`
	res, errs := Preprocess(src)
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "int two;") {
		t.Errorf("#elif branch not taken: %q", res.Source)
	}
	for _, bad := range []string{"int one;", "int three;", "int other;"} {
		if strings.Contains(res.Source, bad) {
			t.Errorf("branch %q leaked", bad)
		}
	}
}

func TestPreprocessNestedConditionals(t *testing.T) {
	src := `#define A 1
#if A
#if 0
int never;
#endif
int kept;
#endif
`
	res, errs := Preprocess(src)
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if strings.Contains(res.Source, "never") || !strings.Contains(res.Source, "kept") {
		t.Errorf("nested conditional wrong: %q", res.Source)
	}
}

func TestPreprocessDefinedOperator(t *testing.T) {
	src := "#define X 1\n#if defined(X) && !defined(Y)\nint good;\n#endif\n"
	res, errs := Preprocess(src)
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "int good;") {
		t.Errorf("defined() broken: %q", res.Source)
	}
}

func TestPreprocessUndef(t *testing.T) {
	src := "#define X 1\n#undef X\n#ifdef X\nint bad;\n#endif\n"
	res, errs := Preprocess(src)
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if strings.Contains(res.Source, "int bad;") {
		t.Errorf("#undef did not remove macro: %q", res.Source)
	}
}

func TestPreprocessErrorDirective(t *testing.T) {
	_, errs := Preprocess("#error custom failure\n")
	if errs.Err() == nil || !strings.Contains(errs.Error(), "custom failure") {
		t.Fatalf("expected #error to surface: %v", errs)
	}
}

func TestPreprocessErrorInDeadBranch(t *testing.T) {
	_, errs := Preprocess("#if 0\n#error should not fire\n#endif\n")
	if errs.Err() != nil {
		t.Fatalf("#error in dead branch must not fire: %v", errs)
	}
}

func TestPreprocessUnterminatedIf(t *testing.T) {
	_, errs := Preprocess("#if 1\nint x;\n")
	if errs.Err() == nil {
		t.Fatal("expected an error for unterminated #if")
	}
}

func TestPreprocessExtensionAndPragma(t *testing.T) {
	src := "#extension GL_OES_standard_derivatives : enable\n#pragma optimize(on)\n"
	res, errs := Preprocess(src)
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if res.Extensions["GL_OES_standard_derivatives"] != "enable" {
		t.Errorf("extension not recorded: %v", res.Extensions)
	}
	if len(res.Pragmas) != 1 {
		t.Errorf("pragma not recorded: %v", res.Pragmas)
	}
}

func TestPreprocessLineContinuation(t *testing.T) {
	res, errs := Preprocess("#define LONG 1 + \\\n2\nint x = LONG;\n")
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "1 + 2") {
		t.Errorf("line continuation broken: %q", res.Source)
	}
}

func TestPreprocessPreservesLineNumbers(t *testing.T) {
	src := "#define X 1\n\nfloat a;\n"
	res, errs := Preprocess(src)
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	lines := strings.Split(res.Source, "\n")
	if len(lines) < 3 || strings.TrimSpace(lines[2]) != "float a;" {
		t.Errorf("line structure not preserved: %q", res.Source)
	}
}

func TestPreprocessReservedMacroNames(t *testing.T) {
	_, errs := Preprocess("#define GL_FOO 1\n")
	if errs.Err() == nil {
		t.Fatal("GL_ macro names must be rejected")
	}
	_, errs = Preprocess("#define a__b 1\n")
	if errs.Err() == nil {
		t.Fatal("__ macro names must be rejected")
	}
}

func TestPreprocessVersionMacro(t *testing.T) {
	res, errs := Preprocess("#if __VERSION__ == 100\nint v100;\n#endif\n")
	if errs.Err() != nil {
		t.Fatalf("unexpected errors: %v", errs)
	}
	if !strings.Contains(res.Source, "int v100;") {
		t.Errorf("__VERSION__ not predefined: %q", res.Source)
	}
}

// doublingChain defines A0 as one token and each A<i> as two copies of
// A<i-1>, then uses A<depth>: 2^depth tokens from a few lines of source.
func doublingChain(depth int) string {
	var b strings.Builder
	b.WriteString("#define A0 x\n")
	for i := 1; i <= depth; i++ {
		fmt.Fprintf(&b, "#define A%d A%d A%d\n", i, i-1, i-1)
	}
	fmt.Fprintf(&b, "float y = A%d;\n", depth)
	return b.String()
}

// TestPreprocessExpansionBudget: macro expansion is bounded. A 30-deep
// doubling chain (2^30 tokens) used to run without end; it is now rejected
// within a second by a diagnostic naming the macro, as is a chain nested
// deeper than the nesting budget. Chains within the budgets expand in
// full.
func TestPreprocessExpansionBudget(t *testing.T) {
	start := time.Now()
	_, errs := Preprocess(doublingChain(30))
	if el := time.Since(start); el > time.Second {
		t.Errorf("rejecting a 30-deep doubling chain took %v", el)
	}
	if errs.Err() == nil || !strings.Contains(errs.Err().Error(), `macro "A30"`) ||
		!strings.Contains(errs.Err().Error(), "tokens") {
		t.Fatalf("30-deep doubling chain: got %v, want a token-budget error naming A30", errs.Err())
	}

	res, errs := Preprocess(doublingChain(16))
	if errs.Err() != nil {
		t.Fatalf("16-deep doubling chain: %v", errs)
	}
	if n := strings.Count(res.Source, "x"); n != 1<<16 {
		t.Fatalf("16-deep doubling chain expanded to %d tokens, want %d", n, 1<<16)
	}

	var deep strings.Builder
	deep.WriteString("#define B0 x\n")
	for i := 1; i <= maxExpandDepth+5; i++ {
		fmt.Fprintf(&deep, "#define B%d B%d\n", i, i-1)
	}
	fmt.Fprintf(&deep, "float y = B%d;\n", maxExpandDepth+5)
	if _, errs := Preprocess(deep.String()); errs.Err() == nil ||
		!strings.Contains(errs.Err().Error(), fmt.Sprintf(`macro "B%d"`, maxExpandDepth+5)) {
		t.Fatalf("over-deep chain: got %v, want a nesting error naming the macro", errs.Err())
	}
}

// TestPreprocessCorpusUnchanged: the budgets leave real shaders alone —
// every corpus file, none of which has a directive, preprocesses without
// diagnostics to its own text.
func TestPreprocessCorpusUnchanged(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		src, err := os.ReadFile(filepath.Join("testdata", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		res, errs := Preprocess(string(src))
		if errs.Err() != nil {
			t.Fatalf("%s: %v", e.Name(), errs)
		}
		if strings.TrimRight(res.Source, "\n") != strings.TrimRight(string(src), "\n") {
			t.Errorf("%s: preprocessing changed the source", e.Name())
		}
	}
}
