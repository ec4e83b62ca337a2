package glsl

import (
	"fmt"
	"strconv"
	"strings"
)

// PreprocessResult carries the expanded source plus metadata collected from
// directives (#version, #extension, #pragma).
type PreprocessResult struct {
	Source     string
	Version    int // 0 when no #version directive was present
	Extensions map[string]string
	Pragmas    []string
}

// Preprocess implements the subset of the GLSL ES 1.00 preprocessor that
// shaders in the wild (and the ones this library generates) rely on:
//
//	#version, #define (object- and function-like), #undef,
//	#ifdef/#ifndef/#if/#elif/#else/#endif (integer expressions with
//	defined(), ! && || comparisons), #extension, #pragma, #error, #line.
//
// The GL_ES macro is predefined to 1 and __VERSION__ to 100, as required by
// the specification. Line structure is preserved so downstream positions
// refer to the original source.
func Preprocess(src string) (PreprocessResult, ErrorList) {
	p := &preprocessor{
		macros: map[string]macro{
			"GL_ES":       {body: "1"},
			"__VERSION__": {body: "100"},
		},
		result: PreprocessResult{Extensions: map[string]string{}},
	}
	p.run(src)
	return p.result, p.errs
}

type macro struct {
	params   []string
	body     string
	function bool
}

type condState struct {
	active      bool // this branch is being emitted
	taken       bool // some branch of this #if chain was taken
	parentLive  bool
	sawElse     bool
	startedLine int
}

// Expansion budgets. Macros that expand past them are rejected: a chain
// of doubling #defines grows exponentially, 2^30 tokens at depth 30.
const (
	maxExpandDepth  = 64      // macro expansions nested inside one another
	maxExpandTokens = 1 << 18 // tokens all macro expansions of a source produce
)

type preprocessor struct {
	macros map[string]macro
	conds  []condState
	errs   ErrorList
	result PreprocessResult
	out    strings.Builder

	outer      string // the macro the current top-level expansion started from
	tokens     int    // tokens expanded so far
	overBudget bool   // an expansion budget ran out; expansion has stopped
}

func (p *preprocessor) errorf(line int, format string, args ...interface{}) {
	p.errs = append(p.errs, &CompileError{Pos: Pos{Line: line, Col: 1}, Stage: "preprocess", Msg: fmt.Sprintf(format, args...)})
}

func (p *preprocessor) live() bool {
	for _, c := range p.conds {
		if !c.active {
			return false
		}
	}
	return true
}

func (p *preprocessor) run(src string) {
	lines := strings.Split(src, "\n")
	// Splice lines ending in backslash (line continuation).
	spliced := make([]string, 0, len(lines))
	lineNo := make([]int, 0, len(lines))
	for i := 0; i < len(lines); i++ {
		l := lines[i]
		n := i + 1
		pad := 0
		for strings.HasSuffix(l, "\\") && i+1 < len(lines) {
			l = l[:len(l)-1] + lines[i+1]
			i++
			pad++
		}
		spliced = append(spliced, l)
		lineNo = append(lineNo, n)
		for j := 0; j < pad; j++ {
			spliced = append(spliced, "")
			lineNo = append(lineNo, n)
		}
	}

	for i, line := range spliced {
		n := lineNo[i]
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "#") {
			p.directive(n, strings.TrimSpace(trimmed[1:]))
			p.out.WriteByte('\n')
			continue
		}
		if p.live() {
			p.out.WriteString(p.expand(line, n, nil))
		}
		p.out.WriteByte('\n')
	}
	if len(p.conds) > 0 {
		p.errorf(p.conds[len(p.conds)-1].startedLine, "unterminated conditional directive")
	}
	p.result.Source = p.out.String()
}

func splitDirective(s string) (name, rest string) {
	i := 0
	for i < len(s) && (isIdentCont(s[i])) {
		i++
	}
	return s[:i], strings.TrimSpace(s[i:])
}

func (p *preprocessor) directive(line int, body string) {
	name, rest := splitDirective(body)
	switch name {
	case "":
		// Null directive: legal.
	case "version":
		if p.live() {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				p.errorf(line, "#version requires a number")
				return
			}
			v, err := strconv.Atoi(fields[0])
			if err != nil {
				p.errorf(line, "#version requires a number, got %q", fields[0])
				return
			}
			p.result.Version = v
			if v != 100 {
				p.errorf(line, "unsupported #version %d (this implementation targets GLSL ES 1.00)", v)
			}
		}
	case "define":
		if p.live() {
			p.define(line, rest)
		}
	case "undef":
		if p.live() {
			nm, _ := splitDirective(rest)
			delete(p.macros, nm)
		}
	case "ifdef", "ifndef":
		nm, _ := splitDirective(rest)
		_, defined := p.macros[nm]
		val := defined
		if name == "ifndef" {
			val = !defined
		}
		p.pushCond(line, val)
	case "if":
		v := false
		if p.live() {
			v = p.evalCondition(line, rest)
		}
		p.pushCond(line, v)
	case "elif":
		if len(p.conds) == 0 {
			p.errorf(line, "#elif without #if")
			return
		}
		c := &p.conds[len(p.conds)-1]
		if c.sawElse {
			p.errorf(line, "#elif after #else")
			return
		}
		if c.taken {
			c.active = false
		} else if c.parentLive {
			c.active = p.evalCondition(line, rest)
			c.taken = c.active
		}
	case "else":
		if len(p.conds) == 0 {
			p.errorf(line, "#else without #if")
			return
		}
		c := &p.conds[len(p.conds)-1]
		if c.sawElse {
			p.errorf(line, "duplicate #else")
			return
		}
		c.sawElse = true
		c.active = c.parentLive && !c.taken
		c.taken = true
	case "endif":
		if len(p.conds) == 0 {
			p.errorf(line, "#endif without #if")
			return
		}
		p.conds = p.conds[:len(p.conds)-1]
	case "extension":
		if p.live() {
			parts := strings.SplitN(rest, ":", 2)
			ext := strings.TrimSpace(parts[0])
			behaviour := "enable"
			if len(parts) == 2 {
				behaviour = strings.TrimSpace(parts[1])
			}
			p.result.Extensions[ext] = behaviour
		}
	case "pragma":
		if p.live() {
			p.result.Pragmas = append(p.result.Pragmas, rest)
		}
	case "error":
		if p.live() {
			p.errorf(line, "#error %s", rest)
		}
	case "line":
		// Accepted and ignored; positions track physical lines.
	default:
		if p.live() {
			p.errorf(line, "unknown preprocessor directive #%s", name)
		}
	}
}

func (p *preprocessor) pushCond(line int, val bool) {
	parentLive := p.live()
	p.conds = append(p.conds, condState{
		active:      parentLive && val,
		taken:       val,
		parentLive:  parentLive,
		sawElse:     false,
		startedLine: line,
	})
}

func (p *preprocessor) define(line int, rest string) {
	nm, after := splitDirective(rest)
	if nm == "" {
		p.errorf(line, "#define requires a name")
		return
	}
	if strings.HasPrefix(nm, "GL_") || strings.Contains(nm, "__") {
		p.errorf(line, "macro names beginning with GL_ or containing __ are reserved (%q)", nm)
		return
	}
	// Function-like only when '(' immediately follows the name.
	idx := strings.Index(rest, nm) + len(nm)
	if idx < len(rest) && rest[idx] == '(' {
		close := strings.Index(rest[idx:], ")")
		if close < 0 {
			p.errorf(line, "unterminated macro parameter list for %q", nm)
			return
		}
		paramStr := rest[idx+1 : idx+close]
		var params []string
		if strings.TrimSpace(paramStr) != "" {
			for _, s := range strings.Split(paramStr, ",") {
				params = append(params, strings.TrimSpace(s))
			}
		}
		p.macros[nm] = macro{params: params, body: strings.TrimSpace(rest[idx+close+1:]), function: true}
		return
	}
	p.macros[nm] = macro{body: after}
}

// expand performs macro expansion on one line of ordinary source text.
// hide lists macros currently being expanded (to prevent recursion).
func (p *preprocessor) expand(line string, lineNum int, hide *hidden) string {
	if p.overBudget {
		return ""
	}
	var b strings.Builder
	i := 0
	for i < len(line) {
		c := line[i]
		switch {
		case c == '/' && i+1 < len(line) && line[i+1] == '/':
			b.WriteString(line[i:])
			return b.String()
		case isIdentStart(c):
			j := i
			for j < len(line) && isIdentCont(line[j]) {
				j++
			}
			word := line[i:j]
			m, ok := p.macros[word]
			if !ok || hide.has(word) {
				b.WriteString(word)
				i = j
				continue
			}
			if hide == nil {
				p.outer = word
			}
			if !m.function {
				if !p.spend(m.body, lineNum, hide) {
					return b.String()
				}
				b.WriteString(p.expand(m.body, lineNum, hide.push(word)))
				i = j
				continue
			}
			// Function-like macro: need an argument list.
			k := j
			for k < len(line) && (line[k] == ' ' || line[k] == '\t') {
				k++
			}
			if k >= len(line) || line[k] != '(' {
				b.WriteString(word)
				i = j
				continue
			}
			args, end, ok2 := scanMacroArgs(line, k)
			if !ok2 {
				p.errorf(lineNum, "unterminated argument list for macro %q", word)
				b.WriteString(line[i:])
				return b.String()
			}
			if len(args) != len(m.params) && !(len(m.params) == 0 && len(args) == 1 && strings.TrimSpace(args[0]) == "") {
				p.errorf(lineNum, "macro %q expects %d arguments, got %d", word, len(m.params), len(args))
				i = end
				continue
			}
			body := m.body
			expanded := substituteParams(body, m.params, args)
			if !p.spend(expanded, lineNum, hide) {
				return b.String()
			}
			b.WriteString(p.expand(expanded, lineNum, hide.push(word)))
			i = end
		default:
			b.WriteByte(c)
			i++
		}
	}
	return b.String()
}

// spend charges one macro expansion producing text, nested inside the
// expansions of hide, against the budgets. Once one runs out it reports
// the top-level macro and expansion stops for the rest of the source.
func (p *preprocessor) spend(text string, lineNum int, hide *hidden) bool {
	p.tokens += countTokens(text)
	switch {
	case hide.len() >= maxExpandDepth:
		p.errorf(lineNum, "macro %q: expansion nests more than %d macros deep", p.outer, maxExpandDepth)
	case p.tokens > maxExpandTokens:
		p.errorf(lineNum, "macro %q: expansion exceeds %d tokens", p.outer, maxExpandTokens)
	default:
		return true
	}
	p.overBudget = true
	return false
}

// countTokens counts the tokens of text: identifier and number runs and
// other non-space characters.
func countTokens(text string) int {
	n := 0
	for i := 0; i < len(text); {
		c := text[i]
		switch {
		case c == ' ' || c == '\t':
			i++
			continue
		case isIdentCont(c):
			for i < len(text) && isIdentCont(text[i]) {
				i++
			}
		default:
			i++
		}
		n++
	}
	return n
}

// hidden lists the macros being expanded, innermost first; nil is the
// empty list.
type hidden struct {
	name  string
	next  *hidden
	depth int
}

func (h *hidden) push(name string) *hidden { return &hidden{name, h, h.len() + 1} }

func (h *hidden) len() int {
	if h == nil {
		return 0
	}
	return h.depth
}

func (h *hidden) has(name string) bool {
	for ; h != nil; h = h.next {
		if h.name == name {
			return true
		}
	}
	return false
}

// scanMacroArgs scans a parenthesized argument list starting at line[open]=='('.
func scanMacroArgs(line string, open int) (args []string, end int, ok bool) {
	depth := 0
	start := open + 1
	for i := open; i < len(line); i++ {
		switch line[i] {
		case '(':
			depth++
		case ')':
			depth--
			if depth == 0 {
				args = append(args, strings.TrimSpace(line[start:i]))
				return args, i + 1, true
			}
		case ',':
			if depth == 1 {
				args = append(args, strings.TrimSpace(line[start:i]))
				start = i + 1
			}
		}
	}
	return nil, len(line), false
}

// substituteParams replaces whole-word occurrences of params with args.
func substituteParams(body string, params, args []string) string {
	if len(params) == 0 {
		return body
	}
	lookup := map[string]string{}
	for i, pname := range params {
		if i < len(args) {
			lookup[pname] = args[i]
		}
	}
	var b strings.Builder
	i := 0
	for i < len(body) {
		if isIdentStart(body[i]) {
			j := i
			for j < len(body) && isIdentCont(body[j]) {
				j++
			}
			word := body[i:j]
			if rep, ok := lookup[word]; ok {
				b.WriteString(rep)
			} else {
				b.WriteString(word)
			}
			i = j
			continue
		}
		b.WriteByte(body[i])
		i++
	}
	return b.String()
}

// evalCondition evaluates a #if/#elif integer expression. Supported grammar:
// defined(X), defined X, !expr, expr&&expr, expr||expr, comparisons,
// integer literals and (expanded) macros.
func (p *preprocessor) evalCondition(line int, expr string) bool {
	// Resolve defined() before macro expansion, as the standard requires.
	expr = p.resolveDefined(expr)
	expr = p.expand(expr, line, nil)
	ev := &condExprParser{s: expr}
	v := ev.parseOr()
	ev.skipSpace()
	if ev.err || ev.i < len(ev.s) {
		p.errorf(line, "invalid preprocessor condition %q", expr)
		return false
	}
	return v != 0
}

func (p *preprocessor) resolveDefined(s string) string {
	var b strings.Builder
	i := 0
	for i < len(s) {
		if isIdentStart(s[i]) {
			j := i
			for j < len(s) && isIdentCont(s[j]) {
				j++
			}
			if s[i:j] == "defined" {
				k := j
				for k < len(s) && (s[k] == ' ' || s[k] == '\t') {
					k++
				}
				paren := false
				if k < len(s) && s[k] == '(' {
					paren = true
					k++
					for k < len(s) && (s[k] == ' ' || s[k] == '\t') {
						k++
					}
				}
				m := k
				for m < len(s) && isIdentCont(s[m]) {
					m++
				}
				name := s[k:m]
				if paren {
					for m < len(s) && (s[m] == ' ' || s[m] == '\t') {
						m++
					}
					if m < len(s) && s[m] == ')' {
						m++
					}
				}
				if _, ok := p.macros[name]; ok {
					b.WriteString("1")
				} else {
					b.WriteString("0")
				}
				i = m
				continue
			}
			b.WriteString(s[i:j])
			i = j
			continue
		}
		b.WriteByte(s[i])
		i++
	}
	return b.String()
}

// condExprParser is a tiny precedence-climbing parser for #if expressions.
type condExprParser struct {
	s   string
	i   int
	err bool
}

func (e *condExprParser) skipSpace() {
	for e.i < len(e.s) && (e.s[e.i] == ' ' || e.s[e.i] == '\t') {
		e.i++
	}
}

func (e *condExprParser) parseOr() int64 {
	v := e.parseAnd()
	for {
		e.skipSpace()
		if strings.HasPrefix(e.s[e.i:], "||") {
			e.i += 2
			r := e.parseAnd()
			if v != 0 || r != 0 {
				v = 1
			} else {
				v = 0
			}
			continue
		}
		return v
	}
}

func (e *condExprParser) parseAnd() int64 {
	v := e.parseCmp()
	for {
		e.skipSpace()
		if strings.HasPrefix(e.s[e.i:], "&&") {
			e.i += 2
			r := e.parseCmp()
			if v != 0 && r != 0 {
				v = 1
			} else {
				v = 0
			}
			continue
		}
		return v
	}
}

func (e *condExprParser) parseCmp() int64 {
	v := e.parseAdd()
	for {
		e.skipSpace()
		rest := e.s[e.i:]
		var op string
		for _, cand := range []string{"==", "!=", "<=", ">=", "<", ">"} {
			if strings.HasPrefix(rest, cand) {
				op = cand
				break
			}
		}
		if op == "" {
			return v
		}
		e.i += len(op)
		r := e.parseAdd()
		var b bool
		switch op {
		case "==":
			b = v == r
		case "!=":
			b = v != r
		case "<=":
			b = v <= r
		case ">=":
			b = v >= r
		case "<":
			b = v < r
		case ">":
			b = v > r
		}
		if b {
			v = 1
		} else {
			v = 0
		}
	}
}

func (e *condExprParser) parseAdd() int64 {
	v := e.parseUnary()
	for {
		e.skipSpace()
		if e.i < len(e.s) && (e.s[e.i] == '+' || e.s[e.i] == '-') {
			op := e.s[e.i]
			e.i++
			r := e.parseUnary()
			if op == '+' {
				v += r
			} else {
				v -= r
			}
			continue
		}
		return v
	}
}

func (e *condExprParser) parseUnary() int64 {
	e.skipSpace()
	if e.i < len(e.s) {
		switch e.s[e.i] {
		case '!':
			e.i++
			if e.parseUnary() == 0 {
				return 1
			}
			return 0
		case '-':
			e.i++
			return -e.parseUnary()
		case '+':
			e.i++
			return e.parseUnary()
		case '(':
			e.i++
			v := e.parseOr()
			e.skipSpace()
			if e.i < len(e.s) && e.s[e.i] == ')' {
				e.i++
			} else {
				e.err = true
			}
			return v
		}
	}
	return e.parseNumber()
}

func (e *condExprParser) parseNumber() int64 {
	e.skipSpace()
	start := e.i
	for e.i < len(e.s) && (isDigit(e.s[e.i]) || isHexDigit(e.s[e.i]) || e.s[e.i] == 'x' || e.s[e.i] == 'X') {
		e.i++
	}
	if start == e.i {
		// Unexpanded identifiers evaluate to 0, as in C preprocessors.
		if e.i < len(e.s) && isIdentStart(e.s[e.i]) {
			for e.i < len(e.s) && isIdentCont(e.s[e.i]) {
				e.i++
			}
			return 0
		}
		e.err = true
		return 0
	}
	text := e.s[start:e.i]
	v, err := strconv.ParseInt(text, 0, 64)
	if err != nil {
		e.err = true
		return 0
	}
	return v
}
