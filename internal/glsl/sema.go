package glsl

import (
	"fmt"
)

// CheckOptions configures ES-conformance strictness. The defaults mirror the
// permissive behaviour of the Broadcom VideoCore IV driver the paper's
// experiments ran on: Appendix-A loop restrictions are reported as warnings,
// not errors. Strict mode turns them into errors, matching minimal
// ES 2.0 implementations.
type CheckOptions struct {
	// StrictAppendixA enforces the GLSL ES 1.00 Appendix A restrictions on
	// loops and indexing as hard errors.
	StrictAppendixA bool
}

// Program is a checked shader ready for execution.
type Program struct {
	Stage   ShaderStage
	TU      *TranslationUnit
	Version int

	// Functions maps signature keys to defined functions.
	Functions map[string]*FuncDecl
	// Entry is main().
	Entry *FuncDecl

	// Globals holds every file-scope variable in slot order.
	Globals []*VarDecl
	// Uniforms, Attributes and Varyings are the interface variables in
	// declaration order.
	Uniforms   []*VarDecl
	Attributes []*VarDecl
	Varyings   []*VarDecl

	Warnings ErrorList
}

// GlobalSlots returns the number of global value slots.
func (p *Program) GlobalSlots() int { return len(p.Globals) }

// LookupUniform finds a uniform by name (including struct roots), or nil.
func (p *Program) LookupUniform(name string) *VarDecl {
	for _, u := range p.Uniforms {
		if u.Name == name {
			return u
		}
	}
	return nil
}

// LookupAttribute finds an attribute by name, or nil.
func (p *Program) LookupAttribute(name string) *VarDecl {
	for _, a := range p.Attributes {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// LookupVarying finds a varying by name, or nil.
func (p *Program) LookupVarying(name string) *VarDecl {
	for _, v := range p.Varyings {
		if v.Name == name {
			return v
		}
	}
	return nil
}

// Check type-checks a parsed translation unit for the given stage.
func Check(tu *TranslationUnit, stage ShaderStage, opts CheckOptions) (*Program, ErrorList) {
	c := &checker{
		stage: stage,
		opts:  opts,
		prog: &Program{
			Stage:     stage,
			TU:        tu,
			Version:   tu.Version,
			Functions: map[string]*FuncDecl{},
		},
	}
	if stage == StageVertex {
		c.builtins = vertexBuiltinVars()
	} else {
		c.builtins = fragmentBuiltinVars()
	}
	c.pushScope()
	c.run(tu)
	c.popScope()
	c.prog.Warnings = c.warns
	return c.prog, c.errs
}

// CompileSource preprocesses, parses and checks GLSL ES source in one step.
func CompileSource(src string, stage ShaderStage, opts CheckOptions) (*Program, ErrorList) {
	tu, errs := Parse(src)
	if errs.Err() != nil {
		return nil, errs
	}
	return Check(tu, stage, opts)
}

type checker struct {
	stage    ShaderStage
	opts     CheckOptions
	prog     *Program
	errs     ErrorList
	warns    ErrorList
	builtins map[string]*BuiltinVar

	scopes []map[string]*VarDecl
	// structTypes tracks struct type names per scope for constructor
	// resolution.
	structTypes []map[string]*Type
	// funcsByName collects prototypes and definitions for overload checks.
	funcsByName map[string][]*FuncDecl

	curFunc    *FuncDecl
	localSlots int
	loopDepth  int

	// loopIndexVars tracks Appendix-A loop induction variables currently in
	// scope, used to validate "constant-index-expression" indexing.
	loopIndexVars map[*VarDecl]bool

	// defaultPrec tracks default precision per basic kind.
	floatPrecSet bool
}

func (c *checker) errorf(pos Pos, format string, args ...interface{}) {
	if len(c.errs) < 100 {
		c.errs = append(c.errs, &CompileError{Pos: pos, Stage: "check", Msg: fmt.Sprintf(format, args...)})
	}
}

func (c *checker) warnf(pos Pos, format string, args ...interface{}) {
	if c.opts.StrictAppendixA {
		c.errorf(pos, format, args...)
		return
	}
	if len(c.warns) < 100 {
		c.warns = append(c.warns, &CompileError{Pos: pos, Stage: "warn", Msg: fmt.Sprintf(format, args...)})
	}
}

func (c *checker) pushScope() {
	c.scopes = append(c.scopes, map[string]*VarDecl{})
	c.structTypes = append(c.structTypes, map[string]*Type{})
}

func (c *checker) popScope() {
	c.scopes = c.scopes[:len(c.scopes)-1]
	c.structTypes = c.structTypes[:len(c.structTypes)-1]
}

func (c *checker) declareStructType(info *StructInfo) {
	if info.Name == "" {
		return
	}
	c.structTypes[len(c.structTypes)-1][info.Name] = StructType(info)
}

func (c *checker) declare(v *VarDecl) {
	scope := c.scopes[len(c.scopes)-1]
	if _, exists := scope[v.Name]; exists {
		c.errorf(v.Pos, "redeclaration of %q in the same scope", v.Name)
	}
	scope[v.Name] = v
}

func (c *checker) lookup(name string) *VarDecl {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v, ok := c.scopes[i][name]; ok {
			return v
		}
	}
	return nil
}

func (c *checker) run(tu *TranslationUnit) {
	c.funcsByName = map[string][]*FuncDecl{}
	c.loopIndexVars = map[*VarDecl]bool{}

	// Pass 1: register function names (prototypes and definitions) so calls
	// can be resolved regardless of declaration order within the rules of
	// GLSL (which actually require declaration before use; we follow the
	// spec by checking order during the second pass for definitions only).
	for _, d := range tu.Decls {
		if fd, ok := d.(*FuncDecl); ok {
			c.registerFunction(fd)
		}
	}

	// Pass 2: check everything in order.
	for _, d := range tu.Decls {
		switch n := d.(type) {
		case *VarDecl:
			c.checkGlobalVar(n)
		case *FuncDecl:
			if n.Body != nil {
				c.checkFunctionBody(n)
			}
		case *PrecisionDecl:
			if n.Of != nil && n.Of.Kind == KFloat {
				c.floatPrecSet = true
			}
		case *StructDecl:
			c.checkStructInfo(n.Pos, n.Info)
			c.declareStructType(n.Info)
		case *InvariantDecl:
			for _, name := range n.Names {
				if bv := c.builtins[name]; bv == nil {
					if v := c.lookup(name); v == nil || v.Qual != QualVarying {
						c.errorf(n.Pos, "invariant declaration of %q: not an output variable", name)
					}
				}
			}
		}
	}

	// Entry point.
	if main, ok := c.prog.Functions["main()"]; ok {
		if main.Ret.Kind != KVoid {
			c.errorf(main.Pos, "main() must return void")
		}
		c.prog.Entry = main
	} else {
		c.errorf(Pos{Line: 1, Col: 1}, "missing entry point: void main()")
	}

	// Fragment shaders must declare a default float precision (§4.5.3).
	if c.stage == StageFragment && !c.floatPrecSet {
		c.warnf(Pos{Line: 1, Col: 1}, "fragment shader has no default float precision ('precision mediump float;')")
	}

	c.checkNoRecursion()
}

func (c *checker) registerFunction(fd *FuncDecl) {
	if IsBuiltinFunction(fd.Name) {
		c.errorf(fd.Pos, "redefinition of builtin function %q", fd.Name)
	}
	if fd.Name == "main" && (len(fd.Params) > 0 || fd.Ret.Kind != KVoid) {
		c.errorf(fd.Pos, "main() must be declared as 'void main()'")
	}
	key := fd.signatureKey()
	for _, prev := range c.funcsByName[fd.Name] {
		if prev.signatureKey() == key {
			if prev.Body != nil && fd.Body != nil {
				c.errorf(fd.Pos, "redefinition of function %s", key)
			}
			if fd.Body != nil && prev.Body == nil {
				// Definition completes an earlier prototype.
				prev.Body = fd.Body
				prev.Params = fd.Params
				*fd = *prev
			}
			return
		}
		if prev.Ret != nil && fd.Ret != nil && !prev.Ret.Equal(fd.Ret) && prev.signatureKey() == key {
			c.errorf(fd.Pos, "overload of %q differs only by return type", fd.Name)
		}
	}
	c.funcsByName[fd.Name] = append(c.funcsByName[fd.Name], fd)
	if fd.Body != nil {
		c.prog.Functions[key] = fd
	} else {
		// Keep prototypes visible; definition may come later.
		c.prog.Functions[key] = fd
	}
}

func (c *checker) checkStructInfo(pos Pos, info *StructInfo) {
	for _, f := range info.Fields {
		if f.Type.IsSampler() {
			c.errorf(pos, "struct field %q: samplers are not allowed in structs", f.Name)
		}
	}
}

func (c *checker) checkGlobalVar(v *VarDecl) {
	v.Storage = StorageGlobal
	v.Slot = len(c.prog.Globals)
	c.prog.Globals = append(c.prog.Globals, v)
	if c.builtins[v.Name] != nil {
		c.errorf(v.Pos, "cannot redeclare builtin variable %q", v.Name)
	}
	c.declare(v)

	t := v.DeclType
	switch v.Qual {
	case QualAttribute:
		c.prog.Attributes = append(c.prog.Attributes, v)
		if c.stage != StageVertex {
			c.errorf(v.Pos, "attribute %q: attributes are only allowed in vertex shaders", v.Name)
		}
		if !attributeTypeOK(t) {
			c.errorf(v.Pos, "attribute %q: type %s not allowed (float, vec or mat only)", v.Name, t)
		}
		if v.Init != nil {
			c.errorf(v.Pos, "attribute %q cannot have an initializer", v.Name)
		}
	case QualUniform:
		c.prog.Uniforms = append(c.prog.Uniforms, v)
		if !uniformTypeOK(t) {
			c.errorf(v.Pos, "uniform %q: type %s not allowed", v.Name, t)
		}
		if v.Init != nil {
			c.errorf(v.Pos, "uniform %q cannot have an initializer", v.Name)
		}
	case QualVarying:
		c.prog.Varyings = append(c.prog.Varyings, v)
		if !varyingTypeOK(t) {
			c.errorf(v.Pos, "varying %q: type %s not allowed (float, vec, mat or arrays of those)", v.Name, t)
		}
		if v.Init != nil {
			c.errorf(v.Pos, "varying %q cannot have an initializer", v.Name)
		}
	case QualConst:
		if v.Init == nil {
			c.errorf(v.Pos, "const %q must be initialized", v.Name)
		}
	default:
		// Plain global.
		if t.IsSampler() {
			c.errorf(v.Pos, "global %q: samplers must be uniforms", v.Name)
		}
	}

	if t.IsSampler() && v.Qual != QualUniform {
		if v.Qual != QualNone { // already reported for globals above
			c.errorf(v.Pos, "%q: sampler variables must be uniforms", v.Name)
		}
	}

	if v.Init != nil {
		it := c.checkExpr(v.Init)
		if it.Kind != KInvalid && !it.Equal(t) {
			c.errorf(v.Pos, "cannot initialize %s %q with %s (GLSL ES has no implicit conversions)", t, v.Name, it)
		}
		if v.Qual == QualConst {
			cv, ok := FoldConst(v.Init)
			if !ok {
				c.errorf(v.Pos, "initializer of const %q is not a constant expression", v.Name)
			} else {
				v.ConstVal = cv
			}
		}
	}
}

func attributeTypeOK(t *Type) bool {
	switch t.Kind {
	case KFloat, KVec2, KVec3, KVec4, KMat2, KMat3, KMat4:
		return true
	}
	return false
}

func uniformTypeOK(t *Type) bool {
	switch t.Kind {
	case KVoid, KInvalid:
		return false
	case KArray:
		return uniformTypeOK(t.Elem)
	case KStruct:
		for _, f := range t.Struct.Fields {
			if !uniformTypeOK(f.Type) || f.Type.IsSampler() {
				return false
			}
		}
		return true
	}
	return true
}

func varyingTypeOK(t *Type) bool {
	switch t.Kind {
	case KFloat, KVec2, KVec3, KVec4, KMat2, KMat3, KMat4:
		return true
	case KArray:
		return varyingTypeOK(t.Elem)
	}
	return false
}

// ---- Function bodies ----

func (c *checker) checkFunctionBody(fd *FuncDecl) {
	c.curFunc = fd
	c.localSlots = 0
	c.pushScope()
	for _, p := range fd.Params {
		p.Storage = StorageLocal
		p.Slot = c.localSlots
		c.localSlots++
		if p.DeclType.IsSampler() && p.Dir != DirIn {
			c.errorf(p.Pos, "sampler parameters must be 'in'")
		}
		if p.Name != "" {
			c.declare(p)
		}
	}
	c.checkStmt(fd.Body)
	c.popScope()
	fd.LocalSize = c.localSlots
	c.curFunc = nil

	if fd.Ret.Kind != KVoid && !stmtAlwaysReturns(fd.Body) {
		c.warnf(fd.Pos, "function %q may reach end without returning a value", fd.Name)
	}
}

// stmtAlwaysReturns conservatively determines whether control cannot fall
// off the end of s.
func stmtAlwaysReturns(s Stmt) bool {
	switch n := s.(type) {
	case *ReturnStmt:
		return true
	case *DiscardStmt:
		return true
	case *BlockStmt:
		for _, st := range n.Stmts {
			if stmtAlwaysReturns(st) {
				return true
			}
		}
		return false
	case *IfStmt:
		return n.Else != nil && stmtAlwaysReturns(n.Then) && stmtAlwaysReturns(n.Else)
	}
	return false
}

func (c *checker) checkStmt(s Stmt) {
	switch n := s.(type) {
	case *BlockStmt:
		c.pushScope()
		for _, st := range n.Stmts {
			c.checkStmt(st)
		}
		c.popScope()
	case *DeclStmt:
		if n.Struct != nil {
			c.checkStructInfo(n.Struct.Pos, n.Struct.Info)
			c.declareStructType(n.Struct.Info)
		}
		for _, v := range n.Vars {
			c.checkLocalVar(v)
		}
	case *ExprStmt:
		c.checkExpr(n.X)
	case *EmptyStmt:
	case *IfStmt:
		ct := c.checkExpr(n.Cond)
		if ct.Kind != KInvalid && ct.Kind != KBool {
			c.errorf(n.Cond.NodePos(), "if condition must be bool, got %s", ct)
		}
		c.checkStmt(n.Then)
		if n.Else != nil {
			c.checkStmt(n.Else)
		}
	case *ForStmt:
		c.pushScope()
		indexVar := c.analyzeForLoop(n)
		if n.InitStmt != nil {
			c.checkStmt(n.InitStmt)
		}
		if indexVar != nil {
			c.loopIndexVars[indexVar] = true
		}
		if n.Cond != nil {
			ct := c.checkExpr(n.Cond)
			if ct.Kind != KInvalid && ct.Kind != KBool {
				c.errorf(n.Cond.NodePos(), "for condition must be bool, got %s", ct)
			}
		}
		if n.Post != nil {
			c.checkExpr(n.Post)
		}
		c.loopDepth++
		c.checkStmt(n.Body)
		c.loopDepth--
		if indexVar != nil {
			delete(c.loopIndexVars, indexVar)
		}
		c.popScope()
	case *WhileStmt:
		c.warnf(n.Pos, "while loops are outside the GLSL ES 1.00 Appendix A minimum (accepted by this implementation)")
		ct := c.checkExpr(n.Cond)
		if ct.Kind != KInvalid && ct.Kind != KBool {
			c.errorf(n.Cond.NodePos(), "while condition must be bool, got %s", ct)
		}
		c.loopDepth++
		c.checkStmt(n.Body)
		c.loopDepth--
	case *DoWhileStmt:
		c.warnf(n.Pos, "do-while loops are outside the GLSL ES 1.00 Appendix A minimum (accepted by this implementation)")
		c.loopDepth++
		c.checkStmt(n.Body)
		c.loopDepth--
		ct := c.checkExpr(n.Cond)
		if ct.Kind != KInvalid && ct.Kind != KBool {
			c.errorf(n.Cond.NodePos(), "do-while condition must be bool, got %s", ct)
		}
	case *ReturnStmt:
		if c.curFunc == nil {
			c.errorf(n.Pos, "return outside function")
			return
		}
		if n.X == nil {
			if c.curFunc.Ret.Kind != KVoid {
				c.errorf(n.Pos, "missing return value in function returning %s", c.curFunc.Ret)
			}
			return
		}
		rt := c.checkExpr(n.X)
		if c.curFunc.Ret.Kind == KVoid {
			c.errorf(n.Pos, "void function cannot return a value")
		} else if rt.Kind != KInvalid && !rt.Equal(c.curFunc.Ret) {
			c.errorf(n.Pos, "cannot return %s from function returning %s", rt, c.curFunc.Ret)
		}
	case *BreakStmt:
		if c.loopDepth == 0 {
			c.errorf(n.Pos, "break outside loop")
		}
	case *ContinueStmt:
		if c.loopDepth == 0 {
			c.errorf(n.Pos, "continue outside loop")
		}
	case *DiscardStmt:
		if c.stage != StageFragment {
			c.errorf(n.Pos, "discard is only allowed in fragment shaders")
		}
	}
}

func (c *checker) checkLocalVar(v *VarDecl) {
	if c.curFunc == nil {
		c.errorf(v.Pos, "internal: local declaration outside function")
		return
	}
	v.Storage = StorageLocal
	v.Slot = c.localSlots
	c.localSlots++
	switch v.Qual {
	case QualAttribute, QualUniform, QualVarying:
		c.errorf(v.Pos, "%s variables must be declared at file scope", v.Qual)
	case QualConst:
		if v.Init == nil {
			c.errorf(v.Pos, "const %q must be initialized", v.Name)
		}
	}
	if v.DeclType.IsSampler() {
		c.errorf(v.Pos, "local %q: sampler variables must be uniforms", v.Name)
	}
	if v.Init != nil {
		it := c.checkExpr(v.Init)
		if it.Kind != KInvalid && !it.Equal(v.DeclType) {
			c.errorf(v.Pos, "cannot initialize %s %q with %s (GLSL ES has no implicit conversions)", v.DeclType, v.Name, it)
		}
		if v.Qual == QualConst {
			if cv, ok := FoldConst(v.Init); ok {
				v.ConstVal = cv
			} else {
				c.errorf(v.Pos, "initializer of const %q is not a constant expression", v.Name)
			}
		}
	}
	c.declare(v)
}

// analyzeForLoop checks a for statement against the GLSL ES 1.00 Appendix A
// grammar and returns the induction variable when conformant.
func (c *checker) analyzeForLoop(f *ForStmt) *VarDecl {
	ds, ok := f.InitStmt.(*DeclStmt)
	if !ok || len(ds.Vars) != 1 {
		c.warnf(f.Pos, "for loop init is not a single variable declaration (Appendix A)")
		return nil
	}
	v := ds.Vars[0]
	if v.DeclType.Kind != KFloat && v.DeclType.Kind != KInt {
		c.warnf(f.Pos, "for loop induction variable must be float or int (Appendix A)")
		return nil
	}
	if v.Init == nil {
		c.warnf(f.Pos, "for loop induction variable must be initialized with a constant expression (Appendix A)")
		return nil
	}
	if _, constInit := FoldConst(v.Init); !constInit {
		c.warnf(f.Pos, "for loop induction variable initializer is not constant (Appendix A; accepted, as on the VideoCore IV driver)")
	}
	// Condition must compare the induction variable against a constant.
	if cond, ok := f.Cond.(*BinaryExpr); ok {
		switch cond.Op {
		case TokLess, TokGreater, TokLessEq, TokGreaterEq, TokEqEq, TokNotEq:
			if id, ok := cond.X.(*Ident); !ok || id.Name != v.Name {
				c.warnf(f.Pos, "for loop condition must test the induction variable (Appendix A)")
			} else if _, constBound := foldIfParsedConst(cond.Y); !constBound {
				c.warnf(f.Pos, "for loop bound is not a constant expression (Appendix A; accepted, as on the VideoCore IV driver)")
			}
		default:
			c.warnf(f.Pos, "for loop condition must be a comparison (Appendix A)")
		}
	} else if f.Cond != nil {
		c.warnf(f.Pos, "for loop condition must be a comparison (Appendix A)")
	}
	return v
}

// foldIfParsedConst is a lenient constant check used before full checking of
// subexpressions (uniform-bound loops fold to non-const).
func foldIfParsedConst(e Expr) (*ConstValue, bool) {
	return FoldConst(e)
}

// ---- Expressions ----

func (c *checker) checkExpr(e Expr) *Type {
	switch n := e.(type) {
	case *IntLit:
		n.T = TypeInt
	case *FloatLit:
		n.T = TypeFloat
	case *BoolLit:
		n.T = TypeBool
	case *Ident:
		c.checkIdent(n)
	case *BinaryExpr:
		c.checkBinary(n)
	case *UnaryExpr:
		c.checkUnary(n)
	case *CondExpr:
		ct := c.checkExpr(n.Cond)
		if ct.Kind != KInvalid && ct.Kind != KBool {
			c.errorf(n.Pos, "?: condition must be bool, got %s", ct)
		}
		tt := c.checkExpr(n.Then)
		et := c.checkExpr(n.Else)
		if tt.Kind != KInvalid && et.Kind != KInvalid && !tt.Equal(et) {
			c.errorf(n.Pos, "?: branches have mismatched types %s and %s", tt, et)
		}
		n.T = tt
	case *AssignExpr:
		c.checkAssign(n)
	case *SequenceExpr:
		c.checkExpr(n.X)
		n.T = c.checkExpr(n.Y)
	case *CallExpr:
		c.checkCall(n)
	case *FieldExpr:
		c.checkField(n)
	case *IndexExpr:
		c.checkIndex(n)
	default:
		c.errorf(e.NodePos(), "internal: unknown expression node %T", e)
	}
	return e.Type()
}

func (c *checker) checkIdent(n *Ident) {
	if v := c.lookup(n.Name); v != nil {
		n.Ref = v
		n.T = v.DeclType
		return
	}
	if bv, ok := c.builtins[n.Name]; ok {
		n.BRef = bv
		n.T = bv.Type
		return
	}
	if cval, ok := BuiltinConstants[n.Name]; ok {
		// Builtin constants behave like const int globals; materialize a
		// shared VarDecl on first use.
		v := &VarDecl{
			Name:     n.Name,
			DeclType: TypeInt,
			Qual:     QualConst,
			Storage:  StorageGlobal,
			Slot:     len(c.prog.Globals),
			ConstVal: &ConstValue{T: TypeInt, F: []float32{float32(cval)}},
		}
		c.prog.Globals = append(c.prog.Globals, v)
		c.scopes[0][n.Name] = v
		n.Ref = v
		n.T = TypeInt
		return
	}
	c.errorf(n.Pos, "undeclared identifier %q", n.Name)
	n.T = TypeInvalid
}

func (c *checker) checkBinary(n *BinaryExpr) {
	xt := c.checkExpr(n.X)
	yt := c.checkExpr(n.Y)
	n.T = TypeInvalid
	if xt.Kind == KInvalid || yt.Kind == KInvalid {
		return
	}
	switch n.Op {
	case TokPlus, TokMinus, TokStar, TokSlash:
		n.T = c.arithmeticResult(n.Pos, n.Op, xt, yt)
	case TokLess, TokGreater, TokLessEq, TokGreaterEq:
		if !xt.IsScalar() || xt.Kind == KBool || !xt.Equal(yt) {
			c.errorf(n.Pos, "relational operator requires two int or two float scalars, got %s and %s", xt, yt)
			return
		}
		n.T = TypeBool
	case TokEqEq, TokNotEq:
		if !xt.Equal(yt) {
			c.errorf(n.Pos, "cannot compare %s with %s", xt, yt)
			return
		}
		if xt.IsSampler() || containsSampler(xt) {
			c.errorf(n.Pos, "cannot compare sampler-containing values")
			return
		}
		n.T = TypeBool
	case TokAndAnd, TokOrOr, TokXorXor:
		if xt.Kind != KBool || yt.Kind != KBool {
			c.errorf(n.Pos, "logical operator requires bool operands, got %s and %s", xt, yt)
			return
		}
		n.T = TypeBool
	case TokPercent, TokShl, TokShr, TokAmp, TokPipe, TokCaret:
		// Already diagnosed by the parser as reserved; type stays invalid.
	default:
		c.errorf(n.Pos, "internal: unexpected binary operator %s", n.Op)
	}
}

func containsSampler(t *Type) bool {
	switch t.Kind {
	case KSampler2D, KSamplerCube:
		return true
	case KArray:
		return containsSampler(t.Elem)
	case KStruct:
		for _, f := range t.Struct.Fields {
			if containsSampler(f.Type) {
				return true
			}
		}
	}
	return false
}

// arithmeticResult implements §5.9 for + - * /.
func (c *checker) arithmeticResult(pos Pos, op TokenKind, xt, yt *Type) *Type {
	fail := func() *Type {
		c.errorf(pos, "invalid operands to %s: %s and %s (GLSL ES has no implicit conversions)", op, xt, yt)
		return TypeInvalid
	}
	if !xt.IsNumeric() || !yt.IsNumeric() {
		return fail()
	}
	xc, yc := xt.ComponentType(), yt.ComponentType()
	if !xc.Equal(yc) {
		return fail()
	}
	// Matrix multiplication is linear-algebraic; everything else on
	// matrices is component-wise.
	if op == TokStar {
		switch {
		case xt.IsMatrix() && yt.IsMatrix():
			if xt.Kind != yt.Kind {
				return fail()
			}
			return xt
		case xt.IsMatrix() && yt.IsVector():
			if yt.VectorSize() != xt.MatrixDim() {
				return fail()
			}
			return yt
		case xt.IsVector() && yt.IsMatrix():
			if xt.VectorSize() != yt.MatrixDim() {
				return fail()
			}
			return xt
		}
	}
	switch {
	case xt.Equal(yt):
		return xt
	case xt.IsScalar() && (yt.IsVector() || yt.IsMatrix()):
		return yt
	case (xt.IsVector() || xt.IsMatrix()) && yt.IsScalar():
		return xt
	}
	return fail()
}

func (c *checker) checkUnary(n *UnaryExpr) {
	xt := c.checkExpr(n.X)
	n.T = TypeInvalid
	if xt.Kind == KInvalid {
		return
	}
	switch n.Op {
	case TokPlus, TokMinus:
		if !xt.IsNumeric() {
			c.errorf(n.Pos, "unary %s requires a numeric operand, got %s", n.Op, xt)
			return
		}
		n.T = xt
	case TokBang:
		if xt.Kind != KBool {
			c.errorf(n.Pos, "operator ! requires bool, got %s", xt)
			return
		}
		n.T = TypeBool
	case TokInc, TokDec:
		if !xt.IsNumeric() {
			c.errorf(n.Pos, "%s requires a numeric operand, got %s", n.Op, xt)
			return
		}
		if reason := c.lvalueReason(n.X); reason != "" {
			c.errorf(n.Pos, "operand of %s is not assignable: %s", n.Op, reason)
			return
		}
		n.T = xt
	}
}

func (c *checker) checkAssign(n *AssignExpr) {
	lt := c.checkExpr(n.LHS)
	rt := c.checkExpr(n.RHS)
	n.T = lt
	if lt.Kind == KInvalid || rt.Kind == KInvalid {
		return
	}
	if reason := c.lvalueReason(n.LHS); reason != "" {
		c.errorf(n.Pos, "left side of assignment is not assignable: %s", reason)
		return
	}
	switch n.Op {
	case TokAssign:
		if !lt.Equal(rt) {
			c.errorf(n.Pos, "cannot assign %s to %s (GLSL ES has no implicit conversions)", rt, lt)
		}
	case TokPlusAssign, TokMinusAssign, TokStarAssign, TokSlashAssign:
		op := map[TokenKind]TokenKind{
			TokPlusAssign:  TokPlus,
			TokMinusAssign: TokMinus,
			TokStarAssign:  TokStar,
			TokSlashAssign: TokSlash,
		}[n.Op]
		res := c.arithmeticResult(n.Pos, op, lt, rt)
		if res.Kind != KInvalid && !res.Equal(lt) {
			c.errorf(n.Pos, "result of compound assignment (%s) does not match target type %s", res, lt)
		}
	}
}

// lvalueReason returns "" when e is a writable l-value, else a description
// of why not.
func (c *checker) lvalueReason(e Expr) string {
	switch n := e.(type) {
	case *Ident:
		if n.BRef != nil {
			if !n.BRef.Writable {
				return fmt.Sprintf("%s is read-only", n.Name)
			}
			return ""
		}
		if n.Ref == nil {
			return "unresolved identifier"
		}
		switch n.Ref.Qual {
		case QualConst:
			return fmt.Sprintf("%q is const", n.Name)
		case QualAttribute:
			return fmt.Sprintf("attribute %q is read-only", n.Name)
		case QualUniform:
			return fmt.Sprintf("uniform %q is read-only", n.Name)
		case QualVarying:
			if c.stage == StageFragment {
				return fmt.Sprintf("varying %q is read-only in fragment shaders", n.Name)
			}
		}
		if n.Ref.IsParam && n.Ref.Dir == DirIn && false {
			// in-params are writable copies in GLSL.
			return ""
		}
		return ""
	case *FieldExpr:
		if n.Swizzle != nil {
			if swizzleHasDuplicates(n.Swizzle) {
				return "swizzle with repeated components cannot be assigned"
			}
		}
		return c.lvalueReason(n.X)
	case *IndexExpr:
		return c.lvalueReason(n.X)
	case *SequenceExpr:
		return "comma expression is not assignable"
	default:
		return "expression is not an l-value"
	}
}

func (c *checker) checkField(n *FieldExpr) {
	xt := c.checkExpr(n.X)
	n.T = TypeInvalid
	n.FieldIndex = -1
	if xt.Kind == KInvalid {
		return
	}
	if xt.Kind == KStruct {
		idx := xt.Struct.FieldIndex(n.Name)
		if idx < 0 {
			c.errorf(n.Pos, "struct %s has no field %q", xt, n.Name)
			return
		}
		n.FieldIndex = idx
		n.T = xt.Struct.Fields[idx].Type
		return
	}
	if xt.IsVector() {
		idx := swizzleIndices(n.Name, xt.VectorSize())
		if idx == nil {
			c.errorf(n.Pos, "invalid swizzle %q on %s", n.Name, xt)
			return
		}
		n.Swizzle = idx
		n.T = VectorOf(xt.ComponentType(), len(idx))
		return
	}
	c.errorf(n.Pos, "type %s has no fields (field %q)", xt, n.Name)
}

func (c *checker) checkIndex(n *IndexExpr) {
	xt := c.checkExpr(n.X)
	it := c.checkExpr(n.Index)
	n.T = TypeInvalid
	if xt.Kind == KInvalid {
		return
	}
	if it.Kind != KInt && it.Kind != KInvalid {
		c.errorf(n.Pos, "index must be int, got %s", it)
	}
	var bound int
	switch {
	case xt.Kind == KArray:
		n.T = xt.Elem
		bound = xt.ArrayLen
	case xt.IsVector():
		n.T = xt.ComponentType()
		bound = xt.VectorSize()
	case xt.IsMatrix():
		n.T = VectorOf(TypeFloat, xt.MatrixDim())
		bound = xt.MatrixDim()
	default:
		c.errorf(n.Pos, "type %s is not indexable", xt)
		return
	}
	if cv, ok := FoldConst(n.Index); ok {
		idx := int(cv.F[0])
		if idx < 0 || idx >= bound {
			c.errorf(n.Pos, "index %d out of range [0,%d)", idx, bound)
		}
	} else if !c.isConstantIndexExpr(n.Index) {
		c.warnf(n.Pos, "dynamic indexing with a non-constant-index expression (Appendix A)")
	}

	// gl_FragData special case: only element 0 exists (challenge #8).
	if id, ok := n.X.(*Ident); ok && id.BRef != nil && id.Name == "gl_FragData" {
		if cv, ok := FoldConst(n.Index); !ok {
			c.errorf(n.Pos, "gl_FragData index must be a constant expression")
		} else if int(cv.F[0]) != 0 {
			c.errorf(n.Pos, "gl_FragData index must be 0: ES 2.0 supports a single color output (gl_MaxDrawBuffers=1)")
		}
	}
}

// isConstantIndexExpr implements Appendix A "constant-index-expression":
// constants, loop induction variables, and expressions over those.
func (c *checker) isConstantIndexExpr(e Expr) bool {
	switch n := e.(type) {
	case *IntLit, *FloatLit, *BoolLit:
		return true
	case *Ident:
		if n.Ref != nil {
			if n.Ref.Qual == QualConst {
				return true
			}
			return c.loopIndexVars[n.Ref]
		}
		return false
	case *BinaryExpr:
		return c.isConstantIndexExpr(n.X) && c.isConstantIndexExpr(n.Y)
	case *UnaryExpr:
		return c.isConstantIndexExpr(n.X)
	case *CallExpr:
		if n.Kind == CallTypeConstructor {
			for _, a := range n.Args {
				if !c.isConstantIndexExpr(a) {
					return false
				}
			}
			return true
		}
		return false
	}
	return false
}

func (c *checker) checkCall(n *CallExpr) {
	argTypes := make([]*Type, len(n.Args))
	for i, a := range n.Args {
		argTypes[i] = c.checkExpr(a)
	}
	n.T = TypeInvalid

	// Constructor?
	if t := constructorType(n.Callee); t != nil {
		n.Kind = CallTypeConstructor
		n.CtorType = t
		n.T = c.checkConstructor(n, t, argTypes)
		return
	}

	// Struct constructor: callee names a struct type in scope. The parser
	// records struct names; at check time the declarator type is what we
	// get from looking at argument shape. We detect struct constructors by
	// searching declared struct types through globals (checker-level struct
	// scoping mirrors parser scoping through decl order).
	if st := c.lookupStructType(n.Callee); st != nil {
		n.Kind = CallStructConstructor
		n.CtorType = st
		if len(argTypes) != len(st.Struct.Fields) {
			c.errorf(n.Pos, "struct constructor %s expects %d arguments, got %d", n.Callee, len(st.Struct.Fields), len(argTypes))
			return
		}
		for i, f := range st.Struct.Fields {
			if argTypes[i].Kind != KInvalid && !argTypes[i].Equal(f.Type) {
				c.errorf(n.Pos, "struct constructor %s: argument %d has type %s, want %s", n.Callee, i+1, argTypes[i], f.Type)
			}
		}
		n.T = st
		return
	}

	// Builtin?
	if IsBuiltinFunction(n.Callee) {
		sig := LookupBuiltin(c.stage, n.Callee, argTypes)
		if sig == nil {
			for _, at := range argTypes {
				if at.Kind == KInvalid {
					return // error already reported for the argument
				}
			}
			c.errorf(n.Pos, "no overload of %s matches argument types %s", n.Callee, typeListString(argTypes))
			return
		}
		n.Kind = CallBuiltin
		n.Builtin = sig
		n.T = sig.Ret
		if c.stage == StageVertex && (sig.ID == BTexture2D || sig.ID == BTexture2DLod || sig.ID == BTextureCube) {
			// VideoCore IV reports gl_MaxVertexTextureImageUnits == 0:
			// vertex texture fetch is unavailable on the paper's platform.
			c.warnf(n.Pos, "vertex texture fetch used, but gl_MaxVertexTextureImageUnits is 0 on this device")
		}
		return
	}

	// User function.
	key := callKey(n.Callee, argTypes)
	if fd, ok := c.prog.Functions[key]; ok {
		n.Kind = CallUser
		n.Func = fd
		n.T = fd.Ret
		// out/inout arguments must be l-values.
		for i, p := range fd.Params {
			if p.Dir != DirIn {
				if reason := c.lvalueReason(n.Args[i]); reason != "" {
					c.errorf(n.Args[i].NodePos(), "argument %d to %q must be assignable (%s parameter): %s", i+1, n.Callee, p.Dir, reason)
				}
			}
		}
		return
	}
	if overloads := c.funcsByName[n.Callee]; len(overloads) > 0 {
		c.errorf(n.Pos, "no overload of %q matches argument types %s", n.Callee, typeListString(argTypes))
		return
	}
	c.errorf(n.Pos, "call to undeclared function %q", n.Callee)
}

func (c *checker) lookupStructType(name string) *Type {
	// Struct types in scope were declared via StructDecl nodes; search
	// globals' types and declared struct names through all scopes by
	// scanning variables is insufficient, so the checker records them.
	for i := len(c.structTypes) - 1; i >= 0; i-- {
		if t, ok := c.structTypes[i][name]; ok {
			return t
		}
	}
	return nil
}

func typeListString(ts []*Type) string {
	s := "("
	for i, t := range ts {
		if i > 0 {
			s += ", "
		}
		s += t.String()
	}
	return s + ")"
}

func callKey(name string, args []*Type) string {
	key := name + "("
	for i, t := range args {
		if i > 0 {
			key += ","
		}
		key += t.String()
	}
	return key + ")"
}

func constructorType(name string) *Type {
	switch name {
	case "float":
		return TypeFloat
	case "int":
		return TypeInt
	case "bool":
		return TypeBool
	case "vec2":
		return TypeVec2
	case "vec3":
		return TypeVec3
	case "vec4":
		return TypeVec4
	case "ivec2":
		return TypeIVec2
	case "ivec3":
		return TypeIVec3
	case "ivec4":
		return TypeIVec4
	case "bvec2":
		return TypeBVec2
	case "bvec3":
		return TypeBVec3
	case "bvec4":
		return TypeBVec4
	case "mat2":
		return TypeMat2
	case "mat3":
		return TypeMat3
	case "mat4":
		return TypeMat4
	}
	return nil
}

// checkConstructor validates constructor arguments per §5.4.
func (c *checker) checkConstructor(n *CallExpr, t *Type, argTypes []*Type) *Type {
	for _, at := range argTypes {
		if at.Kind == KInvalid {
			return TypeInvalid
		}
		if at.IsSampler() || at.Kind == KStruct || at.Kind == KArray || at.Kind == KVoid {
			c.errorf(n.Pos, "cannot use %s in a constructor", at)
			return TypeInvalid
		}
	}
	if t.IsScalar() {
		if len(argTypes) != 1 {
			c.errorf(n.Pos, "%s constructor takes exactly one argument", t)
			return TypeInvalid
		}
		// Scalar conversions accept any scalar/vector/matrix (first
		// component is used).
		return t
	}
	if t.IsVector() {
		need := t.VectorSize()
		if len(argTypes) == 1 && argTypes[0].IsScalar() {
			return t // splat
		}
		if len(argTypes) == 1 && argTypes[0].IsMatrix() {
			c.errorf(n.Pos, "cannot construct %s from a matrix in GLSL ES 1.00", t)
			return TypeInvalid
		}
		have := 0
		for _, at := range argTypes {
			have += at.ComponentCount()
		}
		if have < need {
			c.errorf(n.Pos, "too few components for %s constructor: have %d, need %d", t, have, need)
			return TypeInvalid
		}
		// Extra components are allowed only when the last argument is not
		// fully unused.
		haveBeforeLast := have - argTypes[len(argTypes)-1].ComponentCount()
		if haveBeforeLast >= need {
			c.errorf(n.Pos, "too many arguments for %s constructor", t)
			return TypeInvalid
		}
		return t
	}
	if t.IsMatrix() {
		dim := t.MatrixDim()
		if len(argTypes) == 1 && argTypes[0].IsScalar() {
			return t // diagonal
		}
		if len(argTypes) == 1 && argTypes[0].IsMatrix() {
			c.errorf(n.Pos, "constructing a matrix from a matrix is not available in GLSL ES 1.00")
			return TypeInvalid
		}
		need := dim * dim
		have := 0
		for _, at := range argTypes {
			if at.IsMatrix() {
				c.errorf(n.Pos, "matrix constructor arguments must be scalars or vectors")
				return TypeInvalid
			}
			have += at.ComponentCount()
		}
		if have != need {
			c.errorf(n.Pos, "%s constructor needs exactly %d components, have %d", t, need, have)
			return TypeInvalid
		}
		return t
	}
	c.errorf(n.Pos, "cannot construct values of type %s", t)
	return TypeInvalid
}

// ---- Recursion check ----

func (c *checker) checkNoRecursion() {
	// Build the call graph over defined functions. A call to a function
	// that is only ever declared cannot link.
	adj := map[*FuncDecl][]*FuncDecl{}
	var called []*FuncDecl
	for _, fd := range c.prog.Functions {
		if fd.Body == nil {
			continue
		}
		var callees []*FuncDecl
		collectCalls(fd.Body, &callees)
		adj[fd] = callees
		called = append(called, callees...)
	}
	for _, g := range c.prog.Globals {
		if g.Init != nil {
			collectCalls(g.Init, &called)
		}
	}
	undefined := map[*FuncDecl]bool{}
	for _, fd := range called {
		if fd.Body == nil && !undefined[fd] {
			undefined[fd] = true
			c.errorf(fd.Pos, "function %s is called but never defined", fd.signatureKey())
		}
	}
	const (
		unvisited = 0
		inStack   = 1
		done      = 2
	)
	state := map[*FuncDecl]int{}
	var visit func(fd *FuncDecl) bool
	visit = func(fd *FuncDecl) bool {
		switch state[fd] {
		case inStack:
			return false
		case done:
			return true
		}
		state[fd] = inStack
		for _, callee := range adj[fd] {
			if !visit(callee) {
				c.errorf(fd.Pos, "recursion detected involving function %q (forbidden by GLSL ES 1.00)", fd.Name)
				state[fd] = done
				return true // report once
			}
		}
		state[fd] = done
		return true
	}
	for fd := range adj {
		visit(fd)
	}
}

func collectCalls(n Node, out *[]*FuncDecl) {
	switch x := n.(type) {
	case *BlockStmt:
		for _, s := range x.Stmts {
			collectCalls(s, out)
		}
	case *DeclStmt:
		for _, v := range x.Vars {
			if v.Init != nil {
				collectCalls(v.Init, out)
			}
		}
	case *ExprStmt:
		collectCalls(x.X, out)
	case *IfStmt:
		collectCalls(x.Cond, out)
		collectCalls(x.Then, out)
		if x.Else != nil {
			collectCalls(x.Else, out)
		}
	case *ForStmt:
		if x.InitStmt != nil {
			collectCalls(x.InitStmt, out)
		}
		if x.Cond != nil {
			collectCalls(x.Cond, out)
		}
		if x.Post != nil {
			collectCalls(x.Post, out)
		}
		collectCalls(x.Body, out)
	case *WhileStmt:
		collectCalls(x.Cond, out)
		collectCalls(x.Body, out)
	case *DoWhileStmt:
		collectCalls(x.Body, out)
		collectCalls(x.Cond, out)
	case *ReturnStmt:
		if x.X != nil {
			collectCalls(x.X, out)
		}
	case *BinaryExpr:
		collectCalls(x.X, out)
		collectCalls(x.Y, out)
	case *UnaryExpr:
		collectCalls(x.X, out)
	case *CondExpr:
		collectCalls(x.Cond, out)
		collectCalls(x.Then, out)
		collectCalls(x.Else, out)
	case *AssignExpr:
		collectCalls(x.LHS, out)
		collectCalls(x.RHS, out)
	case *SequenceExpr:
		collectCalls(x.X, out)
		collectCalls(x.Y, out)
	case *CallExpr:
		if x.Kind == CallUser && x.Func != nil {
			*out = append(*out, x.Func)
		}
		for _, a := range x.Args {
			collectCalls(a, out)
		}
	case *FieldExpr:
		collectCalls(x.X, out)
	case *IndexExpr:
		collectCalls(x.X, out)
		collectCalls(x.Index, out)
	}
}
