package shader

// Stats counts scalar operations executed by the interpreter. The VideoCore
// IV QPU is a per-lane scalar machine (a vec4 add is four ALU instructions),
// so all counters are per scalar component. internal/vc4 converts these
// counts into modeled cycles.
type Stats struct {
	Add    uint64 // additions/subtractions
	Mul    uint64 // multiplications
	Div    uint64 // divisions (SFU reciprocal + Newton refinement on HW)
	Cmp    uint64 // comparisons
	Logic  uint64 // boolean logic ops
	Mov    uint64 // register moves (assignments, constructors, swizzles)
	Select uint64 // conditional selects (?:, mix-like patterns)
	SFU    uint64 // special function unit ops (exp2, log2, rsqrt, trig, ...)
	Tex    uint64 // texture fetches (TMU requests)
	Branch uint64 // control-flow decisions
	Call   uint64 // user function calls

	Invocations uint64 // shader invocations executed
}

// AddStats accumulates o into s.
func (s *Stats) AddStats(o *Stats) { s.addN(o, 1) }

// ALUOps returns the total plain-ALU operation count.
func (s *Stats) ALUOps() uint64 {
	return s.Add + s.Mul + s.Cmp + s.Logic + s.Mov + s.Select
}

// TotalOps returns every counted scalar operation.
func (s *Stats) TotalOps() uint64 {
	return s.ALUOps() + s.Div + s.SFU + s.Tex + s.Branch + s.Call
}

// Scale returns a copy of s with all counters multiplied by k. Used by the
// benchmark harness to extrapolate data-independent kernels to larger grids.
func (s *Stats) Scale(k float64) Stats {
	mul := func(v uint64) uint64 { return uint64(float64(v) * k) }
	return Stats{
		Add: mul(s.Add), Mul: mul(s.Mul), Div: mul(s.Div), Cmp: mul(s.Cmp),
		Logic: mul(s.Logic), Mov: mul(s.Mov), Select: mul(s.Select),
		SFU: mul(s.SFU), Tex: mul(s.Tex), Branch: mul(s.Branch),
		Call: mul(s.Call), Invocations: mul(s.Invocations),
	}
}

// addN accumulates k copies of o into s: one opStats block delta charged
// to each of k active lanes.
func (s *Stats) addN(o *Stats, k uint64) {
	s.Add += o.Add * k
	s.Mul += o.Mul * k
	s.Div += o.Div * k
	s.Cmp += o.Cmp * k
	s.Logic += o.Logic * k
	s.Mov += o.Mov * k
	s.Select += o.Select * k
	s.SFU += o.SFU * k
	s.Tex += o.Tex * k
	s.Branch += o.Branch * k
	s.Call += o.Call * k
	s.Invocations += o.Invocations * k
}
