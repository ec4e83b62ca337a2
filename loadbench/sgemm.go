package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/gles"
	"glescompute/internal/refcpu"
)

// sgemm-float: one app thread calls a float32 N=32 sgemm synchronously on
// one device — upload A and B, Kernel.Run, read back — in a closed loop.
const (
	sgemmN     = 32
	sgemmPairs = 8 // distinct (A, B) pairs the loop cycles through
	// sgemmLimit is the latency limit of one call (≈4× its usual host
	// time on a 2-CPU host).
	sgemmLimit = 250 * time.Millisecond
	// sgemmTol is the relative tolerance internal/paper validates float
	// sgemm with: dot products of decoded inputs accumulate codec error.
	sgemmTol = 1.0 / (1 << 11)
)

// sgemmSource is the paper's T1.4 kernel (internal/paper's sgemmSource).
const sgemmSource = `
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
`

var sgemmSpec = core.KernelSpec{
	Name:     "sgemm",
	Inputs:   []core.Param{{Name: "a", Type: codec.Float32}, {Name: "b", Type: codec.Float32}},
	Outputs:  []core.OutputSpec{{Name: "out", Type: codec.Float32}},
	Uniforms: []string{"u_n"},
	Source:   sgemmSource,
}

// sgemmInputs are the seeded operand pairs and their CPU references.
type sgemmInputs struct {
	a, b, want [][]float32
}

func newSgemmInputs(seed int64) sgemmInputs {
	rng := rand.New(rand.NewSource(seed))
	var in sgemmInputs
	for p := 0; p < sgemmPairs; p++ {
		a := make([]float32, sgemmN*sgemmN)
		b := make([]float32, sgemmN*sgemmN)
		for i := range a {
			a[i] = rng.Float32()
			b[i] = rng.Float32()
		}
		want, _ := refcpu.SgemmFloat32(a, b, sgemmN)
		in.a, in.b, in.want = append(in.a, a), append(in.b, b), append(in.want, want)
	}
	return in
}

// sgemmWithin reports whether got matches want within sgemmTol relative
// error (relative to max(|want|, 1)).
func sgemmWithin(got, want []float32) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		rel := math.Abs(float64(got[i]-want[i])) / math.Max(math.Abs(float64(want[i])), 1)
		if !(rel <= sgemmTol) {
			return false
		}
	}
	return true
}

// sgemmRig is one opened device with the kernel built and buffers ready.
type sgemmRig struct {
	dev        *core.Device
	k          *core.Kernel
	a, b, out  *core.Buffer
	buildTime  time.Duration // host time of BuildKernel
	compileTL  core.Timeline // modeled timeline of the build
	cacheStats core.CompileCacheStats
}

func openSgemm(tr *tracer, in sgemmInputs) (*sgemmRig, error) {
	cc, err := memCache()
	if err != nil {
		return nil, err
	}
	dev, err := core.Open(core.Config{Exec: pinnedExec(runtime.NumCPU()), CompileCache: cc})
	if err != nil {
		return nil, err
	}
	r := &sgemmRig{dev: dev}
	t := time.Now()
	err = tr.timed("Device.BuildKernel", noSpan, -1, func() (err error) {
		r.k, err = dev.BuildKernel(sgemmSpec)
		return err
	})
	r.buildTime = time.Since(t)
	r.compileTL = dev.Timeline()
	if err == nil {
		r.a, err = dev.NewMatrixBuffer(codec.Float32, sgemmN)
	}
	if err == nil {
		r.b, err = dev.NewMatrixBuffer(codec.Float32, sgemmN)
	}
	if err == nil {
		r.out, err = dev.NewMatrixBuffer(codec.Float32, sgemmN)
	}
	if err == nil {
		// One checked call, so lazy first-use work lands in set-up.
		var got []float32
		if got, _, _, err = r.op(nil, -1, in.a[0], in.b[0]); err == nil && !sgemmWithin(got, in.want[0]) {
			err = fmt.Errorf("warm-up sgemm output is wrong")
		}
	}
	r.cacheStats = cc.Stats()
	if err != nil {
		dev.Close()
		return nil, err
	}
	return r, nil
}

func (r *sgemmRig) close() { r.dev.Close() }

// op is one user call: upload both operands, run, read back. It returns
// the output, the call's host time, and its exact GL counters (the device
// statistics are reset just before the call).
func (r *sgemmRig) op(tr *tracer, req int64, a, b []float32) ([]float32, time.Duration, core.RunStats, error) {
	r.dev.ResetTimeline()
	root := tr.begin("op", noSpan, req)
	t := time.Now()
	var rs core.RunStats
	var got []float32
	err := tr.timed("Buffer.WriteFloat32", root, req, func() error { return r.a.WriteFloat32(a) })
	if err == nil {
		err = tr.timed("Buffer.WriteFloat32", root, req, func() error { return r.b.WriteFloat32(b) })
	}
	if err == nil {
		err = tr.timed("Kernel.Run", root, req, func() (err error) {
			rs, err = r.k.Run1(r.out, []*core.Buffer{r.a, r.b}, map[string]float32{"u_n": sgemmN})
			return err
		})
	}
	if err == nil {
		err = tr.timed("Buffer.ReadFloat32", root, req, func() (err error) {
			got, err = r.out.ReadFloat32()
			return err
		})
	}
	lat := time.Since(t)
	tr.end(root)
	return got, lat, rs, err
}

// sgemmOpCounters are one call's exact modeled and counted figures.
type sgemmOpCounters struct {
	tl    core.Timeline
	draws gles.DrawStats
	tr    gles.TransferStats
}

// sgemmPass is one measured closed-loop pass.
type sgemmPass struct {
	figs figures
	// pair holds the exact counters of each operand pair's calls. The
	// operands steer a few ops of the in-shader float encode, so pairs
	// may count differently; calls on the same pair must not.
	pair      [sgemmPairs]sgemmOpCounters
	mismatch  string
	ops       int
	fragOps   float64       // fragment shader ops of all calls
	kernelRun time.Duration // host time inside Kernel.Run (traced passes)
}

// sum adds up one call per operand pair: divided by sgemmPairs, the
// per-call figures.
func (p *sgemmPass) sum() sgemmOpCounters {
	var s sgemmOpCounters
	for _, c := range p.pair {
		s.tl = s.tl.Add(c.tl)
		s.draws.Add(&c.draws)
		s.tr.TexUploadBytes += c.tr.TexUploadBytes
		s.tr.ReadPixelsBytes += c.tr.ReadPixelsBytes
	}
	return s
}

// loop calls the kernel back to back for d, checking every output and
// asserting that every call on the same operand pair has exactly the
// same counters and modeled timeline.
func (r *sgemmRig) loop(tr *tracer, in sgemmInputs, d time.Duration) (*sgemmPass, error) {
	p := &sgemmPass{}
	var lat []float64
	var inCalls time.Duration
	var sim float64
	met := 0
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		k := i % sgemmPairs
		got, l, rs, err := r.op(tr, int64(i), in.a[k], in.b[k])
		if err != nil {
			return nil, fmt.Errorf("sgemm call %d: %w", i, err)
		}
		c := sgemmOpCounters{tl: r.dev.Timeline(), draws: r.dev.GL().Draws(), tr: r.dev.GL().Transfers()}
		p.figs.attempted++
		if !sgemmWithin(got, in.want[k]) {
			p.figs.failed++
			p.figs.wrong++
		} else {
			p.figs.ok++
			lat = append(lat, ms(l))
			if l <= sgemmLimit {
				met++
			}
		}
		inCalls += l
		sim += simOps(&rs.Draw)
		p.fragOps += float64(rs.Draw.FragmentStats.TotalOps())
		if i < sgemmPairs {
			p.pair[k] = c
		} else if c != p.pair[k] && p.mismatch == "" {
			p.mismatch = fmt.Sprintf("sgemm call %d on operand pair %d: modeled %v, counters %+v; earlier call on the pair: %v, %+v",
				i, k, c.tl, c.draws.FragmentStats, p.pair[k].tl, p.pair[k].draws.FragmentStats)
		}
	}
	elapsed := time.Since(start)
	p.ops = p.figs.attempted
	if p.ops < sgemmPairs {
		return nil, fmt.Errorf("only %d sgemm calls in %v; need one per operand pair", p.ops, d)
	}
	f := &p.figs
	f.p50, f.p95, f.p99 = quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99)
	f.sloMetPct = pct(float64(met), float64(f.attempted))
	f.okPct = pct(float64(f.ok), float64(f.attempted))
	f.opsPerS = float64(f.ok) / elapsed.Seconds()
	f.simOpsPerS = sim / inCalls.Seconds()
	p.kernelRun = spanTotal(tr, "Kernel.Run")
	return p, nil
}

func runSgemm(opts options) (*outcome, error) {
	in := newSgemmInputs(opts.seed)
	o := &outcome{}
	if !opts.trace {
		r, setupS, err := setupMedian(func() (*sgemmRig, error) { return openSgemm(nil, in) }, (*sgemmRig).close)
		if err != nil {
			return nil, err
		}
		defer r.close()
		p, err := r.loop(nil, in, opts.seconds)
		if err != nil {
			return nil, err
		}
		p.figs.tally(o)
		o.exactMismatch = p.mismatch
		p.figs.endToEnd(o, setupS)
		p.figs.noteFigures(o, "sgemm-float", sgemmLimit)
		o.note("modeled_us_per_op=%.3f vc4_us (exact, the mean over the %d operand pairs; every call on a pair priced the same)",
			us(p.sum().tl.Total())/sgemmPairs, sgemmPairs)
		return o, nil
	}

	tr := newTracer(true)
	r, err := openSgemm(tr, in)
	if err != nil {
		return nil, err
	}
	defer r.close()
	untraced, err := r.loop(nil, in, opts.seconds)
	if err != nil {
		return nil, err
	}
	h0 := sampleHost()
	traced, err := r.loop(tr, in, opts.seconds)
	if err != nil {
		return nil, err
	}
	h1 := sampleHost()
	for _, p := range []*sgemmPass{untraced, traced} {
		p.figs.tally(o)
		if p.mismatch != "" {
			o.exactMismatch = p.mismatch
		}
	}
	if untraced.pair != traced.pair && o.exactMismatch == "" {
		o.exactMismatch = "sgemm modeled figures differ between the untraced and traced passes"
	}

	l := layers{}
	l.set("core.build_kernel_ms", ms(r.buildTime))
	l.setSpanP50("core.kernel_run_ms_p50", tr, "Kernel.Run", time.Millisecond)
	l.setSpanP50("core.buffer_write_us_p50", tr, "Buffer.WriteFloat32", time.Microsecond)
	l.setSpanP50("core.buffer_read_us_p50", tr, "Buffer.ReadFloat32", time.Microsecond)
	c := traced.sum()
	l.set("core.passes_per_op", float64(c.draws.DrawCalls)/sgemmPairs)
	l.set("core.host_bytes_per_op", float64(c.tr.TexUploadBytes+c.tr.ReadPixelsBytes)/sgemmPairs)
	l.set("core.compile_cache_hits", float64(r.cacheStats.Hits()))
	l.setDraws(&c.draws, c.tr.TexUploadBytes, c.tr.ReadPixelsBytes, sgemmPairs)
	l.set("shader.ops_per_host_s", ratio(traced.fragOps, traced.kernelRun.Seconds()))
	l.setModeled(r.dev.GPUModel(), c.tl, sgemmPairs, c.draws.FragmentStats, r.compileTL.Compile)
	l.setHost(h0, h1, traced.ops)
	l.setOverhead(o, untraced.figs, traced.figs)

	// Host codec cost on the same operands: the encode Buffer.WriteFloat32
	// performs and the decode ReadFloat32 performs.
	texels := make([]byte, 4*sgemmN*sgemmN)
	outBytes := make([]byte, 4*sgemmN*sgemmN)
	if err := codec.PackFloat32(outBytes, in.want[0]); err != nil {
		return nil, err
	}
	dst := make([]float32, sgemmN*sgemmN)
	round := 0
	if err := codecLayer(l, tr, 400, func() (int, error) {
		k := round % sgemmPairs
		round++
		if err := codec.PackFloat32(texels, in.a[k]); err != nil {
			return 0, err
		}
		return len(in.a[k]) + len(in.b[k]), codec.PackFloat32(texels, in.b[k])
	}, func() (int, error) {
		return len(dst), codec.UnpackFloat32(dst, outBytes)
	}); err != nil {
		return nil, err
	}

	path := filepath.Join(opts.outdir, fmt.Sprintf("loadbench-trace-sgemm-float-%d.json", opts.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	noteSpans(o, tr, path)
	l.emit(o)
	return o, nil
}
