package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/gles"
	"glescompute/internal/refcpu"
	"glescompute/internal/sched"
)

// tiny-jobs: an open loop of tiny kernel jobs on a 2-device queue. 15 of
// every 16 jobs are batchable int32 sums of tinySumN elements; every 16th
// is an 8×8 int32 sgemm, which runs solo.
const (
	tinyRate        = 1000.0 // jobs/s
	tinySumN        = 256
	tinySgemmN      = 8
	tinyDevices     = 2
	tinyMaxBatch    = 32
	tinyLimit       = 20 * time.Millisecond // the p99 latency limit
	tinyMaxInflight = 200                   // 10× rate·limit
	tinySums        = 64                    // distinct sum payloads
	tinySgemms      = 8                     // distinct sgemm payloads
)

var tinySumSpec = core.KernelSpec{
	Name:    "sum",
	Inputs:  []core.Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
	Outputs: []core.OutputSpec{{Name: "out", Type: codec.Int32}},
	Source:  `float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }`,
}

var tinySgemmSpec = core.KernelSpec{
	Name:     "sgemm8",
	Inputs:   []core.Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
	Outputs:  []core.OutputSpec{{Name: "out", Type: codec.Int32}},
	Uniforms: []string{"u_n"},
	Source: `float gc_kernel(float idx) {
	float row = floor((idx + 0.5) / u_n);
	float col = idx - row * u_n;
	float acc = 0.0;
	for (float k = 0.0; k < 64.0; k += 1.0) {
		if (k >= u_n) { break; }
		acc += gc_a_at(k, row) * gc_b_at(col, k);
	}
	return acc;
}`,
}

// tinyPayload is one distinct job's operands and reference output.
type tinyPayload struct {
	sgemm      bool
	a, b, want []int32
}

func (p *tinyPayload) spec() sched.JobSpec {
	if p.sgemm {
		return sched.JobSpec{
			Kernel:   tinySgemmSpec,
			In:       []sched.Input{sched.Int32s(p.a), sched.Int32s(p.b)},
			MatrixN:  tinySgemmN,
			Uniforms: map[string]float32{"u_n": tinySgemmN},
		}
	}
	return sched.JobSpec{
		Kernel:    tinySumSpec,
		In:        []sched.Input{sched.Int32s(p.a), sched.Int32s(p.b)},
		Batchable: true,
	}
}

// tinyInputs are the seeded payloads, the arrival schedule and which
// payload each arrival carries.
type tinyInputs struct {
	payloads []tinyPayload // sums first, then sgemms
	due      []time.Duration
	pick     []int
}

func newTinyInputs(seed int64, window time.Duration) tinyInputs {
	rng := rand.New(rand.NewSource(seed))
	var in tinyInputs
	for i := 0; i < tinySums; i++ {
		p := tinyPayload{a: make([]int32, tinySumN), b: make([]int32, tinySumN)}
		for k := range p.a {
			p.a[k] = int32(rng.Intn(1 << 22))
			p.b[k] = int32(rng.Intn(1 << 22))
		}
		p.want, _ = refcpu.SumInt32(p.a, p.b)
		in.payloads = append(in.payloads, p)
	}
	for i := 0; i < tinySgemms; i++ {
		m := tinySgemmN * tinySgemmN
		p := tinyPayload{sgemm: true, a: make([]int32, m), b: make([]int32, m)}
		for k := range p.a {
			p.a[k] = int32(rng.Intn(128) - 64)
			p.b[k] = int32(rng.Intn(128) - 64)
		}
		p.want, _ = refcpu.SgemmInt32(p.a, p.b, tinySgemmN)
		in.payloads = append(in.payloads, p)
	}
	in.due = poissonSchedule(rng, tinyRate, window)
	in.pick = make([]int, len(in.due))
	for i := range in.pick {
		if i%16 == 15 {
			in.pick[i] = tinySums + rng.Intn(tinySgemms)
		} else {
			in.pick[i] = rng.Intn(tinySums)
		}
	}
	return in
}

// tinyCheck reports whether a job's output equals the reference exactly.
func tinyCheck(out interface{}, want []int32) bool {
	got, ok := out.([]int32)
	return ok && slices.Equal(got, want)
}

// openTiny opens the pool and warms it: each device compiles both
// kernels, and a burst exercises the row-packed batch path.
func openTiny(in tinyInputs) (*sched.Queue, error) {
	cc, err := memCache()
	if err != nil {
		return nil, err
	}
	q, err := sched.OpenQueue(sched.Config{
		Devices:    tinyDevices,
		Device:     core.Config{Exec: pinnedExec(1), CompileCache: cc},
		Exec:       pinnedExec(1),
		MaxPending: 4096,
		MaxBatch:   tinyMaxBatch,
	})
	if err != nil {
		return nil, err
	}
	if err := warmTiny(q, in); err != nil {
		q.Close()
		return nil, err
	}
	return q, nil
}

func warmTiny(q *sched.Queue, in tinyInputs) error {
	run := func(ps []*tinyPayload) error {
		jobs := make([]*sched.Job, len(ps))
		for i, p := range ps {
			j, err := q.Submit(context.Background(), p.spec())
			if err != nil {
				return err
			}
			jobs[i] = j
		}
		for i, j := range jobs {
			res, err := j.Wait(context.Background())
			if err != nil {
				return err
			}
			if !tinyCheck(res.Output, ps[i].want) {
				return fmt.Errorf("warm-up job output is wrong")
			}
		}
		return nil
	}
	sum, sgemm := &in.payloads[0], &in.payloads[tinySums]
	// One at a time, an idle pool assigns round-robin: every device
	// compiles (or restores from the shared cache) both kernels.
	for d := 0; d < tinyDevices; d++ {
		if err := run([]*tinyPayload{sum}); err != nil {
			return err
		}
		if err := run([]*tinyPayload{sgemm}); err != nil {
			return err
		}
	}
	burst := make([]*tinyPayload, 4*tinyMaxBatch)
	for i := range burst {
		burst[i] = &in.payloads[i%tinySums]
	}
	return run(burst)
}

func (in *tinyInputs) loop(q *sched.Queue, tr *tracer, window time.Duration) *openLoop {
	return &openLoop{
		due:        in.due,
		window:     window,
		tr:         tr,
		submitName: "Queue.Submit",
		submit: func(i int) (*sched.Job, error) {
			return q.Submit(context.Background(), in.payloads[in.pick[i]].spec())
		},
		check: func(i int, out interface{}) bool { return tinyCheck(out, in.payloads[in.pick[i]].want) },
	}
}

func runTiny(opts options) (*outcome, error) {
	in := newTinyInputs(opts.seed, opts.seconds)
	o := &outcome{}
	s := serveRun{devices: tinyDevices, limit: tinyLimit, maxInflight: tinyMaxInflight, label: "tiny-jobs"}
	if !opts.trace {
		q, setupS, err := setupMedian(func() (*sched.Queue, error) { return openTiny(in) }, func(q *sched.Queue) { q.Close() })
		if err != nil {
			return nil, err
		}
		defer q.Close()
		return o, s.untraced(o, setupS, q, in.loop(q, nil, opts.seconds))
	}

	q, err := openTiny(in)
	if err != nil {
		return nil, err
	}
	defer q.Close()
	tr := newTracer(true)
	_, l, err := s.traced(o, q, func(t *tracer) *openLoop { return in.loop(q, t, opts.seconds) }, tr)
	if err != nil {
		return nil, err
	}
	l.setSpanP50("sched.submit_us_p50", tr, "Queue.Submit", time.Microsecond)
	if err := tinyDirect(o, l, tr, in); err != nil {
		return nil, err
	}
	path := filepath.Join(opts.outdir, fmt.Sprintf("loadbench-trace-tiny-jobs-%d.json", opts.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	noteSpans(o, tr, path)
	l.emit(o)
	return o, nil
}

// tinyDirect replays the job mix solo on a device of its own — the layers
// below the queue, which serving hides — pricing every op exactly, and
// times the host codec on the same operands.
func tinyDirect(o *outcome, l layers, tr *tracer, in tinyInputs) error {
	cc, err := memCache()
	if err != nil {
		return err
	}
	dev, err := core.Open(core.Config{Exec: pinnedExec(1), CompileCache: cc})
	if err != nil {
		return err
	}
	defer dev.Close()
	var builds []float64
	build := func(spec core.KernelSpec) (k *core.Kernel, err error) {
		t := time.Now()
		err = tr.timed("Device.BuildKernel", noSpan, -1, func() (err error) {
			k, err = dev.BuildKernel(spec)
			return err
		})
		builds = append(builds, ms(time.Since(t)))
		return k, err
	}
	sumK, err := build(tinySumSpec)
	if err != nil {
		return err
	}
	sgemmK, err := build(tinySgemmSpec)
	if err != nil {
		return err
	}
	compile := dev.Timeline().Compile
	l.set("core.build_kernel_ms", quantile(builds, 0.5))

	type rig struct {
		k         *core.Kernel
		a, b, out *core.Buffer
		uniforms  map[string]float32
	}
	newRig := func(k *core.Kernel, alloc func() (*core.Buffer, error), u map[string]float32) (*rig, error) {
		r := &rig{k: k, uniforms: u}
		for _, b := range []**core.Buffer{&r.a, &r.b, &r.out} {
			if *b, err = alloc(); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	sumR, err := newRig(sumK, func() (*core.Buffer, error) { return dev.NewBuffer(codec.Int32, tinySumN) }, nil)
	if err != nil {
		return err
	}
	sgemmR, err := newRig(sgemmK, func() (*core.Buffer, error) { return dev.NewMatrixBuffer(codec.Int32, tinySgemmN) },
		map[string]float32{"u_n": tinySgemmN})
	if err != nil {
		return err
	}

	// rounds × 16 ops in the served mix (15 sums, then one sgemm), each
	// priced exactly: statistics reset before the op, read after it. Each
	// payload recurs, so exactness is asserted per payload.
	const rounds = 16
	first := map[*tinyPayload]core.Timeline{}
	var total core.Timeline
	var draws gles.DrawStats
	var up, down uint64
	ops := 0
	for r := 0; r < rounds; r++ {
		for j := 0; j < 16; j++ {
			p, rg := &in.payloads[(r*15+j)%tinySums], sumR
			if j == 15 {
				p, rg = &in.payloads[tinySums+r%tinySgemms], sgemmR
			}
			req := int64(ops)
			var got []int32
			dev.ResetTimeline()
			root := tr.begin("op", noSpan, req)
			err := tr.timed("Buffer.WriteInt32", root, req, func() error { return rg.a.WriteInt32(p.a) })
			if err == nil {
				err = tr.timed("Buffer.WriteInt32", root, req, func() error { return rg.b.WriteInt32(p.b) })
			}
			if err == nil {
				err = tr.timed("Kernel.Run", root, req, func() error {
					_, err := rg.k.Run1(rg.out, []*core.Buffer{rg.a, rg.b}, rg.uniforms)
					return err
				})
			}
			if err == nil {
				err = tr.timed("Buffer.ReadInt32", root, req, func() (err error) {
					got, err = rg.out.ReadInt32()
					return err
				})
			}
			tr.end(root)
			if err != nil {
				return fmt.Errorf("direct op %d: %w", ops, err)
			}
			tl, d, t := dev.Timeline(), dev.GL().Draws(), dev.GL().Transfers()
			o.attempted++
			if !slices.Equal(got, p.want) {
				o.failed++
				o.wrong++
			}
			// The same payload must price the same every time (int32
			// operands steer the in-shader decode, so payloads differ).
			if f, seen := first[p]; !seen {
				first[p] = tl
			} else if f != tl && o.exactMismatch == "" {
				o.exactMismatch = fmt.Sprintf("direct op %d modeled %v, earlier op on the same payload %v", ops, tl, f)
			}
			total = total.Add(tl)
			draws.Add(&d)
			up += t.TexUploadBytes
			down += t.ReadPixelsBytes
			ops++
		}
	}
	l.set("core.passes_per_op", ratio(float64(draws.DrawCalls), float64(ops)))
	l.set("core.host_bytes_per_op", ratio(float64(up+down), float64(ops)))
	l.setSpanP50("core.kernel_run_ms_p50", tr, "Kernel.Run", time.Millisecond)
	l.setSpanP50("core.buffer_write_us_p50", tr, "Buffer.WriteInt32", time.Microsecond)
	l.setSpanP50("core.buffer_read_us_p50", tr, "Buffer.ReadInt32", time.Microsecond)
	l.set("shader.ops_per_host_s", ratio(float64(draws.FragmentStats.TotalOps()), spanTotal(tr, "Kernel.Run").Seconds()))
	l.setModeled(dev.GPUModel(), total, ops, draws.FragmentStats, compile)

	// Host codec cost on the served operands: the encode Buffer.WriteInt32
	// performs on both inputs and the decode ReadInt32 performs on the
	// output.
	outBytes := make([][]byte, tinySums)
	for k := range outBytes {
		outBytes[k] = make([]byte, 4*tinySumN)
		if err := codec.PackInt32(outBytes[k], in.payloads[k].want); err != nil {
			return err
		}
	}
	texels := make([]byte, 4*tinySumN)
	dst := make([]int32, tinySumN)
	round := 0
	return codecLayer(l, tr, 1024, func() (int, error) {
		p := &in.payloads[round%tinySums]
		if err := codec.PackInt32(texels, p.a); err != nil {
			return 0, err
		}
		return 2 * tinySumN, codec.PackInt32(texels, p.b)
	}, func() (int, error) {
		k := round % tinySums
		round++
		return len(dst), codec.UnpackInt32(dst, outBytes[k])
	})
}
