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
	"glescompute/internal/nn"
	"glescompute/internal/sched"
	"glescompute/internal/shader"
)

// lenet-serve: an open loop of single-image int8 LeNet inferences through
// nn.Service with continuous batching, on a 2-device queue with one
// raster worker per device.
const (
	lenetRate        = 6.0 // requests/s
	lenetDevices     = 2
	lenetBucket      = 8                     // continuous-batching bucket cap and queue MaxBatch
	lenetWindow      = 10 * time.Millisecond // queue BatchWindow
	lenetLimit       = 500 * time.Millisecond
	lenetMaxInflight = 30 // 10× rate·limit
	lenetImages      = 16 // distinct images the requests draw from
	lenetModelSeed   = 1  // the served model's weights; the run seed varies inputs only
)

// lenetBuckets are the batch sizes continuous batching runs at.
var lenetBuckets = []int{1, 2, 4, 8}

// lenetInputs are the seeded images, their solo batch-1 reference
// outputs, the arrival schedule and which image each arrival carries.
type lenetInputs struct {
	images [][]int8
	want   [][]int8
	due    []time.Duration
	pick   []int
}

func newLenetInputs(seed int64, window time.Duration) (*lenetInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	all := nn.DemoInputInt8(seed, lenetImages)
	n := nn.DemoShape.N()
	in := &lenetInputs{}
	for k := 0; k < lenetImages; k++ {
		in.images = append(in.images, all[k*n:(k+1)*n:(k+1)*n])
	}
	in.due = poissonSchedule(rng, lenetRate, window)
	in.pick = make([]int, len(in.due))
	for i := range in.pick {
		in.pick[i] = rng.Intn(lenetImages)
	}
	var err error
	in.want, err = lenetReference(in.images)
	return in, err
}

// lenetReference runs every image alone through a batch-1 network on a
// device of its own: the outputs served requests must match bit for bit.
func lenetReference(images [][]int8) ([][]int8, error) {
	cc, err := memCache()
	if err != nil {
		return nil, err
	}
	dev, err := core.Open(core.Config{Exec: pinnedExec(1), CompileCache: cc})
	if err != nil {
		return nil, err
	}
	defer dev.Close()
	net, err := nn.DemoLeNetInt8(lenetModelSeed).Build(dev, 1, false)
	if err != nil {
		return nil, err
	}
	defer net.Close()
	want := make([][]int8, len(images))
	for k, img := range images {
		res, err := net.Run(img)
		if err != nil {
			return nil, err
		}
		out, ok := res.Output.([]int8)
		if !ok {
			return nil, fmt.Errorf("reference output is %T, want []int8", res.Output)
		}
		want[k] = out
	}
	return want, nil
}

// lenetCheck reports whether an output equals the concatenated references.
func lenetCheck(out interface{}, want ...[]int8) bool {
	got, ok := out.([]int8)
	return ok && slices.Equal(got, slices.Concat(want...))
}

// lenetRig is the serving stack: queue and inference service.
type lenetRig struct {
	q   *sched.Queue
	svc *nn.Service
}

func (r *lenetRig) close() {
	r.q.Close()
	r.svc.Close()
}

// openLenet opens the pool and the service and builds the network of
// every bucket on every device, checking each warm-up output.
func openLenet(in *lenetInputs) (*lenetRig, error) {
	cc, err := memCache()
	if err != nil {
		return nil, err
	}
	q, err := sched.OpenQueue(sched.Config{
		Devices:     lenetDevices,
		Device:      core.Config{Exec: pinnedExec(1), CompileCache: cc},
		Exec:        pinnedExec(1),
		MaxPending:  1024,
		MaxBatch:    lenetBucket,
		BatchWindow: lenetWindow,
	})
	if err != nil {
		return nil, err
	}
	svc, err := nn.NewService(nn.DemoLeNetInt8(lenetModelSeed), q)
	if err != nil {
		q.Close()
		return nil, err
	}
	svc.SetContinuousBatching(lenetBucket)
	r := &lenetRig{q: q, svc: svc}
	if err := r.warm(in); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// warm sends one request of each bucket size at a time until every device
// has run it: an idle pool assigns them round-robin, and a device builds
// a bucket's network on first use.
func (r *lenetRig) warm(in *lenetInputs) error {
	for _, b := range lenetBuckets {
		batch := slices.Concat(in.images[:b]...)
		seen := map[int]bool{}
		for try := 0; len(seen) < lenetDevices; try++ {
			if try >= 4*lenetDevices {
				return fmt.Errorf("warm-up reached %d of %d devices at batch %d", len(seen), lenetDevices, b)
			}
			job, err := r.svc.InferBatch(context.Background(), batch, b)
			if err != nil {
				return err
			}
			res, err := job.Wait(context.Background())
			if err != nil {
				return err
			}
			if !lenetCheck(res.Output, in.want[:b]...) {
				return fmt.Errorf("warm-up output at batch %d differs from the solo reference", b)
			}
			seen[res.Stats.Device] = true
		}
	}
	return nil
}

func (in *lenetInputs) loop(r *lenetRig, tr *tracer, window time.Duration) *openLoop {
	return &openLoop{
		due:        in.due,
		window:     window,
		tr:         tr,
		submitName: "Service.Infer",
		submit: func(i int) (*sched.Job, error) {
			return r.svc.Infer(context.Background(), in.images[in.pick[i]])
		},
		check: func(i int, out interface{}) bool { return lenetCheck(out, in.want[in.pick[i]]) },
	}
}

func runLenet(opts options) (*outcome, error) {
	in, err := newLenetInputs(opts.seed, opts.seconds)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	s := serveRun{devices: lenetDevices, limit: lenetLimit, maxInflight: lenetMaxInflight, label: "lenet-serve"}
	if !opts.trace {
		r, setupS, err := setupMedian(func() (*lenetRig, error) { return openLenet(in) }, (*lenetRig).close)
		if err != nil {
			return nil, err
		}
		defer r.close()
		return o, s.untraced(o, setupS, r.q, in.loop(r, nil, opts.seconds))
	}

	r, err := openLenet(in)
	if err != nil {
		return nil, err
	}
	defer r.close()
	tr := newTracer(true)
	p, l, err := s.traced(o, r.q, func(t *tracer) *openLoop { return in.loop(r, t, opts.seconds) }, tr)
	if err != nil {
		return nil, err
	}
	l.setSpanP50("nn.infer_submit_us_p50", tr, "Service.Infer", time.Microsecond)
	// Continuous batching pads a launch of n requests to the next power
	// of two: fill is real rows over padded rows.
	var real, padded float64
	for _, rec := range p.run.recs {
		if n := rec.stats.BatchSize; n > 0 {
			real++
			padded += float64(nextPow2(n)) / float64(n)
		}
	}
	l.set("nn.bucket_fill_pct", pct(real, padded))
	if err := lenetDirect(o, l, tr, in); err != nil {
		return nil, err
	}
	path := filepath.Join(opts.outdir, fmt.Sprintf("loadbench-trace-lenet-serve-%d.json", opts.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	noteSpans(o, tr, path)
	l.emit(o)
	return o, nil
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// lenetDirect replays the served images through Network.Run at batch 1
// and batch 8 on a device of its own — the layers below the queue, which
// serving hides — pricing every run exactly, and times the host codec on
// the same images.
func lenetDirect(o *outcome, l layers, tr *tracer, in *lenetInputs) error {
	cc, err := memCache()
	if err != nil {
		return err
	}
	dev, err := core.Open(core.Config{Exec: pinnedExec(1), CompileCache: cc})
	if err != nil {
		return err
	}
	defer dev.Close()

	// A network is ready once built and run once: the first Run plans and
	// compiles the fused passes. nn.build_ms is that time over every
	// bucket, the network set-up one pool device pays.
	model := nn.DemoLeNetInt8(lenetModelSeed)
	nets := map[int]*nn.Network{}
	var build time.Duration
	for _, b := range lenetBuckets {
		batch := slices.Concat(in.images[:b]...)
		t := time.Now()
		err := tr.timed("Model.Build", noSpan, int64(b), func() (err error) {
			nets[b], err = model.Build(dev, b, false)
			return err
		})
		if err == nil {
			defer nets[b].Close()
			err = tr.timed("Network.Run", noSpan, int64(b), func() error {
				_, err := nets[b].Run(batch)
				return err
			})
		}
		build += time.Since(t)
		if err != nil {
			return err
		}
	}
	l.set("nn.build_ms", ms(build))
	compile := dev.Timeline().Compile

	// run executes one batch exactly priced (statistics reset before it),
	// checks it, and asserts that the same batch always prices the same.
	first := map[string]core.Timeline{}
	var runFrag shader.Stats
	var runHost time.Duration
	run := func(b, from int, req int64, reset bool) (time.Duration, *nn.Result, error) {
		if reset {
			dev.ResetTimeline()
		}
		batch := slices.Concat(in.images[from : from+b]...)
		t := time.Now()
		var res *nn.Result
		err := tr.timed("Network.Run", noSpan, req, func() (err error) {
			res, err = nets[b].Run(batch)
			return err
		})
		d := time.Since(t)
		if err != nil {
			return 0, nil, err
		}
		o.attempted++
		if !lenetCheck(res.Output, in.want[from:from+b]...) {
			o.failed++
			o.wrong++
		}
		runFrag.AddStats(&res.Stats.Draw.FragmentStats)
		runHost += d
		if reset {
			key := fmt.Sprintf("batch %d from image %d", b, from)
			tl := dev.Timeline()
			if f, seen := first[key]; !seen {
				first[key] = tl
			} else if f != tl && o.exactMismatch == "" {
				o.exactMismatch = fmt.Sprintf("Network.Run %s modeled %v, earlier identical run %v", key, tl, f)
			}
		}
		return d, res, nil
	}

	var b1, b8 []float64
	var total core.Timeline
	var draws gles.DrawStats
	var up, down uint64
	var last *nn.Result
	for rep := 0; rep < 2; rep++ {
		for k := range in.images {
			d, res, err := run(1, k, int64(k), true)
			if err != nil {
				return err
			}
			b1 = append(b1, ms(d))
			tr := dev.GL().Transfers()
			total = total.Add(dev.Timeline())
			draws.Add(&res.Stats.Draw)
			up += tr.TexUploadBytes
			down += tr.ReadPixelsBytes
			last = res
		}
	}
	for rep := 0; rep < 4; rep++ {
		d, _, err := run(8, 8*(rep%2), int64(rep), true)
		if err != nil {
			return err
		}
		b8 = append(b8, ms(d))
	}
	// PipelineStats.Time prices a run as the difference of two truncated
	// conversions of the device's cumulative counters, so identical work
	// can read a nanosecond apart once the device has history; the exact
	// figures above reset the statistics first. Shown for the record.
	drift := map[time.Duration]bool{}
	for rep := 0; rep < 3; rep++ {
		_, res, err := run(8, 0, int64(rep), false)
		if err != nil {
			return err
		}
		drift[res.Stats.Time.Total()] = true
	}
	o.note("PipelineStats.Time of 3 identical batch-8 runs without a statistics reset, ns: %v", sortedDurations(drift))

	n := float64(len(b1))
	l.set("nn.run_ms_b1", quantile(b1, 0.5))
	l.set("nn.run_ms_b8", quantile(b8, 0.5))
	l.set("core.passes_per_op", float64(last.Stats.Passes))
	l.set("core.fused_stages_per_op", float64(last.Stats.FusedStages))
	l.set("core.host_bytes_per_op", float64(up+down)/n)
	l.set("shader.ops_per_host_s", ratio(float64(runFrag.TotalOps()), runHost.Seconds()))
	l.setModeled(dev.GPUModel(), total, len(b1), draws.FragmentStats, compile)

	// Host codec cost on the served images: the scalar int8 encode and
	// decode of each image.
	n8 := nn.DemoShape.N()
	texels := make([][]byte, lenetImages)
	for k, img := range in.images {
		texels[k] = make([]byte, 4*n8)
		if err := codec.PackInt8(texels[k], img); err != nil {
			return err
		}
	}
	scratch := make([]byte, 4*n8)
	dst := make([]int8, n8)
	round := 0
	return codecLayer(l, tr, 1024, func() (int, error) {
		return n8, codec.PackInt8(scratch, in.images[round%lenetImages])
	}, func() (int, error) {
		k := round % lenetImages
		round++
		return n8, codec.UnpackInt8(dst, texels[k])
	})
}

func sortedDurations(set map[time.Duration]bool) []int64 {
	var out []int64
	for d := range set {
		out = append(out, int64(d))
	}
	slices.Sort(out)
	return out
}
