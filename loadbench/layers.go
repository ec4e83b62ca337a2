package main

import (
	"fmt"
	"runtime"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/gles"
	"glescompute/internal/shader"
	"glescompute/internal/vc4"
)

// layerMetrics lists every per-layer metric in report order, with its
// unit. A traced run prints all of them; a layer the workload bypasses
// (sched and nn on sgemm-float, say) reads 0. Modeled VideoCore times
// carry the unit vc4_us to keep them apart from host microseconds.
var layerMetrics = []struct{ name, unit string }{
	{"sched.submit_us_p50", "us"},
	{"sched.queue_wait_ms_p50", "ms"},
	{"sched.queue_wait_ms_p95", "ms"},
	{"sched.service_ms_p50", "ms"},
	{"sched.jobs_per_launch", "count"},
	{"sched.device_busy_pct", "%"},
	{"sched.max_pending", "count"},
	{"sched.failed", "count"},
	{"sched.shed", "count"},
	{"sched.retries", "count"},
	{"nn.infer_submit_us_p50", "us"},
	{"nn.run_ms_b1", "ms"},
	{"nn.run_ms_b8", "ms"},
	{"nn.bucket_fill_pct", "%"},
	{"nn.build_ms", "ms"},
	{"core.build_kernel_ms", "ms"},
	{"core.kernel_run_ms_p50", "ms"},
	{"core.buffer_write_us_p50", "us"},
	{"core.buffer_read_us_p50", "us"},
	{"core.passes_per_op", "count"},
	{"core.fused_stages_per_op", "count"},
	{"core.host_bytes_per_op", "B"},
	{"core.compile_cache_hits", "count"},
	{"codec.pack_ns_per_elem", "ns"},
	{"codec.unpack_ns_per_elem", "ns"},
	{"gles.draw_calls_per_op", "count"},
	{"gles.frags_shaded_per_op", "count"},
	{"gles.upload_bytes_per_op", "B"},
	{"gles.readback_bytes_per_op", "B"},
	{"shader.ops_per_op", "count"},
	{"shader.tex_per_op", "count"},
	{"shader.sfu_per_op", "count"},
	{"shader.alu_per_op", "count"},
	{"shader.ops_per_host_s", "1/s"},
	{"vc4.modeled_us_per_op", "vc4_us"},
	{"vc4.exec_us_per_op", "vc4_us"},
	{"vc4.upload_us_per_op", "vc4_us"},
	{"vc4.readback_us_per_op", "vc4_us"},
	{"vc4.compile_us", "vc4_us"},
	{"vc4.alu_share_pct", "%"},
	{"vc4.tmu_share_pct", "%"},
	{"vc4.sfu_share_pct", "%"},
	{"host.alloc_bytes_per_op", "B"},
	{"host.gc_cpu_pct", "%"},
	{"trace.overhead_latency_p50_pct", "%"},
	{"trace.overhead_ops_per_s_pct", "%"},
}

// layers collects a traced run's per-layer values by name.
type layers map[string]float64

func (l layers) set(name string, v float64) { l[name] = v }

// emit appends every per-layer metric to the outcome, 0 for those the
// workload did not set. Setting a name the list does not know is a bug.
func (l layers) emit(o *outcome) {
	known := map[string]bool{}
	for _, m := range layerMetrics {
		known[m.name] = true
		o.add(m.name, l[m.name], m.unit)
	}
	for name := range l {
		if !known[name] {
			panic("loadbench: unlisted per-layer metric " + name)
		}
	}
}

// setDraws records the gles and shader per-op counts of ops operations
// that together drew d and moved up/down bytes.
func (l layers) setDraws(d *gles.DrawStats, up, down uint64, ops int) {
	n := float64(ops)
	f, v := &d.FragmentStats, &d.VertexStats
	l.set("gles.draw_calls_per_op", ratio(float64(d.DrawCalls), n))
	l.set("gles.frags_shaded_per_op", ratio(float64(d.FragmentsShaded), n))
	l.set("gles.upload_bytes_per_op", ratio(float64(up), n))
	l.set("gles.readback_bytes_per_op", ratio(float64(down), n))
	l.set("shader.ops_per_op", ratio(simOps(d), n))
	l.set("shader.tex_per_op", ratio(float64(f.Tex+v.Tex), n))
	l.set("shader.sfu_per_op", ratio(float64(f.SFU+v.SFU), n))
	l.set("shader.alu_per_op", ratio(float64(f.ALUOps()+v.ALUOps()), n))
}

// setModeled records the vc4 per-op figures of ops operations from the sum
// of their exact timelines (each taken between Device.ResetTimeline and
// Device.Timeline) and their fragment work, plus the modeled compile time
// of the workload's kernels. Each share prices one kind of shader op
// alone with the model.
func (l layers) setModeled(m *vc4.Model, tl core.Timeline, ops int, frag shader.Stats, compile time.Duration) {
	n := float64(ops)
	l.set("vc4.modeled_us_per_op", us(tl.Total())/n)
	l.set("vc4.exec_us_per_op", us(tl.Execute)/n)
	l.set("vc4.upload_us_per_op", us(tl.Upload)/n)
	l.set("vc4.readback_us_per_op", us(tl.Readback)/n)
	l.set("vc4.compile_us", us(compile))
	total := float64(m.ShaderTime(&frag))
	alu := shader.Stats{Add: frag.Add, Mul: frag.Mul, Cmp: frag.Cmp, Logic: frag.Logic, Mov: frag.Mov, Select: frag.Select}
	l.set("vc4.alu_share_pct", pct(float64(m.ShaderTime(&alu)), total))
	l.set("vc4.tmu_share_pct", pct(float64(m.ShaderTime(&shader.Stats{Tex: frag.Tex})), total))
	l.set("vc4.sfu_share_pct", pct(float64(m.ShaderTime(&shader.Stats{SFU: frag.SFU})), total))
}

// setOverhead records tracing overhead: the traced pass's end-to-end
// figures against the untraced pass of the same run.
func (l layers) setOverhead(o *outcome, untraced, traced figures) {
	l.set("trace.overhead_latency_p50_pct", pct(traced.p50-untraced.p50, untraced.p50))
	l.set("trace.overhead_ops_per_s_pct", pct(traced.opsPerS-untraced.opsPerS, untraced.opsPerS))
	o.note("tracing overhead: latency_p50_ms %.4g → %.4g, latency_p95_ms %.4g → %.4g, ops_per_s %.6g → %.6g, sim_ops_per_s %.6g → %.6g",
		untraced.p50, traced.p50, untraced.p95, traced.p95, untraced.opsPerS, traced.opsPerS, untraced.simOpsPerS, traced.simOpsPerS)
}

// setSpanP50 records the median length of the spans named span, in units
// of scale (time.Millisecond, time.Microsecond).
func (l layers) setSpanP50(name string, tr *tracer, span string, scale time.Duration) {
	ds := tr.durations(span)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(scale)
	}
	l.set(name, quantile(xs, 0.5))
}

// spanTotal sums the lengths of the named spans.
func spanTotal(tr *tracer, name string) time.Duration {
	var t time.Duration
	for _, d := range tr.durations(name) {
		t += d
	}
	return t
}

// noteSpans adds the traced run's per-span summary to the report: calls,
// total and self time per span name.
func noteSpans(o *outcome, tr *tracer, path string) {
	o.note("spans written to %s; per span name: calls, total ms, self ms", path)
	for _, s := range tr.summary() {
		o.note("  %-22s %8d %12.3f %12.3f", s.Name, s.Count, ms(s.Total), ms(s.Self))
	}
}

// codecLayer times the host codec on the workload's own data for rounds
// rounds: pack encodes the round's inputs into texel bytes, unpack decodes
// texel bytes, and each returns how many elements it handled.
func codecLayer(l layers, tr *tracer, rounds int, pack, unpack func() (int, error)) error {
	var packed, unpacked int
	for r := 0; r < rounds; r++ {
		var n int
		err := tr.timed("codec.Pack", noSpan, int64(r), func() (err error) {
			n, err = pack()
			return err
		})
		if err != nil {
			return fmt.Errorf("codec pack: %w", err)
		}
		packed += n
		err = tr.timed("codec.Unpack", noSpan, int64(r), func() (err error) {
			n, err = unpack()
			return err
		})
		if err != nil {
			return fmt.Errorf("codec unpack: %w", err)
		}
		unpacked += n
	}
	l.set("codec.pack_ns_per_elem", ratio(float64(spanTotal(tr, "codec.Pack")), float64(packed)))
	l.set("codec.unpack_ns_per_elem", ratio(float64(spanTotal(tr, "codec.Unpack")), float64(unpacked)))
	return nil
}

// subStats returns a − b field by field.
func subStats(a, b shader.Stats) shader.Stats {
	return shader.Stats{
		Add: a.Add - b.Add, Mul: a.Mul - b.Mul, Div: a.Div - b.Div, Cmp: a.Cmp - b.Cmp,
		Logic: a.Logic - b.Logic, Mov: a.Mov - b.Mov, Select: a.Select - b.Select,
		SFU: a.SFU - b.SFU, Tex: a.Tex - b.Tex, Branch: a.Branch - b.Branch,
		Call: a.Call - b.Call, Invocations: a.Invocations - b.Invocations,
	}
}

// pinnedExec is the execution config every device of the benchmark runs
// with, each field set explicitly so no environment default can leak in.
func pinnedExec(rasterWorkers int) core.ExecConfig {
	return core.ExecConfig{
		Fusion:         core.Enabled,
		Vec4Lanes:      4,
		RasterWorkers:  rasterWorkers,
		UseInterpreter: false,
	}
}

// memCache returns a fresh in-memory compile cache: kernels compile from
// source once per set-up, and nothing is read from or written to disk.
func memCache() (*core.CompileCache, error) {
	return core.NewCompileCache("")
}

// A run sets its workload up at least minSetups times, and again until
// setupBudget has been spent or maxSetups reached; setup_s is the median.
// The host's speed changes in phases of about a second, so a fast set-up
// repeats for a few seconds and its median spans several phases.
const (
	minSetups   = 3
	maxSetups   = 64
	setupBudget = 3 * time.Second
)

// setupMedian opens the workload repeatedly, closing all but the last
// set-up, and returns the last with the median set-up time in seconds.
func setupMedian[R any](open func() (R, error), closeFn func(R)) (R, float64, error) {
	var r R
	var ds []time.Duration
	var spent time.Duration
	for len(ds) < minSetups || (spent < setupBudget && len(ds) < maxSetups) {
		if len(ds) > 0 {
			closeFn(r)
		}
		// Start each set-up from a collected heap, so one set-up's garbage
		// is not charged to the next.
		runtime.GC()
		t := time.Now()
		var err error
		if r, err = open(); err != nil {
			return r, 0, err
		}
		d := time.Since(t)
		ds = append(ds, d)
		spent += d
	}
	return r, medianSeconds(ds), nil
}

// figures are the end-to-end figures of one measured pass.
type figures struct {
	attempted, ok, failed, wrong int
	p50, p95, p99                float64 // ms
	sloMetPct, okPct             float64
	opsPerS, simOpsPerS          float64
	genLagP99                    float64 // ms, open loops only
	backlog                      string
}

// endToEnd appends the end-to-end metrics every workload reports.
func (f figures) endToEnd(o *outcome, setupS float64) {
	o.add("setup_s", setupS, "s")
	o.add("ops_per_s", f.opsPerS, "ops/s")
	o.add("latency_p50_ms", f.p50, "ms")
	o.add("slo_met_pct", f.sloMetPct, "%")
	o.add("ok_pct", f.okPct, "%")
	o.add("sim_ops_per_s", f.simOpsPerS, "ops/s")
	o.add("peak_rss_mb", peakRSSMB(), "MB")
}

// tally folds the pass's op counts into the outcome.
func (f figures) tally(o *outcome) {
	o.attempted += f.attempted
	o.failed += f.failed
	o.wrong += f.wrong
	if f.backlog != "" && o.backlog == "" {
		o.backlog = f.backlog
	}
}

// noteFigures adds the figures the result line does not carry.
func (f figures) noteFigures(o *outcome, label string, limit time.Duration) {
	o.note("%s: attempted=%d ok=%d failed=%d (wrong outputs %d) failed_pct=%.4g latency_p95_ms=%.4g latency_p99_ms=%.4g limit=%v",
		label, f.attempted, f.ok, f.failed, f.wrong, pct(float64(f.failed), float64(f.attempted)), f.p95, f.p99, limit)
}
