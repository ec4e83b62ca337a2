package main

import (
	"time"

	"glescompute/internal/sched"
)

// servePass is one measured open-loop pass of a serving workload.
type servePass struct {
	figs  figures
	run   *openLoopRun
	stats sched.QueueStats // queue counters of the pass alone
	pool  poolCounters     // device counters of the pass alone
}

// measureServe resets the queue's statistics, runs the open loop and
// reduces it. sim_ops_per_s divides the simulated shader work by the host
// time the pool's devices spent executing launches.
func measureServe(q *sched.Queue, devices int, l *openLoop, limit time.Duration, maxInflight int) (*servePass, error) {
	q.ResetStats()
	before, err := readPool(q, devices)
	if err != nil {
		return nil, err
	}
	run, err := l.run()
	if err != nil {
		return nil, err
	}
	p := &servePass{run: run, stats: q.Stats()}
	after, err := readPool(q, devices)
	if err != nil {
		return nil, err
	}
	p.pool = after.since(before)
	p.figs = run.figures(limit, l.window, maxInflight)
	p.figs.simOpsPerS = ratio(simOps(&p.pool.draws), p.pool.busyWall.Seconds())
	return p, nil
}

// setSched records the sched layer: per-job queue wait and service time
// from JobStats, launches from batch sizes, and the queue's own counters.
func (p *servePass) setSched(l layers, devices int) {
	var wait, svc []float64
	var launches float64
	for _, rec := range p.run.recs {
		if rec.status == opRefused || rec.stats.BatchSize == 0 {
			continue
		}
		wait = append(wait, ms(rec.stats.QueueWait))
		svc = append(svc, ms(rec.stats.Service))
		launches += 1 / float64(rec.stats.BatchSize)
	}
	l.set("sched.queue_wait_ms_p50", quantile(wait, 0.50))
	l.set("sched.queue_wait_ms_p95", quantile(wait, 0.95))
	l.set("sched.service_ms_p50", quantile(svc, 0.50))
	l.set("sched.jobs_per_launch", ratio(float64(len(wait)), launches))
	l.set("sched.device_busy_pct", pct(p.pool.busyWall.Seconds(), p.run.phase.Seconds()*float64(devices)))
	l.set("sched.max_pending", float64(p.stats.MaxPendingSeen))
	l.set("sched.failed", float64(p.stats.Failed))
	l.set("sched.shed", float64(p.stats.Shed))
	l.set("sched.retries", float64(p.stats.Retries))
	l.set("core.compile_cache_hits", float64(p.stats.CompileCache.Hits()))
	l.setDraws(&p.pool.draws, p.pool.up, p.pool.down, len(p.run.recs))
}

// serveRun is what the serving workloads' runs share. Untraced, the
// workload sets up several times (setupMedian) and measures once; traced,
// it sets up once, measures an untraced and a traced pass, and adds its
// direct phase.
type serveRun struct {
	devices     int
	limit       time.Duration
	maxInflight int
	label       string
}

// untraced measures the end-to-end metrics.
func (s serveRun) untraced(o *outcome, setupS float64, q *sched.Queue, l *openLoop) error {
	p, err := measureServe(q, s.devices, l, s.limit, s.maxInflight)
	if err != nil {
		return err
	}
	p.figs.tally(o)
	p.figs.endToEnd(o, setupS)
	p.figs.noteFigures(o, s.label, s.limit)
	o.note("gen_lag_p99_ms=%.4g in_flight_at_window_end=%d completed_in_window=%d of %d",
		p.figs.genLagP99, p.run.inflightAtEnd, p.run.completedInWindow, p.figs.attempted)
	return nil
}

// traced measures an untraced and a traced pass on the same set-up and
// returns the traced pass with its layers started: sched, gles, shader,
// host and the tracing overhead.
func (s serveRun) traced(o *outcome, q *sched.Queue, mkLoop func(tr *tracer) *openLoop, tr *tracer) (*servePass, layers, error) {
	u, err := measureServe(q, s.devices, mkLoop(nil), s.limit, s.maxInflight)
	if err != nil {
		return nil, nil, err
	}
	h0 := sampleHost()
	t, err := measureServe(q, s.devices, mkLoop(tr), s.limit, s.maxInflight)
	if err != nil {
		return nil, nil, err
	}
	h1 := sampleHost()
	u.figs.tally(o)
	t.figs.tally(o)
	t.figs.noteFigures(o, s.label+" (traced)", s.limit)
	l := layers{}
	t.setSched(l, s.devices)
	l.setHost(h0, h1, t.figs.attempted)
	l.setOverhead(o, u.figs, t.figs)
	return t, l, nil
}
