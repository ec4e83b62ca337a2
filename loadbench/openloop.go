package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/gles"
	"glescompute/internal/sched"
)

// opStatus classifies one attempted op.
type opStatus int8

const (
	opOK      opStatus = iota
	opFailed           // the job completed with an error
	opRefused          // Submit returned an error (ErrShed, ErrQueueClosed, ctx)
	opWrong            // the output differed from the reference
)

// opRecord is one op of an open loop; times are offsets from the start of
// the measured phase.
type opRecord struct {
	due, sent, done time.Duration
	status          opStatus
	stats           sched.JobStats
}

// poissonSchedule returns n = rate·window arrival offsets in [0, window):
// a Poisson process conditioned on its count, i.e. n sorted uniform
// draws. Fixing the count keeps the offered load identical across seeds
// while the seed still decides where the bursts fall.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration) []time.Duration {
	n := int(rate*window.Seconds() + 0.5)
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(rng.Float64() * float64(window))
	}
	sort.Slice(due, func(a, b int) bool { return due[a] < due[b] })
	return due
}

// openLoop is the load generator of the serving workloads.
type openLoop struct {
	due    []time.Duration
	window time.Duration
	tr     *tracer
	// submitName names the span around submit ("Queue.Submit" or
	// "Service.Infer").
	submitName string
	submit     func(i int) (*sched.Job, error)
	// check reports whether op i's output is correct.
	check func(i int, out interface{}) bool
}

// openLoopRun is what one pass of an open loop measured.
type openLoopRun struct {
	recs []opRecord
	// phase runs from the start of the schedule to the last completion.
	phase time.Duration
	// inflightAtEnd counts ops submitted but not finished when the window
	// closed; completedInWindow counts ops finished inside it.
	inflightAtEnd, completedInWindow int
}

// run sends op i at due[i] whatever the state of earlier ops, waits for
// every op, and times each from its due time.
func (l *openLoop) run() (*openLoopRun, error) {
	r := &openLoopRun{recs: make([]opRecord, len(l.due))}
	var wg sync.WaitGroup
	var finished atomic.Int64
	t0 := time.Now()
	for i, due := range l.due {
		if d := time.Until(t0.Add(due)); d > 0 {
			time.Sleep(d)
		}
		rec := &r.recs[i]
		rec.due = due
		rec.sent = time.Since(t0)
		root := l.tr.begin("op", noSpan, int64(i))
		sp := l.tr.begin(l.submitName, root, int64(i))
		job, err := l.submit(i)
		l.tr.end(sp)
		if err != nil {
			l.tr.end(root)
			if !refusedErr(err) {
				return nil, fmt.Errorf("op %d: %w", i, err)
			}
			rec.done, rec.status = rec.sent, opRefused
			finished.Add(1)
			continue
		}
		wg.Add(1)
		go func(i int, rec *opRecord, job *sched.Job, root int) {
			defer wg.Done()
			sp := l.tr.begin("Job.Wait", root, int64(i))
			res, err := job.Wait(context.Background())
			rec.done = time.Since(t0)
			l.tr.end(sp)
			l.tr.end(root)
			finished.Add(1)
			rec.stats = res.Stats
			switch {
			case err != nil:
				rec.status = opFailed
			case !l.check(i, res.Output):
				rec.status = opWrong
			}
		}(i, rec, job, root)
	}
	if d := time.Until(t0.Add(l.window)); d > 0 {
		time.Sleep(d)
	}
	done := int(finished.Load())
	r.inflightAtEnd = len(l.due) - done
	waited := make(chan struct{})
	go func() {
		wg.Wait()
		close(waited)
	}()
	select {
	case <-waited:
	case <-time.After(drainTimeout):
		return nil, fmt.Errorf("%d ops still unfinished %v after the window closed", len(l.due)-int(finished.Load()), drainTimeout)
	}
	for _, rec := range r.recs {
		if rec.done > r.phase {
			r.phase = rec.done
		}
		if rec.done <= l.window {
			r.completedInWindow++
		}
	}
	return r, nil
}

// drainTimeout bounds the wait for stragglers after the window closes.
const drainTimeout = 60 * time.Second

// figures reduces an open-loop pass against the workload's latency limit
// and backlog bounds.
func (r *openLoopRun) figures(limit time.Duration, window time.Duration, maxInflight int) figures {
	f := figures{attempted: len(r.recs)}
	var lat, lag []float64
	met := 0
	for _, rec := range r.recs {
		lag = append(lag, ms(rec.sent-rec.due))
		switch rec.status {
		case opOK:
			f.ok++
			l := rec.done - rec.due
			lat = append(lat, ms(l))
			if l <= limit {
				met++
			}
		case opWrong:
			f.wrong++
			f.failed++
		default:
			f.failed++
		}
	}
	f.p50, f.p95, f.p99 = quantile(lat, 0.50), quantile(lat, 0.95), quantile(lat, 0.99)
	f.sloMetPct = pct(float64(met), float64(f.attempted))
	f.okPct = pct(float64(f.ok), float64(f.attempted))
	f.opsPerS = float64(f.ok) / r.phase.Seconds()
	f.genLagP99 = quantile(lag, 0.99)
	offered := float64(f.attempted)
	switch {
	case r.inflightAtEnd > maxInflight:
		f.backlog = fmt.Sprintf("%d ops in flight when the %v window closed (bound %d)", r.inflightAtEnd, window, maxInflight)
	case float64(r.completedInWindow) < 0.9*offered:
		f.backlog = fmt.Sprintf("completed %d of %d offered ops inside the %v window (< 90%%)", r.completedInWindow, f.attempted, window)
	}
	return f
}

// poolCounters sums every pooled device's GL counters and the queue's
// host busy time. The counters are read from outside the queue: a Direct
// job reads them on the device's own goroutine, and such jobs are sent one
// at a time until every device has answered (an idle pool assigns them
// round-robin).
type poolCounters struct {
	draws    gles.DrawStats
	up, down uint64 // texture upload and ReadPixels bytes
	busyWall time.Duration
}

func readPool(q *sched.Queue, devices int) (poolCounters, error) {
	var pc poolCounters
	seen := map[*core.Device]bool{}
	for try := 0; len(seen) < devices; try++ {
		if try >= 8*devices {
			return pc, fmt.Errorf("reading pool counters: reached %d of %d devices", len(seen), devices)
		}
		var dev *core.Device
		var snap poolCounters
		job, err := q.Submit(context.Background(), sched.JobSpec{
			Direct: func(d *core.Device) (interface{}, core.RunStats, error) {
				tr := d.GL().Transfers()
				dev = d
				snap = poolCounters{draws: d.GL().Draws(), up: tr.TexUploadBytes, down: tr.ReadPixelsBytes}
				return nil, core.RunStats{}, nil
			},
		})
		if err != nil {
			return pc, err
		}
		if _, err := job.Wait(context.Background()); err != nil {
			return pc, err
		}
		if !seen[dev] {
			seen[dev] = true
			pc.draws.Add(&snap.draws)
			pc.up += snap.up
			pc.down += snap.down
		}
	}
	for _, d := range q.Stats().Devices {
		pc.busyWall += d.BusyWall
	}
	return pc, nil
}

// since returns the counters accumulated after before was read (the
// draw counts, fragment and vertex work this benchmark reports).
func (pc poolCounters) since(before poolCounters) poolCounters {
	return poolCounters{
		draws: gles.DrawStats{
			DrawCalls:       pc.draws.DrawCalls - before.draws.DrawCalls,
			FragmentsShaded: pc.draws.FragmentsShaded - before.draws.FragmentsShaded,
			FragmentStats:   subStats(pc.draws.FragmentStats, before.draws.FragmentStats),
			VertexStats:     subStats(pc.draws.VertexStats, before.draws.VertexStats),
		},
		up:       pc.up - before.up,
		down:     pc.down - before.down,
		busyWall: pc.busyWall - before.busyWall,
	}
}

// simOps is the simulated scalar shader work of both stages.
func simOps(d *gles.DrawStats) float64 {
	return float64(d.FragmentStats.TotalOps() + d.VertexStats.TotalOps())
}

// refusedErr reports whether a Submit error is one the open loop counts
// as a refused op rather than a harness fault.
func refusedErr(err error) bool {
	return errors.Is(err, sched.ErrShed) || errors.Is(err, sched.ErrQueueClosed) ||
		errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
