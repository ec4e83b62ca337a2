package sched

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/layout"
)

// workUnit is what the dispatcher hands a device: one job, or a batch of
// same-kernel same-uniform jobs to coalesce into one launch.
type workUnit struct {
	jobs []*Job
}

// worker owns one pooled device. The device is touched only from run()'s
// goroutine — the GL single-thread invariant holds by construction. Job
// and batch buffers recycle through the same core.BufferPool pipelines
// use, capped so a long-running queue seeing many distinct request
// shapes cannot grow its buffer inventory without bound.
type worker struct {
	q    *Queue
	id   int
	dev  *core.Device
	ch   chan *workUnit
	done chan struct{}
	pool *core.BufferPool

	// specs records every KernelSpec compiled on this slot, keyed by
	// CacheKey, so a replacement device can be warmed by recompiling them
	// all before it takes traffic. Touched only on the worker goroutine.
	specs map[string]core.KernelSpec

	// lostDevice is set while executing a unit when the device died under
	// it (context loss, corruption, panic); maybeRecover consumes it.
	lostDevice bool

	// dead mirrors st.Health == DeviceDead for the dispatcher's lock-free
	// routing check.
	dead atomic.Bool

	st DeviceStats // guarded by q.mu
}

func newWorker(q *Queue, id int, dev *core.Device) *worker {
	pool := core.NewBufferPool(dev)
	pool.SetLimit(8, 128)
	return &worker{
		q:     q,
		id:    id,
		dev:   dev,
		ch:    make(chan *workUnit, 2),
		done:  make(chan struct{}),
		pool:  pool,
		specs: map[string]core.KernelSpec{},
	}
}

// run is the device goroutine: execute work units until the dispatcher
// closes the channel, then release the pool and the device.
func (w *worker) run() {
	defer close(w.done)
	for u := range w.ch {
		w.exec(u)
	}
	w.pool.FreeAll()
	w.dev.Close()
}

func (w *worker) exec(u *workUnit) {
	live := u.jobs[:0]
	for _, j := range u.jobs {
		if err := j.ctx.Err(); err != nil {
			w.q.finishJob(j, nil, JobStats{Device: w.id, Attempts: j.attempts}, fmt.Errorf("sched: job cancelled: %w", err))
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	if w.dead.Load() {
		// A unit can race the slot's death (assigned before the dispatcher
		// saw the dead flag). Bounce its jobs back through completeJob so
		// retryable ones reach a healthy device.
		for _, j := range live {
			w.q.completeJob(j, nil, JobStats{Device: w.id, Attempts: j.attempts},
				fmt.Errorf("sched: device %d is dead: %w", w.id, core.ErrDeviceLost))
		}
		return
	}
	var outs []outcome
	if live[0].spec.Group != nil {
		// A unit is single-key, so one group job means they all are.
		outs = w.launch(live, w.runGroup)
	} else if grid, offs, ok := w.pack(live); ok {
		outs = w.launch(live, func(jobs []*Job) ([]interface{}, core.RunStats, error) {
			return w.runPacked(jobs, grid, offs)
		})
	} else {
		for i := range live {
			outs = append(outs, w.launch(live[i:i+1], w.runOne)...)
			if w.lostDevice {
				// The device died under job i; bounce the rest of the unit
				// (unexecuted, so no retry budget consumed) instead of
				// feeding them to a dead context.
				for _, j := range live[i+1:] {
					outs = append(outs, outcome{j: j, st: JobStats{Device: w.id, Attempts: j.attempts},
						err: fmt.Errorf("sched: device %d lost mid-unit: %w", w.id, core.ErrDeviceLost)})
				}
				break
			}
		}
	}
	// Outcomes are published only once the slot's health has settled, so
	// a caller returning from Wait after a device loss sees the slot
	// Healthy (replaced) or Dead, never mid-recovery.
	w.maybeRecover()
	for _, o := range outs {
		w.q.completeJob(o.j, o.out, o.st, o.err)
	}
}

// maybeRecover drives the health state machine after a unit whose device
// died: quarantine the slot, tear the broken device down, and — while the
// replacement budget lasts — open a fresh device on this same goroutine
// (the GL single-thread invariant holds through replacement) and warm it
// by recompiling every kernel the slot had built. Jobs queued behind the
// fault wait out the replacement and then run normally; if the budget is
// spent or the replacement fails, the slot goes Dead and its queued jobs
// bounce to the surviving devices.
func (w *worker) maybeRecover() {
	if !w.lostDevice {
		return
	}
	w.lostDevice = false
	w.q.mu.Lock()
	w.st.Health = DeviceQuarantined
	w.st.Faults++
	reopens := w.st.Reopens
	w.q.mu.Unlock()
	w.q.met.faults.Inc()
	w.q.met.slotHealthy(w.id).Set(0)
	w.q.tracer.Instant(w.id, "quarantine", "replacing device")
	w.pool.FreeAll()
	w.dev.Close()
	if reopens >= uint64(w.q.maxReopens) {
		w.die()
		return
	}
	dev, err := w.q.openDevice(w.id)
	if err != nil {
		w.die()
		return
	}
	for _, spec := range w.specs {
		if _, err := dev.BuildKernelCached(spec); err != nil {
			dev.Close()
			w.die()
			return
		}
	}
	w.dev = dev
	w.pool = core.NewBufferPool(dev)
	w.pool.SetLimit(8, 128)
	w.q.mu.Lock()
	w.st.Health = DeviceHealthy
	w.st.Reopens++
	w.q.mu.Unlock()
	w.q.met.reopens.Inc()
	w.q.met.slotHealthy(w.id).Set(1)
	w.q.tracer.Instant(w.id, "reopen", "replacement device warmed")
}

// die marks the slot permanently dead. Its device is already closed; the
// run loop keeps draining the channel so racing units bounce elsewhere.
func (w *worker) die() {
	w.dead.Store(true)
	w.q.mu.Lock()
	w.st.Health = DeviceDead
	w.q.mu.Unlock()
	w.q.met.slotHealthy(w.id).Set(0)
	w.q.tracer.Instant(w.id, "dead", "replacement budget spent or reopen failed")
}

// note folds one launch of jobs members into the per-device statistics;
// a launch of more than one member is a batch.
func (w *worker) note(jobs int, dt core.Timeline, wall time.Duration) {
	batched := jobs > 1
	w.q.mu.Lock()
	w.st.Jobs += uint64(jobs)
	w.st.Launches++
	if batched {
		w.st.Batches++
		w.st.BatchedJobs += uint64(jobs)
	}
	w.st.Busy = w.st.Busy.Add(dt)
	w.st.BusyWall += wall
	busyUS := w.st.Busy.Total().Microseconds()
	w.q.mu.Unlock()
	w.q.met.slotBusy(w.id).Set(busyUS)
	w.q.met.slotJobs(w.id).Add(uint64(jobs))
	w.q.met.batchSize.Observe(float64(jobs))
	if batched {
		w.q.met.batches.Inc()
		w.q.met.batchedJobs.Add(uint64(jobs))
	}
	if jobs > 0 {
		w.q.noteServiceTime(dt.Total() / time.Duration(jobs))
	}
	if cc := w.q.deviceCfg.CompileCache; cc != nil {
		ccs := cc.Stats()
		w.q.met.cacheHits.Set(int64(ccs.Hits()))
		w.q.met.cacheMisses.Set(int64(ccs.Misses))
	}
}

// buildKernel compiles (or fetches) a kernel through the device's
// compile-once cache, recording the spec so a replacement device after a
// fault can be rebuilt to the same warm state.
func (w *worker) buildKernel(spec core.KernelSpec) (*core.Kernel, error) {
	k, err := w.dev.BuildKernelCached(spec)
	if err == nil {
		if key := spec.CacheKey(); w.specs[key].Source == "" {
			w.specs[key] = spec
		}
	}
	return k, err
}

// jobBuffer acquires a buffer shaped for one job array: exact matrix
// layout for matrix jobs, the standard linear layout otherwise.
func (w *worker) jobBuffer(elem codec.ElemType, n, matrixN int) (*core.Buffer, error) {
	var grid layout.Grid
	var err error
	if matrixN > 0 {
		if matrixN > w.dev.MaxGridWidth() {
			return nil, fmt.Errorf("sched: matrix dimension %d exceeds max grid width %d", matrixN, w.dev.MaxGridWidth())
		}
		grid, err = layout.Square(matrixN)
	} else {
		grid, err = layout.ForLength(n, w.dev.MaxGridWidth())
	}
	if err != nil {
		return nil, err
	}
	return w.pool.Acquire(elem, n, grid)
}

// outcome is one member's launch result, held by exec until the unit's
// device state has settled.
type outcome struct {
	j   *Job
	out interface{}
	st  JobStats
	err error
}

// launch executes jobs as one launch through run, which returns one
// output per job. It owns everything the job kinds share: attempt
// counting, the launch span and Trace hooks, modeled and wall time,
// per-device statistics, device-loss detection and the panic guard — a
// panicking run (a broken Direct closure, a bug tickled by one request's
// shape) fails every member as device-lost instead of crashing the
// process, and the device is replaced (the panic may have left GL state
// mid-operation).
func (w *worker) launch(jobs []*Job, run func([]*Job) ([]interface{}, core.RunStats, error)) []outcome {
	for _, j := range jobs {
		j.attempts++
	}
	name := launchName(jobs[0])
	sp := w.launchSpan(jobs, name)
	start := time.Now()
	t0 := w.dev.Timeline()
	outs, rs, err := func() (outs []interface{}, rs core.RunStats, err error) {
		defer func() {
			if r := recover(); r != nil {
				w.q.notePanic()
				outs, err = nil, fmt.Errorf("sched: launch %q panicked on device %d: %v: %w", name, w.id, r, core.ErrDeviceLost)
			}
		}()
		return run(jobs)
	}()
	if err == nil && len(outs) != len(jobs) {
		err = fmt.Errorf("sched: launch %q returned %d outputs for %d members", name, len(outs), len(jobs))
	}
	dt := w.dev.Timeline().Sub(t0)
	wall := time.Since(start)
	w.note(len(jobs), dt, wall)
	w.noteLost(err)
	traced := jobs
	if jobs[0].spec.Group != nil {
		// Only the first member's Trace hook runs: the launch (and its
		// pass structure) is shared, so per-member hooks would duplicate
		// children.
		traced = jobs[:1]
	}
	w.finishLaunchSpan(sp, jobs, traced, start, dt, err)
	res := make([]outcome, len(jobs))
	for i, j := range jobs {
		res[i] = outcome{j: j, err: err, st: JobStats{
			Device:    w.id,
			Batched:   len(jobs) > 1,
			BatchSize: len(jobs),
			Run:       rs,
			Time:      dt,
			QueueWait: start.Sub(j.enq),
			Service:   wall,
			Attempts:  j.attempts,
		}}
		if err == nil {
			res[i].out = outs[i]
		}
	}
	return res
}

// noteLost flags the device for recovery when an execution error (or the
// device's own lost marker) says the context died under it.
func (w *worker) noteLost(err error) {
	if w.lostDevice {
		return
	}
	if w.dev.Lost() || errors.Is(err, core.ErrDeviceLost) {
		w.lostDevice = true
		detail := "device context lost"
		if err != nil {
			detail = err.Error()
		}
		w.q.tracer.Instant(w.id, "fault", detail)
	}
}

// pack row-packs a kernel unit of two or more members into one shared
// texture. Width is bounded by the device's effective layout bound (which
// may be tighter than the raw texture caps), so packing never rejects a
// job its solo layout would accept; a unit too tall for one texture
// reports false and runs member by member.
func (w *worker) pack(jobs []*Job) (layout.Grid, []int, bool) {
	if len(jobs) < 2 {
		return layout.Grid{}, nil, false
	}
	ns := make([]int, len(jobs))
	for i, j := range jobs {
		ns[i] = j.spec.OutN
	}
	grid, offs, err := layout.PackRows(ns, w.dev.MaxGridWidth(), w.dev.Caps().MaxTextureSize)
	return grid, offs, err == nil
}

// runOne runs a unit of one: a Direct job's closure, or a kernel job in
// its solo layouts.
func (w *worker) runOne(jobs []*Job) ([]interface{}, core.RunStats, error) {
	if direct := jobs[0].spec.Direct; direct != nil {
		out, rs, err := direct(w.dev)
		return []interface{}{out}, rs, err
	}
	return w.runKernel(jobs[0])
}

// runGroup hands every member's payload to the first member's
// GroupSpec.Run, which returns one output per member.
func (w *worker) runGroup(jobs []*Job) ([]interface{}, core.RunStats, error) {
	payloads := make([]interface{}, len(jobs))
	for i, j := range jobs {
		payloads[i] = j.spec.Group.Payload
	}
	return jobs[0].spec.Group.Run(w.dev, payloads)
}

// runKernel runs a kernel unit of one in its solo layouts (ForLength, or
// Square for MatrixN) with its per-input lengths.
func (w *worker) runKernel(j *Job) ([]interface{}, core.RunStats, error) {
	spec := j.spec
	out, rs, err := w.draw(spec, j.ins, spec.OutN, func(elem codec.ElemType, n int) (*core.Buffer, error) {
		return w.jobBuffer(elem, n, spec.MatrixN)
	})
	return []interface{}{out}, rs, err
}

// runPacked runs a row-packed kernel unit (grid and offs from pack): each
// input's member arrays become adjacent rows of one shared texture
// uploaded in a single call, one fragment pass computes every member's
// output, and one readback is sliced back into per-member outputs.
func (w *worker) runPacked(jobs []*Job, grid layout.Grid, offs []int) ([]interface{}, core.RunStats, error) {
	spec := jobs[0].spec
	srcs := make([]interface{}, len(spec.Kernel.Inputs))
	for p, param := range spec.Kernel.Inputs {
		src := newHostSlice(param.Type, grid.N)
		for i, j := range jobs {
			copyHostSlice(src, offs[i], j.ins[p])
		}
		srcs[p] = src
	}
	all, rs, err := w.draw(spec, srcs, grid.N, func(elem codec.ElemType, _ int) (*core.Buffer, error) {
		return w.pool.Acquire(elem, grid.N, grid)
	})
	if err != nil {
		return nil, rs, err
	}
	outs := make([]interface{}, len(jobs))
	for i, j := range jobs {
		outs[i] = sliceHostCopy(all, offs[i], j.spec.OutN)
	}
	return outs, rs, nil
}

// draw uploads one host slice per kernel input into buffers from acquire,
// runs one draw and reads outN output elements back. Every acquired
// buffer returns to the pool when the draw is done.
func (w *worker) draw(spec JobSpec, srcs []interface{}, outN int, acquire func(codec.ElemType, int) (*core.Buffer, error)) (interface{}, core.RunStats, error) {
	var rs core.RunStats
	k, err := w.buildKernel(spec.Kernel)
	if err != nil {
		return nil, rs, err
	}
	var held []*core.Buffer
	defer func() {
		for _, b := range held {
			w.pool.Release(b)
		}
	}()
	hold := func(elem codec.ElemType, n int) (*core.Buffer, error) {
		b, err := acquire(elem, n)
		if err == nil {
			held = append(held, b)
		}
		return b, err
	}
	ins := make([]*core.Buffer, len(srcs))
	for p, src := range srcs {
		b, err := hold(spec.Kernel.Inputs[p].Type, core.HostLen(src))
		if err != nil {
			return nil, rs, err
		}
		if err := b.WriteRange(0, src); err != nil {
			return nil, rs, err
		}
		ins[p] = b
	}
	outB, err := hold(outElem(spec.Kernel), outN)
	if err != nil {
		return nil, rs, err
	}
	rs, err = k.Run1(outB, ins, spec.Uniforms)
	if err != nil {
		return nil, rs, err
	}
	out, err := outB.ReadRange(0, outN)
	return out, rs, err
}

// newHostSlice allocates a typed host slice of n elements.
func newHostSlice(t codec.ElemType, n int) interface{} {
	switch t {
	case codec.Float32:
		return make([]float32, n)
	case codec.Int32:
		return make([]int32, n)
	case codec.Uint32:
		return make([]uint32, n)
	case codec.Int8:
		return make([]int8, n)
	default:
		return make([]uint8, n)
	}
}

// copyHostSlice copies src into dst starting at element off; both must be
// typed slices of the same element type.
func copyHostSlice(dst interface{}, off int, src interface{}) {
	switch d := dst.(type) {
	case []float32:
		copy(d[off:], src.([]float32))
	case []int32:
		copy(d[off:], src.([]int32))
	case []uint32:
		copy(d[off:], src.([]uint32))
	case []int8:
		copy(d[off:], src.([]int8))
	case []uint8:
		copy(d[off:], src.([]uint8))
	}
}

// sliceHostCopy returns a fresh copy of n elements of src at off, so each
// job owns its output independently of the shared batch readback.
func sliceHostCopy(src interface{}, off, n int) interface{} {
	switch s := src.(type) {
	case []float32:
		return append([]float32(nil), s[off:off+n]...)
	case []int32:
		return append([]int32(nil), s[off:off+n]...)
	case []uint32:
		return append([]uint32(nil), s[off:off+n]...)
	case []int8:
		return append([]int8(nil), s[off:off+n]...)
	default:
		return append([]uint8(nil), src.([]uint8)[off:off+n]...)
	}
}
