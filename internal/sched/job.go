package sched

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/obs"
)

// JobSpec describes one compute request: a kernel plus host-side input
// arrays. The queue owns all device buffers; callers deal only in host
// slices.
type JobSpec struct {
	// Kernel is the kernel to run. It must have a single output (the
	// default). Content-identical specs share one compiled program per
	// device.
	Kernel core.KernelSpec
	// In holds one typed Input per kernel input (Float32s, Int32s,
	// Uint32s, Int8s, Bytes, FromBuffer), of the matching element type.
	In []Input
	// OutN is the output length. 0 means the length of the first input
	// (or MatrixN² for matrix jobs).
	OutN int
	// MatrixN, when positive, lays every input and the output out as an
	// exact MatrixN×MatrixN texel matrix (all arrays must hold MatrixN²
	// elements) so kernels can use 2D addressing. Matrix jobs never
	// batch.
	MatrixN int
	// Uniforms supplies the kernel's user uniforms.
	Uniforms map[string]float32
	// Batchable declares the kernel element-wise: output element i
	// depends only on input elements i (through the gc_<in>(idx)
	// accessors), and the kernel reads none of gc_out_n, gc_<in>_dims or
	// v_uv. Such jobs may be coalesced with same-kernel same-uniform jobs
	// into one launch; the packed layout relocates elements but never
	// changes the arithmetic, so outputs stay bit-identical. Every input
	// must then be exactly OutN elements long.
	Batchable bool
	// Direct, when non-nil, bypasses the kernel machinery entirely: the
	// job runs this function on the worker's goroutine-pinned device (the
	// GL single-thread invariant holds by construction, as for kernel
	// jobs). This is how whole device-resident workloads — internal/nn's
	// multi-layer networks, say — flow through the queue's device pool,
	// sharing its sharding, backpressure and per-device timeline
	// accounting. Callers keeping per-device state (compiled pipelines,
	// resident weights) key it off the *core.Device they are handed.
	// Direct jobs never coalesce; Kernel, In, OutN, MatrixN, Uniforms and
	// Batchable must be zero.
	Direct func(dev *core.Device) (out interface{}, run core.RunStats, err error)
	// Deadline bounds the job's total time in the service, from Submit to
	// completion; 0 means none. It is enforced at scheduling checkpoints
	// (dispatch, execution start, retry), not mid-launch — a launch
	// already running when the deadline passes still finishes, and its
	// result is still delivered. Deadline expiry completes the job with an
	// error wrapping context.DeadlineExceeded and is never retried.
	Deadline time.Duration
	// Group, when non-nil, makes the job coalescible with other jobs
	// submitted against the same logical pipeline — the continuous-batching
	// route device-resident workloads (internal/nn model serving) use.
	// Same-Key jobs arriving within the queue's batching window
	// (Config.BatchWindow) are handed to one GroupSpec.Run invocation on
	// one device, which executes every member in a single batched pass.
	// Group is exclusive with Direct; Kernel, In, OutN, MatrixN, Uniforms
	// and Batchable must be zero.
	Group *GroupSpec
	// Trace, when non-nil, is called on the executing device's goroutine
	// after each execution attempt, with the attempt's launch span — the
	// hook submitters use to attach workload-specific child spans (the nn
	// service records one child per fused pipeline pass from
	// PipelineStats.StageTimes). It is only called when the queue has a
	// Tracer and the launch span was recorded; the span is never nil.
	// Direct jobs use it to surface structure the scheduler cannot see.
	Trace func(sp *obs.Span)
	// Priority classifies the job for admission control and batch-flush
	// ordering (see Priority): positive values are interactive (shed
	// last under overload, flushed first), negative values are batch
	// (shed first, flushed last). The zero value is PriorityNormal.
	// Without Config.Admission, priority still orders continuous-batching
	// flushes but nothing is ever shed.
	Priority Priority
	// Retry opts the job into automatic resubmission when it fails with a
	// retryable fault: a lost device (core.ErrDeviceLost — context loss,
	// detected readback corruption, a panic on the device goroutine) or a
	// transient allocation failure (core.ErrOutOfMemory). The queue waits
	// an exponential backoff, then requeues the job for dispatch to a
	// healthy device. Only opt in idempotent jobs: kernel jobs always are
	// (pure functions of their inputs); Direct jobs must be made so by
	// their author. The zero value never retries.
	Retry RetryPolicy
}

// GroupSpec declares a job coalescible with others sharing its Key (see
// JobSpec.Group).
type GroupSpec struct {
	// Key identifies the logical pipeline; only jobs with equal keys
	// coalesce. Submitters typically derive it from the serving object's
	// identity so distinct models never share a launch.
	Key string
	// Label names the group in spans and reports (Key is often an opaque
	// identity); empty falls back to "group".
	Label string
	// Payload is this request's input, passed to Run in member order.
	Payload interface{}
	// Run executes the coalesced launch on the worker's device with the
	// payloads of every member of the unit (len ≥ 1, in dispatch order)
	// and returns one output per payload, in the same order. Every member
	// of a group must carry an equivalent Run closure — the worker invokes
	// the first member's — and outputs must be bit-identical to running
	// each member alone (the internal/nn path guarantees this by
	// batch-invariant lowering). Like Direct closures, Run executes on the
	// device goroutine and may keep per-device state keyed off dev.
	Run func(dev *core.Device, payloads []interface{}) ([]interface{}, core.RunStats, error)
}

// label returns the group's display name.
func (g *GroupSpec) label() string {
	if g.Label != "" {
		return g.Label
	}
	return "group"
}

// RetryPolicy bounds automatic resubmission of a failed job.
type RetryPolicy struct {
	// Max is the number of retries after the first attempt; 0 disables
	// retrying.
	Max int
	// Backoff is the delay before the first retry, doubling on each
	// subsequent one; 0 means 1ms when Max > 0.
	Backoff time.Duration
	// MaxBackoff caps the doubling; 0 means 100ms.
	MaxBackoff time.Duration
}

// delay returns the backoff before retry number n (1-based), with the
// policy's defaults applied.
func (p RetryPolicy) delay(n int) time.Duration {
	d := p.Backoff
	if d <= 0 {
		d = time.Millisecond
	}
	max := p.MaxBackoff
	if max <= 0 {
		max = 100 * time.Millisecond
	}
	for i := 1; i < n; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		d = max
	}
	return d
}

// Job is an in-flight compute request.
type Job struct {
	spec   JobSpec
	ctx    context.Context
	cancel context.CancelFunc // non-nil when spec.Deadline wrapped ctx
	key    string             // batch grouping key (batchable jobs only)
	enq    time.Time
	doneCh chan struct{}
	span   *obs.Span // job span, nil when the queue has no tracer

	// ins holds the host slices unwrapped from spec.In, one per kernel
	// input.
	ins []interface{}

	// attempts counts executions so far. Touched only by the goroutine
	// currently executing the job (workers hand the job off through the
	// queue between attempts, never run it concurrently).
	attempts int

	// Written by the executing worker before doneCh closes.
	out   interface{}
	stats JobStats
	err   error
}

// JobStats reports how one job was executed.
type JobStats struct {
	// Device is the pool index of the device that ran the job (-1 when
	// the job never reached a device).
	Device int
	// Batched reports whether the job was coalesced with others;
	// BatchSize is the number of jobs in its launch (1 when solo).
	Batched   bool
	BatchSize int
	// Run and Time describe the GPU launch that carried the job (shared
	// by every member of a batch): raw draw statistics and the modeled
	// vc4 wall-clock of the launch.
	Run  core.RunStats
	Time core.Timeline
	// QueueWait is the host wall-clock time from Submit to the start of
	// the launch; Service is the host wall-clock of the launch itself.
	QueueWait time.Duration
	Service   time.Duration
	// Attempts is how many times the job was executed — 1 for the normal
	// case, higher when JobSpec.Retry resubmitted it after device faults
	// (0 when it never reached a device).
	Attempts int
}

// Result is a completed job's output.
type Result struct {
	// Output is a freshly allocated host slice of the kernel's output
	// element type.
	Output interface{}
	Stats  JobStats
}

// Float32 returns the output as []float32.
func (r Result) Float32() ([]float32, error) {
	if v, ok := r.Output.([]float32); ok {
		return v, nil
	}
	return nil, fmt.Errorf("sched: output is %T, not []float32", r.Output)
}

// Int32 returns the output as []int32.
func (r Result) Int32() ([]int32, error) {
	if v, ok := r.Output.([]int32); ok {
		return v, nil
	}
	return nil, fmt.Errorf("sched: output is %T, not []int32", r.Output)
}

// Done returns a channel closed when the job completes.
func (j *Job) Done() <-chan struct{} { return j.doneCh }

// Wait blocks until the job completes (or ctx is done) and returns its
// result. A nil ctx means context.Background. Waiting with a cancelled
// context does not cancel the job itself; cancel the Submit context for
// that.
func (j *Job) Wait(ctx context.Context) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.doneCh:
		if j.err != nil {
			return Result{Stats: j.stats}, j.err
		}
		return Result{Output: j.out, Stats: j.stats}, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// elemOf maps a host slice wrapped by an Input constructor to its device
// element type.
func elemOf(src interface{}) codec.ElemType {
	switch src.(type) {
	case []float32:
		return codec.Float32
	case []int32:
		return codec.Int32
	case []uint32:
		return codec.Uint32
	case []int8:
		return codec.Int8
	}
	return codec.Uint8
}

// outElem returns the element type of the kernel's single output.
func outElem(spec core.KernelSpec) codec.ElemType {
	if len(spec.Outputs) > 0 {
		return spec.Outputs[0].Type
	}
	return codec.Float32
}

// newJob validates a spec and builds the queued job.
func newJob(ctx context.Context, spec JobSpec) (*Job, error) {
	build := func(spec JobSpec, ins []interface{}) *Job {
		j := &Job{spec: spec, ins: ins, ctx: ctx, enq: time.Now(), doneCh: make(chan struct{})}
		if spec.Deadline > 0 {
			j.ctx, j.cancel = context.WithTimeout(ctx, spec.Deadline)
		}
		return j
	}
	if spec.Retry.Max < 0 {
		return nil, fmt.Errorf("sched: Retry.Max must be >= 0, got %d", spec.Retry.Max)
	}
	ins := make([]interface{}, len(spec.In))
	for i, in := range spec.In {
		if in.data == nil {
			return nil, fmt.Errorf("sched: In[%d] is a zero Input; use Float32s/Int32s/Uint32s/Int8s/Bytes/FromBuffer", i)
		}
		ins[i] = in.data
	}
	if spec.Deadline < 0 {
		return nil, fmt.Errorf("sched: Deadline must be >= 0, got %v", spec.Deadline)
	}
	if spec.Direct != nil || spec.Group != nil {
		kind := "direct"
		if spec.Group != nil {
			kind = "group"
		}
		if spec.Direct != nil && spec.Group != nil {
			return nil, fmt.Errorf("sched: Direct and Group are exclusive")
		}
		if spec.Batchable {
			return nil, fmt.Errorf("sched: %s jobs cannot set Batchable (group jobs coalesce through GroupSpec.Key)", kind)
		}
		if spec.Kernel.Name != "" || spec.Kernel.Source != "" ||
			len(spec.Kernel.Inputs) > 0 || len(spec.Kernel.Outputs) > 0 || len(spec.Kernel.Uniforms) > 0 ||
			len(ins) > 0 || spec.OutN != 0 || spec.MatrixN != 0 || len(spec.Uniforms) > 0 {
			return nil, fmt.Errorf("sched: %s job: Kernel/In/OutN/MatrixN/Uniforms must be unset", kind)
		}
		if spec.Group != nil {
			if spec.Group.Key == "" {
				return nil, fmt.Errorf("sched: group job: empty GroupSpec.Key")
			}
			if spec.Group.Run == nil {
				return nil, fmt.Errorf("sched: group job: nil GroupSpec.Run")
			}
		}
		j := build(spec, nil)
		if spec.Group != nil {
			// The NUL prefix keeps group keys disjoint from kernel batch
			// keys (which start with a kernel name).
			j.key = "\x00g:" + spec.Group.Key
		}
		return j, nil
	}
	if len(spec.Kernel.Outputs) > 1 {
		return nil, fmt.Errorf("sched: kernel %q has %d outputs; the queue executes single-output kernels (use Device.BuildKernel for multi-output)",
			spec.Kernel.Name, len(spec.Kernel.Outputs))
	}
	if len(ins) != len(spec.Kernel.Inputs) {
		return nil, fmt.Errorf("sched: kernel %q declares %d inputs, job supplies %d",
			spec.Kernel.Name, len(spec.Kernel.Inputs), len(ins))
	}
	for i, src := range ins {
		if t := elemOf(src); t != spec.Kernel.Inputs[i].Type {
			return nil, fmt.Errorf("sched: input %q expects %s, job supplies %s",
				spec.Kernel.Inputs[i].Name, spec.Kernel.Inputs[i].Type, t)
		}
		if core.HostLen(src) == 0 {
			return nil, fmt.Errorf("sched: input %q is empty", spec.Kernel.Inputs[i].Name)
		}
	}
	if spec.MatrixN > 0 {
		want := spec.MatrixN * spec.MatrixN
		if spec.OutN == 0 {
			spec.OutN = want
		}
		if spec.OutN != want {
			return nil, fmt.Errorf("sched: matrix job: OutN %d != MatrixN² (%d)", spec.OutN, want)
		}
		for i, src := range ins {
			if core.HostLen(src) != want {
				return nil, fmt.Errorf("sched: matrix job: input %q has %d elements, want MatrixN² (%d)",
					spec.Kernel.Inputs[i].Name, core.HostLen(src), want)
			}
		}
		if spec.Batchable {
			return nil, fmt.Errorf("sched: matrix jobs cannot batch (exact matrix layouts do not row-pack)")
		}
	}
	if spec.OutN == 0 {
		if len(ins) == 0 {
			return nil, fmt.Errorf("sched: OutN required for kernels with no inputs")
		}
		spec.OutN = core.HostLen(ins[0])
	}
	if spec.Batchable {
		for i, src := range ins {
			if core.HostLen(src) != spec.OutN {
				return nil, fmt.Errorf("sched: batchable (element-wise) job: input %q has %d elements, output has %d",
					spec.Kernel.Inputs[i].Name, core.HostLen(src), spec.OutN)
			}
		}
	}
	j := build(spec, ins)
	if spec.Batchable {
		j.key = batchKey(spec)
	}
	return j, nil
}

// batchKey groups jobs that may share one launch: identical kernel
// content and bit-identical uniform values. Like KernelSpec.CacheKey it
// sits on the per-submission hot path, so no fmt.
func batchKey(spec JobSpec) string {
	key := spec.Kernel.CacheKey()
	if len(spec.Uniforms) == 0 {
		return key
	}
	names := make([]string, 0, len(spec.Uniforms))
	for name := range spec.Uniforms {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	b.Grow(len(key) + 16*len(names))
	b.WriteString(key)
	for _, name := range names {
		b.WriteByte('|')
		b.WriteString(name)
		b.WriteByte('=')
		b.WriteString(strconv.FormatUint(uint64(math.Float32bits(spec.Uniforms[name])), 16))
	}
	return b.String()
}
