package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"glescompute/internal/core"
	"glescompute/internal/sched"
)

// TestCorruptedOutputCounted feeds the open loop a job whose output is
// corrupted and checks that the op counts as failed, misses the SLO and
// makes the run incorrect.
func TestCorruptedOutputCounted(t *testing.T) {
	q, err := sched.OpenQueue(sched.Config{Devices: 1, Exec: pinnedExec(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	want := []int32{1, 2, 3, 4}
	const ops, corrupt = 12, 5
	due := make([]time.Duration, ops)
	for i := range due {
		due[i] = time.Duration(i) * time.Millisecond
	}
	l := &openLoop{
		due:        due,
		window:     20 * time.Millisecond,
		submitName: "Queue.Submit",
		submit: func(i int) (*sched.Job, error) {
			out := slices.Clone(want)
			if i == corrupt {
				out[2] ^= 1 << 20
			}
			return q.Submit(context.Background(), sched.JobSpec{
				Direct: func(*core.Device) (interface{}, core.RunStats, error) { return out, core.RunStats{}, nil },
			})
		},
		check: func(i int, out interface{}) bool { return tinyCheck(out, want) },
	}
	run, err := l.run()
	if err != nil {
		t.Fatal(err)
	}
	f := run.figures(time.Hour, l.window, ops)
	if f.attempted != ops || f.failed != 1 || f.wrong != 1 || f.ok != ops-1 {
		t.Fatalf("attempted=%d ok=%d failed=%d wrong=%d, want %d/%d/1/1", f.attempted, f.ok, f.failed, f.wrong, ops, ops-1)
	}
	if wantPct := 100 * float64(ops-1) / ops; f.sloMetPct != wantPct || f.okPct != wantPct {
		t.Fatalf("slo_met_pct=%v ok_pct=%v, want %v", f.sloMetPct, f.okPct, wantPct)
	}
	o := &outcome{}
	f.tally(o)
	f.endToEnd(o, 1)
	var buf bytes.Buffer
	if err := writeResult(&buf, o); err != nil {
		t.Fatal(err)
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted != ops || res.Failed != 1 {
		t.Fatalf("result line %s: want correct=false attempted=%d failed=1", buf.String(), ops)
	}
}

// TestChecksRejectCorruption pins each workload's output check against a
// one-element corruption.
func TestChecksRejectCorruption(t *testing.T) {
	ref := []int8{3, -7, 12}
	if !lenetCheck([]int8{3, -7, 12}, ref) || lenetCheck([]int8{3, -7, 13}, ref) || lenetCheck([]int32{3, -7, 12}, ref) {
		t.Error("lenetCheck must accept only a bit-identical []int8")
	}
	if !lenetCheck([]int8{1, 2, 3, 4}, []int8{1, 2}, []int8{3, 4}) {
		t.Error("lenetCheck must compare a batch against the concatenated references")
	}
	if !tinyCheck([]int32{5, 6}, []int32{5, 6}) || tinyCheck([]int32{5, 7}, []int32{5, 6}) {
		t.Error("tinyCheck must be exact")
	}
	want := []float32{1, 100, 0.25}
	near := []float32{1, 100 * (1 + 1.0/(1<<12)), 0.25}
	far := []float32{1, 100 * (1 + 1.0/(1<<10)), 0.25}
	if !sgemmWithin(near, want) || sgemmWithin(far, want) || sgemmWithin(want[:2], want) {
		t.Error("sgemmWithin must hold the 2^-11 relative tolerance")
	}
}

// TestPinnedEnvRefused checks that any library environment variable stops
// the run before it measures anything, naming the variable.
func TestPinnedEnvRefused(t *testing.T) {
	t.Setenv("GLESCOMPUTE_NO_VEC4", "1")
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "tiny-jobs", "--seconds", "1"}, &stdout, &stderr)
	if code == 0 || !strings.Contains(stderr.String(), "GLESCOMPUTE_NO_VEC4") || stdout.Len() != 0 {
		t.Fatalf("code %d stdout %q stderr %q: want a non-zero exit naming the variable", code, stdout.String(), stderr.String())
	}
}

func TestPoissonScheduleSeeded(t *testing.T) {
	a := poissonSchedule(rand.New(rand.NewSource(7)), 50, 2*time.Second)
	b := poissonSchedule(rand.New(rand.NewSource(7)), 50, 2*time.Second)
	c := poissonSchedule(rand.New(rand.NewSource(8)), 50, 2*time.Second)
	if len(a) != 100 || !slices.Equal(a, b) || slices.Equal(a, c) {
		t.Fatalf("schedule must hold rate·window arrivals and depend only on the seed")
	}
	if !slices.IsSorted(a) || a[0] < 0 || a[len(a)-1] >= 2*time.Second {
		t.Fatal("arrivals must be sorted inside the window")
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "op", Start: 0, End: 10 * ms, Parent: -1},
		{Name: "a", Start: 1 * ms, End: 4 * ms, Parent: 0},
		{Name: "b", Start: 3 * ms, End: 6 * ms, Parent: 0},
		{Name: "c", Start: 8 * ms, End: 12 * ms, Parent: 0}, // clipped to the parent
	}
	got := selfTimes(spans)
	want := []time.Duration{3 * ms, 3 * ms, 3 * ms, 4 * ms}
	if !slices.Equal(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

// TestLayersEmitAll checks that a traced result carries every per-layer
// metric, zero where the workload did not set one.
func TestLayersEmitAll(t *testing.T) {
	o := &outcome{attempted: 1}
	l := layers{}
	l.set("nn.run_ms_b1", 3)
	l.emit(o)
	if len(o.metrics) != len(layerMetrics) {
		t.Fatalf("%d metrics emitted, want %d", len(o.metrics), len(layerMetrics))
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, o); err != nil {
		t.Fatal(err)
	}
	for _, m := range layerMetrics {
		if !strings.Contains(buf.String(), `"`+m.name+`"`) {
			t.Errorf("result line lacks %s", m.name)
		}
	}
}
