package sched

import (
	"strings"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

// TestTypedInputFromBuffer checks the device-buffer constructor: the
// snapshot is taken at construction, so mutating the buffer afterwards
// must not change the job.
func TestTypedInputFromBuffer(t *testing.T) {
	dev, err := core.Open(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	const n = 32
	buf, err := dev.NewBuffer(codec.Float32, n)
	if err != nil {
		t.Fatal(err)
	}
	first := make([]float32, n)
	for i := range first {
		first[i] = float32(i) * 0.5
	}
	if err := buf.WriteFloat32(first); err != nil {
		t.Fatal(err)
	}
	// The ground truth for the snapshot: what the buffer reads back as
	// right now (the device float codec is involved either way, so the
	// comparison below is job-vs-job, not job-vs-host-math).
	snapshot, err := buf.ReadFloat32()
	if err != nil {
		t.Fatal(err)
	}
	in, err := FromBuffer(buf)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the buffer after the snapshot.
	second := make([]float32, n)
	if err := buf.WriteFloat32(second); err != nil {
		t.Fatal(err)
	}

	q, err := OpenQueue(Config{Devices: 1, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	run := func(in Input) []float32 {
		j, err := q.Submit(nil, JobSpec{Kernel: scaleSpec, In: []Input{in},
			Uniforms: map[string]float32{"u_s": 2}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := j.Wait(nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.Float32()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	got := run(in)
	want := run(Float32s(snapshot))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %v, want %v (snapshot must predate the overwrite)", i, got[i], want[i])
		}
	}
	if got[2] == 0 {
		t.Fatal("snapshot read the overwritten buffer")
	}
}

// TestTypedInputValidation pins the misuse error for the zero Input
// value.
func TestTypedInputValidation(t *testing.T) {
	q, err := OpenQueue(Config{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	_, err = q.Submit(nil, JobSpec{Kernel: scaleSpec, In: []Input{{}},
		Uniforms: map[string]float32{"u_s": 1}})
	if err == nil || !strings.Contains(err.Error(), "zero Input") {
		t.Errorf("zero-Input submit error = %v, want rejection", err)
	}
}
