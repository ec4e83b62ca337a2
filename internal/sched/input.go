package sched

// Typed job inputs. Input moves the element type into the constructor
// call, so a wrong slice type reads wrong at the call site instead of
// surfacing at Submit, and the zero value is detectably invalid.

import (
	"fmt"

	"glescompute/internal/codec"
	"glescompute/internal/core"
)

// Input is one typed host input to a job, built with Float32s, Int32s,
// Uint32s, Int8s, Bytes or FromBuffer. The zero value is invalid and is
// rejected at Submit.
type Input struct {
	data interface{}
}

// Float32s wraps a []float32 input.
func Float32s(v []float32) Input { return Input{data: v} }

// Int32s wraps a []int32 input.
func Int32s(v []int32) Input { return Input{data: v} }

// Uint32s wraps a []uint32 input.
func Uint32s(v []uint32) Input { return Input{data: v} }

// Int8s wraps an []int8 input.
func Int8s(v []int8) Input { return Input{data: v} }

// Bytes wraps a []uint8 input.
func Bytes(v []uint8) Input { return Input{data: v} }

// FromBuffer snapshots a device buffer's current contents as a job input
// of the buffer's element type. The snapshot is taken here, on the
// caller's goroutine — later writes to the buffer do not affect the job.
func FromBuffer(b *core.Buffer) (Input, error) {
	var (
		data interface{}
		err  error
	)
	switch b.Elem() {
	case codec.Float32:
		data, err = b.ReadFloat32()
	case codec.Int32:
		data, err = b.ReadInt32()
	case codec.Uint32:
		data, err = b.ReadUint32()
	case codec.Int8:
		data, err = b.ReadInt8()
	case codec.Uint8:
		data, err = b.ReadUint8()
	default:
		return Input{}, fmt.Errorf("sched: FromBuffer: unsupported element type %s", b.Elem())
	}
	if err != nil {
		return Input{}, fmt.Errorf("sched: FromBuffer: %w", err)
	}
	return Input{data: data}, nil
}
