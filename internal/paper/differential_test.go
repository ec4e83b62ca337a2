package paper

// Executor differential harness: every modeled paper metric must be
// byte-for-byte identical whether the shaders run on the bytecode VM (the
// default) or the reference AST interpreter. The vc4 timing model derives
// every reported number from shader.Stats counters, so any divergence in
// operation accounting shows up here as a changed metric.

import (
	"reflect"
	"testing"

	"glescompute/internal/codec"
	"glescompute/internal/core"
	"glescompute/internal/nn"
)

// withInterpreter runs fn twice — once per executor — and returns both
// results.
func withBothExecutors(t *testing.T, fn func() interface{}) (vm, interp interface{}) {
	t.Helper()
	saved := baseDeviceConfig
	defer func() { baseDeviceConfig = saved }()

	baseDeviceConfig = saved
	baseDeviceConfig.Exec.UseInterpreter = false
	vm = fn()
	baseDeviceConfig.Exec.UseInterpreter = true
	interp = fn()
	return vm, interp
}

func assertIdentical(t *testing.T, name string, vm, interp interface{}) {
	t.Helper()
	if !reflect.DeepEqual(vm, interp) {
		t.Errorf("%s: VM and interpreter results diverge:\nvm:     %+v\ninterp: %+v", name, vm, interp)
	}
}

func TestDifferentialSum(t *testing.T) {
	for _, elem := range []codec.ElemType{codec.Int32, codec.Float32} {
		vm, interp := withBothExecutors(t, func() interface{} {
			s, err := RunSum(elem, 1<<20, 1<<12)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
		assertIdentical(t, "sum "+elem.String(), vm, interp)
	}
}

func TestDifferentialSgemm(t *testing.T) {
	for _, elem := range []codec.ElemType{codec.Int32, codec.Float32} {
		vm, interp := withBothExecutors(t, func() interface{} {
			s, err := RunSgemm(elem, 1024, 8, 16)
			if err != nil {
				t.Fatal(err)
			}
			return s
		})
		assertIdentical(t, "sgemm "+elem.String(), vm, interp)
	}
}

func TestDifferentialPrecision(t *testing.T) {
	vm, interp := withBothExecutors(t, func() interface{} {
		res, err := RunPrecision(100)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	assertIdentical(t, "precision", vm, interp)
}

func TestDifferentialInt24(t *testing.T) {
	vm, interp := withBothExecutors(t, func() interface{} {
		res, err := RunInt24()
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	assertIdentical(t, "int24", vm, interp)
}

func TestDifferentialCodecOverhead(t *testing.T) {
	vm, interp := withBothExecutors(t, func() interface{} {
		res, err := RunCodecOverhead(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	assertIdentical(t, "codec-overhead", vm, interp)
}

func TestDifferentialSFUSweep(t *testing.T) {
	vm, interp := withBothExecutors(t, func() interface{} {
		points, err := RunSFUSweep(50)
		if err != nil {
			t.Fatal(err)
		}
		return points
	})
	assertIdentical(t, "sfu-sweep", vm, interp)
}

func TestDifferentialHalfFloat(t *testing.T) {
	vm, interp := withBothExecutors(t, func() interface{} {
		res, err := RunHalfFloatComparison(100)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	assertIdentical(t, "half-float", vm, interp)
}

// TestDifferentialRawStats compares the raw per-draw operation counters —
// the quantities every modeled metric is derived from — between the two
// executors on the sum kernel.
func TestDifferentialRawStats(t *testing.T) {
	type capture struct {
		Frag, Vert interface{}
		Out        []int32
	}
	run := func(useInterp bool) capture {
		dev, err := core.Open(core.Config{Exec: core.ExecConfig{UseInterpreter: useInterp}})
		if err != nil {
			t.Fatal(err)
		}
		defer dev.Close()
		n := 1 << 10
		ba, err := dev.NewBuffer(codec.Int32, n)
		if err != nil {
			t.Fatal(err)
		}
		bb, _ := dev.NewBuffer(codec.Int32, n)
		bo, _ := dev.NewBuffer(codec.Int32, n)
		a := make([]int32, n)
		b := make([]int32, n)
		for i := range a {
			a[i] = int32(i*13 - 999)
			b[i] = int32(7777 - i*29)
		}
		if err := ba.WriteInt32(a); err != nil {
			t.Fatal(err)
		}
		if err := bb.WriteInt32(b); err != nil {
			t.Fatal(err)
		}
		k, err := dev.BuildKernel(core.KernelSpec{
			Name:    "sum",
			Inputs:  []core.Param{{Name: "a", Type: codec.Int32}, {Name: "b", Type: codec.Int32}},
			Outputs: []core.OutputSpec{{Name: "out", Type: codec.Int32}},
			Source:  "float gc_kernel(float idx) { return gc_a(idx) + gc_b(idx); }",
		})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := k.Run1(bo, []*core.Buffer{ba, bb}, nil)
		if err != nil {
			t.Fatal(err)
		}
		out, err := bo.ReadInt32()
		if err != nil {
			t.Fatal(err)
		}
		return capture{Frag: stats.Draw.FragmentStats, Vert: stats.Draw.VertexStats, Out: out}
	}
	vm := run(false)
	interp := run(true)
	assertIdentical(t, "fragment stats", vm.Frag, interp.Frag)
	assertIdentical(t, "vertex stats", vm.Vert, interp.Vert)
	assertIdentical(t, "output bytes", vm.Out, interp.Out)
}

func TestDifferentialPipelineChain(t *testing.T) {
	vm, interp := withBothExecutors(t, func() interface{} {
		res, err := RunPipelineChain(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	assertIdentical(t, "pipeline chain", vm, interp)
}

// TestDifferentialNN runs the N1 workload itself — the generated LeNet
// programs the bytecode optimizer exists for — on both engines: the int8
// vec4 fused network at batch 1 and 2, and the float network. Outputs and
// the whole PipelineStats (draw Stats, modeled times, pass structure) must
// be identical.
func TestDifferentialNN(t *testing.T) {
	cases := []struct {
		name  string
		model *nn.Model
		batch int
		input interface{}
	}{
		{"int8-b1", nn.DemoLeNetInt8(1), 1, nn.DemoInputInt8(2, 1)},
		{"int8-b2", nn.DemoLeNetInt8(1), 2, nn.DemoInputInt8(2, 2)},
		{"float-b1", nn.DemoLeNetFloat32(1), 1, nn.DemoInputFloat32(2, 1)},
	}
	for _, c := range cases {
		vm, interp := withBothExecutors(t, func() interface{} {
			cfg := deviceConfig()
			cfg.Exec.Fusion = core.Enabled
			if c.model.Elem() == codec.Int8 {
				cfg.Exec.Vec4Lanes = 4
			}
			dev, err := core.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			net, err := c.model.Build(dev, c.batch, false)
			if err != nil {
				t.Fatal(err)
			}
			defer net.Close()
			res, err := net.Run(c.input)
			if err != nil {
				t.Fatal(err)
			}
			return res
		})
		assertIdentical(t, "nn "+c.name, vm, interp)
	}
}
