package nn

import (
	"testing"

	"glescompute/internal/core"
)

// TestNetworkRunDispatchBudget bounds the host-side interpreter work of a
// warm int8 LeNet inference: the VM instructions one batch-1 Network.Run
// decodes (fused, vec4, one raster worker). The bytecode compiler folds
// constants, forwards destinations and inlines the runtime's accessors;
// without that the same run decodes 879,801 instructions.
func TestNetworkRunDispatchBudget(t *testing.T) {
	const budget = 450_000
	m := DemoLeNetInt8(1)
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	dev, err := core.Open(core.Config{Exec: core.ExecConfig{
		Fusion: core.Enabled, Vec4Lanes: 4, RasterWorkers: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	net, err := m.Build(dev, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	input := DemoInputInt8(2, 1)
	if _, err := net.Run(input); err != nil { // warm-up
		t.Fatal(err)
	}
	before := dev.GL().VMDispatches()
	if _, err := net.Run(input); err != nil {
		t.Fatal(err)
	}
	n := dev.GL().VMDispatches() - before
	t.Logf("warm int8 LeNet batch-1 run: %d VM dispatches (budget %d)", n, budget)
	if n == 0 || n > budget {
		t.Fatalf("warm int8 LeNet batch-1 run dispatched %d VM instructions, budget %d", n, budget)
	}
}
