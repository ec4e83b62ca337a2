package nn

import (
	"fmt"
	"testing"

	"glescompute/internal/core"
)

// BenchmarkNetworkRunInt8 measures host wall time of one warm int8 LeNet
// Network.Run at batch 1 and batch 8 on a single raster worker: the
// shader VM's share of a served inference, without a serving harness.
//
//	go test -run '^$' -bench NetworkRunInt8 ./internal/nn
func BenchmarkNetworkRunInt8(b *testing.B) {
	m := DemoLeNetInt8(1)
	if err := m.Err(); err != nil {
		b.Fatal(err)
	}
	for _, batch := range []int{1, 8} {
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			dev, err := core.Open(core.Config{Exec: core.ExecConfig{
				Fusion: core.Enabled, Vec4Lanes: 4, RasterWorkers: 1,
			}})
			if err != nil {
				b.Fatal(err)
			}
			defer dev.Close()
			net, err := m.Build(dev, batch, false)
			if err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			input := DemoInputInt8(2, batch)
			if _, err := net.Run(input); err != nil { // warm-up
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := net.Run(input); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "ms/run")
		})
	}
}
