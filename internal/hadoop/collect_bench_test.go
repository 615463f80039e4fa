package hadoop

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// BenchmarkHadoopCollect is the Hadoop map task's collect: records
// serialized into the sort buffer's arena, 4 096 a spill, and the arena
// reset as a spill resets it. Rows: WordCount's (Text, Int) and the
// shuffle microbenchmark's 2 KiB values; ns/rec and allocs/rec.
func BenchmarkHadoopCollect(b *testing.B) {
	const perSpill = 4096
	// A reset poisons every chunk under the test hook; time the collect.
	defer spill.PoisonRecycledBlocks.Store(spill.PoisonRecycledBlocks.Swap(false))
	keys := make([]wio.Writable, 512)
	for i := range keys {
		keys[i] = types.NewText(fmt.Sprintf("word-%d", i))
	}
	for _, row := range []struct {
		name  string
		value wio.Writable
	}{
		{"text-int", types.NewInt(1)},
		{"2KiB-values", types.NewBytes(bytes.Repeat([]byte{'v'}, 2048))},
	} {
		b.Run(row.name, func(b *testing.B) {
			kv := spill.GetBuffer()
			defer kv.Release()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for range b.N {
				for i := range perSpill {
					if _, err := kv.Collect(i%4, keys[i%len(keys)], row.value, false); err != nil {
						b.Fatal(err)
					}
				}
				kv.Reset()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			recs := float64(b.N) * perSpill
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/rec")
		})
	}
}
