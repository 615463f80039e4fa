package wio_test

import (
	"testing"

	"m3r/internal/sysml"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// The wio rungs of the layer ladder: one record-sized value (a WordCount
// key) and one block-sized value (a 32x32 SystemML block, 8 KiB) through
// Marshal, Unmarshal and Clone.

var benchValues = []struct {
	name string
	v    wio.Writable
}{
	{"text", types.NewText("a word of ordinary length")},
	{"block32", sysml.RandomBlock(32, 32, 1, 0)},
}

var benchSink any

func BenchmarkMarshal(b *testing.B) {
	for _, bv := range benchValues {
		b.Run(bv.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := wio.Marshal(bv.v)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	for _, bv := range benchValues {
		b.Run(bv.name, func(b *testing.B) {
			blob, err := wio.Marshal(bv.v)
			if err != nil {
				b.Fatal(err)
			}
			name, _ := wio.NameOf(bv.v)
			into, _ := wio.New(name)
			b.SetBytes(int64(len(blob)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := wio.Unmarshal(blob, into); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkClone(b *testing.B) {
	for _, bv := range benchValues {
		b.Run(bv.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := wio.Clone(bv.v)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = out
			}
		})
	}
}
