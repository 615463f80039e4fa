package spill

import (
	"runtime"
	"testing"

	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// pairDecodeAllocs is what decoding a block of n (IntWritable, LongWritable)
// records allocates, the decoder included, told the count as a spilled cache
// block's read is; kept as the decoder's.
func pairDecodeAllocs(t *testing.T, n int, kept bool) float64 {
	t.Helper()
	pairs := make([]wio.Pair, n)
	for i := range pairs {
		pairs[i] = wio.Pair{Key: types.NewInt(int32(i)), Value: types.NewLong(int64(-i))}
	}
	recs, keyClass, valClass, _, err := MarshalRun(pairs)
	if err != nil {
		t.Fatal(err)
	}
	decode := func() {
		d, err := NewPairDecoder(keyClass, valClass, n, kept)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			p, err := d.Decode(rec)
			if err != nil {
				t.Fatal(err)
			}
			if k, v := p.Key.(*types.IntWritable).V, p.Value.(*types.LongWritable).V; k != int32(i) || v != int64(-i) {
				t.Fatalf("record %d decoded as (%d, %d)", i, k, v)
			}
		}
	}
	return testing.AllocsPerRun(20, decode)
}

func skipUnpinned(t *testing.T) {
	t.Helper()
	if testenv.Race {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("ceilings are pinned on amd64, not %s", runtime.GOARCH)
	}
}

// TestPairDecoderSlabAllocs is the ceiling of the PairDecoder decode site: a
// 1 000-record block, one key and one value class. Each class takes nine
// slabs (8, 8, 16, … 256, 256, 232) and one slab holder, and the decoder is
// one allocation. The ceiling is the measured 21 (go1.24, amd64; it repeats
// exactly) plus the benchmark's 3 % bound, rounded up.
func TestPairDecoderSlabAllocs(t *testing.T) {
	skipUnpinned(t)
	const n, ceiling = 1000, 22
	got := pairDecodeAllocs(t, n, false)
	t.Logf("%v allocs a %d-record block", got, n)
	if got > ceiling {
		t.Errorf("a %d-record block allocates %v times, ceiling %v", n, got, ceiling)
	}
}

// TestShortBlocksTakeSharedSlabs pins the short-site rule. A block of fewer
// than eight records whose objects die with the job takes every object from
// its class's shared slab, so with the shared slabs warm it allocates only
// the decoder — where the factory took one allocation an object. One whose
// objects a cache may keep (a spilled cache block's read) still takes every
// object from the factory: the decoder and one allocation an IntWritable or
// LongWritable.
func TestShortBlocksTakeSharedSlabs(t *testing.T) {
	skipUnpinned(t)
	for _, n := range []int{1, 3, 7} {
		if got, want := pairDecodeAllocs(t, n, false), 1.0; got != want {
			t.Errorf("a %d-record transient block allocates %v times, want %v: the decoder", n, got, want)
		}
		if got, want := pairDecodeAllocs(t, n, true), float64(1+2*n); got != want {
			t.Errorf("a %d-record kept block allocates %v times, the factory %v", n, got, want)
		}
	}
}
