package wio_test

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"

	_ "m3r/internal/conf"
	_ "m3r/internal/counters"
	_ "m3r/internal/matrix"
	_ "m3r/internal/sysml"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// plainConstructors are the classes registered with a constructor of their
// package's, not new(T): whatever that constructor comes to set up, a slab
// of zero values would skip. Each crosses once per stream, never a slab's
// worth.
var plainConstructors = map[string]bool{
	"org.apache.hadoop.mapred.Counters":    true,
	"org.apache.hadoop.conf.Configuration": true,
}

// TestRegisterNewKeepsDecodedClassesOnSlabs: every registered class whose
// factory makes a fresh zero-valued *T a call — what new(T) makes — was
// registered by RegisterNew, so decode sites take it from slabs; a new
// writable registered through plain Register fails here. An object from a
// slab is a distinct zero value of its class, and NameOf names the class.
func TestRegisterNewKeepsDecodedClassesOnSlabs(t *testing.T) {
	zeroPtr := func(w wio.Writable) bool {
		v := reflect.ValueOf(w)
		return v.Kind() == reflect.Pointer && !v.IsNil() && v.Elem().IsZero()
	}
	slabs := 0
	for _, name := range wio.RegisteredNames() {
		f, err := wio.Factory(name)
		if err != nil {
			t.Fatal(err)
		}
		// A singleton, or a zero-size T whose new(T) is one address, is not
		// fresh.
		if a, b := f(), f(); a == b || !zeroPtr(a) || !zeroPtr(b) || plainConstructors[name] {
			continue
		}
		if !wio.HasSlab(name) {
			t.Errorf("%s: its factory makes a fresh zero value but it has no slab form; register it with wio.RegisterNew", name)
			continue
		}
		slabs++
		for _, kept := range []bool{false, true} {
			a, err := wio.NewAlloc(name, kept)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[wio.Writable]bool{}
			for i := 0; i < 600; i++ {
				left := -1
				if i%2 == 0 {
					left = 600 - i
				}
				w := a.New(left)
				if seen[w] {
					t.Fatalf("%s: object %d was handed out before", name, i)
				}
				seen[w] = true
				if reflect.TypeOf(w) != reflect.TypeOf(f()) || !zeroPtr(w) {
					t.Fatalf("%s: object %d is %T %v, not a zero value of the factory's type", name, i, w, w)
				}
				if got, err := wio.NameOf(w); err != nil || got != name {
					t.Fatalf("%s: NameOf object %d = %q, %v", name, i, got, err)
				}
			}
		}
	}
	// The 15 classes of types, sysml and matrix, at least.
	if slabs < 15 {
		t.Errorf("%d classes checked on slabs, want at least 15", slabs)
	}
}

// intLongStream encodes n (IntWritable, LongWritable) pairs and the end of
// the stream.
func intLongStream(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := wio.NewEncoder(&buf, false)
	for i := 0; i < n; i++ {
		if err := enc.EncodePair(wio.Pair{Key: types.NewInt(int32(i)), Value: types.NewLong(int64(-i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeAllocs is what one stream of n pairs allocates through a decoder
// that decoded one before (Decoder.Reaim): the stream's own allocations,
// its tables' growth aside.
func decodeAllocs(t *testing.T, n int) float64 {
	t.Helper()
	stream := intLongStream(t, n)
	var src bytes.Reader
	d := wio.NewDecoder(&src)
	decode := func() {
		src.Reset(stream)
		d.Reaim(&src)
		for i := 0; i < n; i++ {
			p, err := d.DecodePair()
			if err != nil {
				t.Fatal(err)
			}
			if k, v := p.Key.(*types.IntWritable).V, p.Value.(*types.LongWritable).V; k != int32(i) || v != int64(-i) {
				t.Fatalf("pair %d decoded as (%d, %d)", i, k, v)
			}
		}
		if _, err := d.Decode(); err != io.EOF {
			t.Fatalf("after %d pairs: %v, want the end of the stream", n, err)
		}
	}
	decode()
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

// TestDecoderSlabAllocs is the count of the wio.Decoder decode site, the
// layer ladder's wio rung: a 1 000-pair stream of one key and one value
// class, which the decoder is not told the length of. Each class takes
// eight objects from its shared slab, then a slab holder and slabs of its
// own of 8, 16, … 256, 256, 256: 2 × (1 + 8) = 18 allocations, exactly (a
// shared slab of 256 serves 32 such streams, which AllocsPerRun's whole
// average over 20 does not see).
func TestDecoderSlabAllocs(t *testing.T) {
	skipUnpinned(t)
	const n, want = 1000, 18
	got := decodeAllocs(t, n)
	t.Logf("%v allocs a %d-pair stream", got, n)
	if got != want {
		t.Errorf("a %d-pair stream allocates %v times, want %v", n, got, want)
	}
}

// TestShortStreamsTakeSharedSlabs: a stream of fewer than eight pairs takes
// every object from its class's shared slab, so with the decoder's tables
// and the shared slabs warm it allocates nothing — where the factory took
// one allocation an IntWritable or LongWritable. PageRank's arrivals are
// one to seven pairs long.
func TestShortStreamsTakeSharedSlabs(t *testing.T) {
	skipUnpinned(t)
	for _, n := range []int{1, 3, 7} {
		if got := decodeAllocs(t, n); got != 0 {
			t.Errorf("a %d-pair stream allocates %v times, want 0", n, got)
		}
	}
}
