package wio_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
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

// refReadBlock is Block.ReadFields as one ReadFloat64 per element, the
// decoding half of the reference BenchmarkBlockCodec measures against; on
// error b.V holds the elements read before it.
func refReadBlock(r *wio.Reader, b *sysml.Block) error {
	var err error
	if b.R, err = r.ReadInt32(); err != nil {
		return err
	}
	if b.C, err = r.ReadInt32(); err != nil {
		return err
	}
	n := int(b.R) * int(b.C)
	if cap(b.V) < n {
		b.V = make([]float64, n)
	}
	b.V = b.V[:n]
	for i := range b.V {
		if b.V[i], err = r.ReadFloat64(); err != nil {
			b.V = b.V[:i]
			return err
		}
	}
	return nil
}

// BenchmarkBlockCodec is the rung under every sysml job: one 100x100 dense
// block (80 KB, pagerank_iter's record) encoded and decoded through the bulk
// float64 codec and through the per-element loops it replaced, in both
// Writer/Reader modes and warm (destination already grown), plus the clone
// M3R pays per unmarked output pair. ns/op is ns per record.
func BenchmarkBlockCodec(b *testing.B) {
	blk := sysml.RandomBlock(100, 100, 1, 0)
	blob, err := wio.Marshal(blk)
	if err != nil {
		b.Fatal(err)
	}
	codecs := []struct {
		name  string
		write func(*wio.Writer, *sysml.Block) error
		read  func(*wio.Reader, *sysml.Block) error
	}{
		{"per-element-reference", func(w *wio.Writer, v *sysml.Block) error { refWrite(w, v); return nil }, refReadBlock},
		{"bulk", func(w *wio.Writer, v *sysml.Block) error { return v.WriteTo(w) }, func(r *wio.Reader, v *sysml.Block) error { return v.ReadFields(r) }},
	}
	for _, c := range codecs {
		for _, mode := range []string{"slice", "stream"} {
			stream := mode == "stream"
			b.Run(c.name+"/"+mode+"/encode", func(b *testing.B) {
				var sink bytes.Buffer
				sink.Grow(len(blob))
				var w wio.Writer
				b.SetBytes(int64(len(blob)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if stream {
						sink.Reset()
						w.Reset(&sink)
					} else {
						w.ResetBytes(w.Bytes()[:0])
					}
					if err := c.write(&w, blk); err != nil || w.Count() != int64(len(blob)) {
						b.Fatal(err, w.Count())
					}
				}
			})
			b.Run(c.name+"/"+mode+"/decode", func(b *testing.B) {
				into := sysml.NewBlock(100, 100)
				src := bytes.NewReader(blob)
				var r wio.Reader
				b.SetBytes(int64(len(blob)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if stream {
						src.Reset(blob)
						r.Reset(src)
					} else {
						r.ResetBytes(blob)
					}
					if err := c.read(&r, into); err != nil || r.Count() != int64(len(blob)) {
						b.Fatal(err, r.Count())
					}
				}
			})
		}
	}
	b.Run("clone", func(b *testing.B) {
		b.SetBytes(int64(len(blob)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out, err := wio.Clone(blk)
			if err != nil {
				b.Fatal(err)
			}
			benchSink = out
		}
	})
}

// remotePairs is one map task's remote output on the shuffle microbenchmark:
// n integer keys with distinct valBytes-byte values.
func remotePairs(n, valBytes int) []wio.Pair {
	pairs := make([]wio.Pair, n)
	for i := range pairs {
		v := make([]byte, valBytes)
		for j := range v {
			v[j] = byte(i + j)
		}
		pairs[i] = wio.Pair{Key: types.NewInt(int32(i)), Value: types.NewBytes(v)}
	}
	return pairs
}

// BenchmarkEncodePair is the encode half of the layer ladder's wio rung:
// 2 000 pairs with 2 KiB values through a new de-duplicating Encoder per
// stream, as the rung encodes each run. What it prices beside the copy of
// the value is the bookkeeping per object: the type id (a scan over the
// stream's reflect.Types) and the identity table insert. ns/op is ns per
// pair.
func BenchmarkEncodePair(b *testing.B) {
	pairs := remotePairs(2000, 2048)
	var sink bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += len(pairs) {
		sink.Reset()
		enc := wio.NewEncoder(&sink, true)
		for _, p := range pairs[:min(len(pairs), b.N-i)] {
			if err := enc.EncodePair(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(sink.Len() / len(pairs)))
}

// BenchmarkDecodePair is the decode half of a remote shuffle record as a
// shuffle's arrival reads it (spill.Buffer.Unpack): a key and a value read
// out of the arrived bytes, per value size and Reader mode — copying (every
// body allocated and copied out of the frame) against owned (bodies of
// OwnedFloor bytes or more point into it). The sizes straddle the floor;
// ns/op is ns per pair.
func BenchmarkDecodePair(b *testing.B) {
	for _, valBytes := range []int{64, 255, 256, 2048} {
		pairs := remotePairs(2000, valBytes)
		var w wio.Writer
		for _, p := range pairs {
			if err := p.Key.WriteTo(&w); err != nil {
				b.Fatal(err)
			}
			if err := p.Value.WriteTo(&w); err != nil {
				b.Fatal(err)
			}
		}
		frame := w.Bytes()
		for _, owned := range []bool{false, true} {
			mode := "copying"
			if owned {
				mode = "owned"
			}
			b.Run(fmt.Sprintf("value=%d/%s", valBytes, mode), func(b *testing.B) {
				var r wio.Reader
				b.SetBytes(int64(len(frame) / len(pairs)))
				b.ReportAllocs()
				for i := 0; i < b.N; i += len(pairs) {
					if owned {
						r.ResetBytesOwned(frame)
					} else {
						r.ResetBytes(frame)
					}
					for range min(len(pairs), b.N-i) {
						k, v := new(types.IntWritable), new(types.BytesWritable)
						if err := k.ReadFields(&r); err != nil {
							b.Fatal(err)
						}
						if err := v.ReadFields(&r); err != nil {
							b.Fatal(err)
						}
						benchSink = v
					}
				}
			})
		}
	}
}

// TestEncodePairAllocs: a de-duplicating Encoder encodes a remote shuffle
// record — an IntWritable key, a 2 KiB BytesWritable value — without an
// allocation of its own per pair: what a new encoder's stream allocates is
// the encoder, its type table and the growth of its identity table, which
// remembers every object. On a stream of 2 000 pairs that is 51 allocations
// (go1.24, amd64), held under one in 25 pairs.
func TestEncodePairAllocs(t *testing.T) {
	pairs := remotePairs(2000, 2048)
	var sink bytes.Buffer
	sink.Grow(len(pairs) * 2100)
	stream := func() {
		sink.Reset()
		enc := wio.NewEncoder(&sink, true)
		for _, p := range pairs {
			if err := enc.EncodePair(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := enc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	stream()
	// Mallocs counts the whole process, so a stray allocation of another
	// goroutine can land in a try.
	fewest := uint64(math.MaxUint64)
	for range 3 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		stream()
		runtime.ReadMemStats(&ms1)
		fewest = min(fewest, ms1.Mallocs-ms0.Mallocs)
	}
	t.Logf("a stream of %d pairs allocates %d times", len(pairs), fewest)
	if limit := uint64(len(pairs) / 25); fewest > limit {
		t.Errorf("a stream of %d pairs allocates %d times, want at most %d", len(pairs), fewest, limit)
	}
}
