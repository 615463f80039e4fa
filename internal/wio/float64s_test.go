package wio_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/iotest"

	"m3r/internal/matrix"
	"m3r/internal/spill"
	"m3r/internal/sysml"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// WriteFloat64s and ReadFloat64s must be indistinguishable on the wire from
// one WriteFloat64/ReadFloat64 per element. The per-element loops the three
// block types used to carry live on here as the reference.

// specialBits are the values a codec that went through float64 arithmetic or
// comparison, not bit patterns, would damage.
var specialBits = []uint64{
	0x0000000000000000, 0x8000000000000000, // ±0
	0x7ff0000000000000, 0xfff0000000000000, // ±Inf
	0x7ff8000000000001, 0x7ff4000000000002, 0xfff8dead0000beef, 0x7ff0000000000001, // NaNs, quiet and signalling
	0x0000000000000001, 0x800fffffffffffff, 0x000123456789abcd, // subnormals
	0x3ff0000000000000, 0x0102030405060708,
}

// floatsOfLen returns n doubles: the special values first, then random bits.
func floatsOfLen(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	vs := make([]float64, n)
	for i := range vs {
		if i < len(specialBits) {
			vs[i] = math.Float64frombits(specialBits[i])
		} else {
			vs[i] = math.Float64frombits(rng.Uint64())
		}
	}
	return vs
}

func bitsOf(vs []float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func refWriteFloat64s(w *wio.Writer, vs []float64) {
	for _, v := range vs {
		w.WriteFloat64(v)
	}
}

func refWriteInt32s(w *wio.Writer, vs []int32) {
	w.WriteUvarint(uint64(len(vs)))
	for _, v := range vs {
		w.WriteVarint(int64(v))
	}
}

// refWrite is the per-element serialization of the array-bearing writables,
// as the parent commit's WriteTo methods spelled it.
func refWrite(w *wio.Writer, v wio.Writable) {
	switch v := v.(type) {
	case *sysml.Block:
		w.WriteInt32(v.R)
		w.WriteInt32(v.C)
		refWriteFloat64s(w, v.V)
	case *sysml.SparseBlock:
		w.WriteInt32(v.R)
		w.WriteInt32(v.C)
		w.WriteUvarint(uint64(len(v.V)))
		for i := range v.R {
			w.WriteUvarint(uint64(v.Idx[i+1] - v.Idx[i]))
		}
		for _, j := range v.Idx[v.R+1:] {
			w.WriteUvarint(uint64(j))
		}
		refWriteFloat64s(w, v.V)
	case *sysml.TaggedBlock:
		if v.Sparse {
			w.WriteByte(v.Tag | 0x80)
			refWrite(w, &v.S)
			break
		}
		w.WriteByte(v.Tag)
		refWrite(w, &v.B)
	case *matrix.CSCBlock:
		w.WriteInt32(v.Rows)
		w.WriteInt32(v.Cols)
		refWriteInt32s(w, v.ColPtr)
		refWriteInt32s(w, v.RowIdx)
		refWriteFloat64s(w, v.Vals)
	case *matrix.DenseBlock:
		w.WriteUvarint(uint64(len(v.Vals)))
		refWriteFloat64s(w, v.Vals)
	case *matrix.BlockValue:
		switch {
		case v.CSC != nil:
			w.WriteByte(0)
			refWrite(w, v.CSC)
		case v.Dense != nil:
			w.WriteByte(1)
			refWrite(w, v.Dense)
		default:
			w.WriteByte(2)
		}
	default:
		panic(fmt.Sprintf("no reference writer for %T", v))
	}
}

// arrayWritables returns one value of every array-bearing writable holding
// n doubles.
func arrayWritables(n int) []wio.Writable {
	vs := floatsOfLen(n, int64(n))
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i * 37)
	}
	csc := &matrix.CSCBlock{Rows: int32(37 * n), Cols: 2, ColPtr: []int32{0, int32(n / 2), int32(n)}, RowIdx: idx, Vals: vs}
	dense := &matrix.DenseBlock{Vals: vs}
	sparse := sysml.Sparsify(&sysml.Block{R: 2, C: int32(n), V: append(slices.Clone(vs), vs...)})
	return []wio.Writable{
		&sysml.Block{R: 1, C: int32(n), V: vs},
		sysml.NewTagged(7, &sysml.Block{R: int32(n), C: 1, V: vs}),
		sparse, &sysml.TaggedBlock{Tag: 1, Sparse: true, S: *sparse},
		csc, dense, matrix.WrapCSC(csc), matrix.WrapDense(dense),
	}
}

// bulkLens straddles the 64-element stream chunk from both sides.
var bulkLens = []int{0, 1, 63, 64, 65, 10000}

func TestBulkBytesMatchPerElementReference(t *testing.T) {
	for _, n := range bulkLens {
		for _, v := range arrayWritables(n) {
			var ref wio.Writer
			refWrite(&ref, v)
			want := ref.Bytes()

			var sink bytes.Buffer
			stream := wio.NewWriter(&sink)
			if err := v.WriteTo(stream); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sink.Bytes(), want) || stream.Count() != int64(len(want)) {
				t.Errorf("%T of %d: stream mode wrote %d bytes (Count %d), per-element reference %d; first difference at %d",
					v, n, sink.Len(), stream.Count(), len(want), firstDiff(sink.Bytes(), want))
			}
			var slice wio.Writer
			slice.ResetBytes([]byte("prefix"))
			if err := v.WriteTo(&slice); err != nil {
				t.Fatal(err)
			}
			if got := slice.Bytes(); !bytes.Equal(got, append([]byte("prefix"), want...)) || slice.Count() != int64(len(want)) {
				t.Errorf("%T of %d: slice mode wrote %d bytes (Count %d), per-element reference %d",
					v, n, len(got)-6, slice.Count(), len(want))
			}

			// And back, in both modes, to the same bit patterns.
			name, _ := wio.NameOf(v)
			for _, mode := range []string{"stream", "slice"} {
				out, _ := wio.New(name)
				var r wio.Reader
				if mode == "stream" {
					r.Reset(bytes.NewReader(want))
				} else {
					r.ResetBytes(want)
				}
				if err := out.ReadFields(&r); err != nil || r.Count() != int64(len(want)) {
					t.Fatalf("%T of %d, %s mode: ReadFields = %v after %d of %d bytes", v, n, mode, err, r.Count(), len(want))
				}
				var again wio.Writer
				refWrite(&again, out)
				if !bytes.Equal(again.Bytes(), want) {
					t.Errorf("%T of %d, %s mode: decoded value re-encodes differently at byte %d", v, n, mode, firstDiff(again.Bytes(), want))
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestMatrixBlockGoldenBytes pins one 3x3 MatrixBlock as the commit before
// the bulk codec wrote it, so a SequenceFile or spill run from then still
// reads: two int32 dimensions, nine big-endian doubles, nothing else.
func TestMatrixBlockGoldenBytes(t *testing.T) {
	const golden = "0000000300000003" +
		"3ff0000000000000" + "c004000000000000" + "0000000000000000" +
		"8000000000000000" + "7ff0000000000000" + "000012688b70e62b" +
		"400921fb54442d18" + "7ff8000000000abc" + "c3e0000000000000"
	b := &sysml.Block{R: 3, C: 3, V: []float64{
		1, -2.5, 0,
		math.Copysign(0, -1), math.Inf(1), 1e-310,
		math.Pi, math.Float64frombits(0x7ff8000000000abc), math.MinInt64,
	}}
	got, err := wio.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(got) != golden {
		t.Fatalf("MatrixBlock bytes changed:\n got %x\nwant %s", got, golden)
	}
	old, _ := hex.DecodeString(golden)
	back := new(sysml.Block)
	if err := wio.Unmarshal(old, back); err != nil {
		t.Fatal(err)
	}
	if back.R != 3 || back.C != 3 || !slices.Equal(bitsOf(back.V), bitsOf(b.V)) {
		t.Fatalf("golden bytes decode to %v %x", back, bitsOf(back.V))
	}
}

// readResult is what one way of reading n doubles from a truncated input
// produced.
type readResult struct {
	bits  []uint64
	err   error
	count int64
}

func (a readResult) same(b readResult) bool {
	return sameErr(a.err, b.err) && a.count == b.count && slices.Equal(a.bits, b.bits)
}

func newReader(data []byte, stream bool) *wio.Reader {
	r := new(wio.Reader)
	switch {
	case !stream:
		r.ResetBytes(data)
	case len(data) < 2000:
		// Short reads from the source, so io.ReadFull has to loop.
		r.Reset(iotest.OneByteReader(bytes.NewReader(data)))
	default:
		r.Reset(bytes.NewReader(data))
	}
	return r
}

// refReadFloat64s is the per-element loop: the elements before the error.
func refReadFloat64s(r *wio.Reader, n int) readResult {
	var vs []float64
	for i := 0; i < n; i++ {
		v, err := r.ReadFloat64()
		if err != nil {
			return readResult{bitsOf(vs), err, r.Count()}
		}
		vs = append(vs, v)
	}
	return readResult{bitsOf(vs), nil, r.Count()}
}

func bulkReadFloat64s(r *wio.Reader, dst []float64, n int) readResult {
	vs, err := r.ReadFloat64s(dst, uint64(n))
	return readResult{bitsOf(vs), err, r.Count()}
}

// TestReadFloat64sTruncationMatrix cuts an encoded array at every byte: the
// bulk read in both modes, into a fresh and into a recycled destination,
// agrees with the per-element loop on the value prefix, the error and Count.
func TestReadFloat64sTruncationMatrix(t *testing.T) {
	for _, n := range bulkLens {
		var w wio.Writer
		if err := w.WriteFloat64s(floatsOfLen(n, 99)); err != nil {
			t.Fatal(err)
		}
		data := w.Bytes()
		cuts := make([]int, 0, len(data)+1)
		if n <= 130 {
			for c := 0; c <= len(data); c++ {
				cuts = append(cuts, c)
			}
		} else {
			// Every byte around both ends and around each of the first chunk
			// boundaries, then a stride that is no multiple of 8.
			for c := 0; c <= len(data); c++ {
				if c < 1100 || c > len(data)-100 || c%1021 == 0 {
					cuts = append(cuts, c)
				}
			}
		}
		stale := make([]float64, n+3)
		for _, cut := range cuts {
			in := data[:cut]
			want := refReadFloat64s(newReader(in, true), n)
			if refSlice := refReadFloat64s(newReader(in, false), n); !want.same(refSlice) {
				t.Fatalf("n=%d cut %d: the reference loop disagrees with itself across modes: %v vs %v", n, cut, want, refSlice)
			}
			for _, stream := range []bool{true, false} {
				for _, dst := range [][]float64{nil, stale} {
					for i := range dst {
						dst[i] = -1
					}
					if got := bulkReadFloat64s(newReader(in, stream), dst, n); !got.same(want) {
						t.Fatalf("n=%d cut %d stream=%v recycled=%v: bulk read %d values, err %v, Count %d; per-element loop %d values, err %v, Count %d",
							n, cut, stream, dst != nil, len(got.bits), got.err, got.count, len(want.bits), want.err, want.count)
					}
				}
			}
		}
	}
}

func TestBlockTruncationMatchesPerElementLoop(t *testing.T) {
	data, err := wio.Marshal(&sysml.Block{R: 5, C: 13, V: floatsOfLen(65, 5)})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(data); cut++ {
		ref, rr := new(sysml.Block), newReader(data[:cut], true)
		err := refReadBlock(rr, ref)
		want := readResult{bitsOf(ref.V), err, rr.Count()}
		for _, stream := range []bool{true, false} {
			b := new(sysml.Block)
			r := newReader(data[:cut], stream)
			err := b.ReadFields(r)
			if got := (readResult{bitsOf(b.V), err, r.Count()}); !got.same(want) {
				t.Fatalf("cut %d stream=%v: Block read %d values, err %v, Count %d; per-element loop %d values, err %v, Count %d",
					cut, stream, len(got.bits), got.err, got.count, len(want.bits), want.err, want.count)
			}
		}
	}
}

// A count that cannot be right is refused before it costs anything.
func TestReadFloat64sRefusesBadCounts(t *testing.T) {
	data := make([]byte, 64)
	for _, n := range []uint64{1<<27 + 1, 1 << 63, math.MaxUint64} {
		for _, stream := range []bool{true, false} {
			r := newReader(data, stream)
			vs, err := r.ReadFloat64s(nil, n)
			if err == nil || len(vs) != 0 || r.Count() != 0 {
				t.Errorf("ReadFloat64s(%d) stream=%v = %d values, %v, Count %d; want an error and nothing consumed", n, stream, len(vs), err, r.Count())
			}
		}
	}
	if _, err := wio.CheckLen(1<<28+1, 4); err == nil {
		t.Error("CheckLen accepts more than the limit")
	}
	if n, err := wio.CheckLen(1<<28, 4); err != nil || n != 1<<28 {
		t.Errorf("CheckLen at the limit = %d, %v", n, err)
	}
}

func TestBlockCodecAllocationBounds(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	b := sysml.RandomBlock(100, 100, 1, 0)
	blob, err := wio.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	spare := make([]byte, 0, len(blob)+16)
	if a := testing.AllocsPerRun(50, func() { wio.AppendMarshal(spare, b) }); a != 0 {
		t.Errorf("AppendMarshal of a 100x100 block into spare capacity allocates %v times per call, want 0", a)
	}
	var sink bytes.Buffer
	sink.Grow(len(blob))
	w := wio.NewWriter(&sink)
	if a := testing.AllocsPerRun(50, func() {
		sink.Reset()
		b.WriteTo(w)
	}); a != 0 {
		t.Errorf("stream-mode encode of a 100x100 block into a grown buffer allocates %v times per call, want 0", a)
	}
	into := sysml.NewBlock(100, 100)
	if a := testing.AllocsPerRun(50, func() { wio.Unmarshal(blob, into) }); a != 0 {
		t.Errorf("Unmarshal into a block with capacity allocates %v times per call, want 0", a)
	}
	src := bytes.NewReader(blob)
	r := wio.NewReader(src)
	if a := testing.AllocsPerRun(50, func() {
		src.Reset(blob)
		into.ReadFields(r)
	}); a != 0 {
		t.Errorf("stream-mode decode into a block with capacity allocates %v times per call, want 0", a)
	}
}

// corruptArrays are serialized array-bearing writables whose dimensions,
// counts or index structure were damaged. "within" marks counts that pass the length limit, so
// only knowing how many bytes follow (slice mode) keeps them from costing
// their allocation.
var corruptArrays = []struct {
	name   string
	class  string
	hex    string
	within bool
}{
	{"block negative rows", sysml.BlockName, "ffffffff00000005" + "3ff0000000000000", false},
	{"block both negative", sysml.BlockName, "ffffffffffffffff" + "3ff0000000000000", false},
	{"block huge", sysml.BlockName, "7fffffff7fffffff" + "3ff0000000000000", false},
	{"block 8192x8192 of 1", sysml.BlockName, "0000200000002000" + "3ff0000000000000", true},
	{"block 1x3 cut in the third", sysml.BlockName, "0000000100000003" + "3ff0000000000000" + "3ff0000000000000" + "00000000", true},
	{"tagged block huge", sysml.TaggedBlockName, "02" + "00010000" + "00010000" + "3ff0000000000000", false},
	{"tagged block negative cols", sysml.TaggedBlockName, "02" + "00000001" + "80000000", false},
	{"dense 2^40", matrix.DenseBlockName, "808080808020", false},
	{"dense 2^64-1", matrix.DenseBlockName, "ffffffffffffffffff01" + "0000000000000000", false},
	{"dense 2^26 of 1", matrix.DenseBlockName, "80808020" + "3ff0000000000000", true},
	{"csc colptr 2^40", matrix.CSCBlockName, "0000000400000004" + "808080808020", false},
	{"csc colptr 2^27 of 3", matrix.CSCBlockName, "0000000400000004" + "80808040" + "000204", true},
	{"csc rowidx 2^40", matrix.CSCBlockName, "0000000400000001" + "02" + "0004" + "808080808020", false},
	{"csc rowidx 2^27 of 2", matrix.CSCBlockName, "0000000400000001" + "02" + "0004" + "80808040" + "0002", true},
	{"csc vals 3 of 1.5", matrix.CSCBlockName, "0000000400000001" + "02" + "0006" + "03" + "000204" + "3ff0000000000000" + "3ff0", true},
	{"csc negative rows", matrix.CSCBlockName, "ffffffff00000001" + "02" + "0000" + "00", false},
	{"csc 2 colptrs for 4 cols", matrix.CSCBlockName, "0000000400000004" + "02" + "0004" + "02" + "0012" + "3ff0000000000000" + "3ff0000000000000", false},
	{"csc colptr from 1", matrix.CSCBlockName, "0000000400000001" + "02" + "0202" + "00", false},
	{"csc colptr decreasing", matrix.CSCBlockName, "0000000400000002" + "03" + "000402" + "01" + "00" + "3ff0000000000000", false},
	{"csc colptr past rowidx", matrix.CSCBlockName, "0000000400000001" + "02" + "0006" + "02" + "0002" + "3ff0000000000000" + "3ff0000000000000", false},
	{"csc row 9 of 4", matrix.CSCBlockName, "0000000400000001" + "02" + "0004" + "02" + "0012" + "3ff0000000000000" + "3ff0000000000000", false},
	{"csc row -1", matrix.CSCBlockName, "0000000400000001" + "02" + "0002" + "01" + "01" + "3ff0000000000000", false},
	{"sparse negative cols", sysml.SparseBlockName, "00000002ffffffff" + "00" + "0000", false},
	{"sparse nnz 2^40", sysml.SparseBlockName, "4000000040000000" + "808080808020", false},
	{"sparse nnz 5 in 2x2", sysml.SparseBlockName, "0000000200000002" + "05" + "0302", false},
	{"sparse 2^27 rows of 1", sysml.SparseBlockName, "0800000000000001" + "00" + "00", false},
	{"sparse row counts past nnz", sysml.SparseBlockName, "0000000200000002" + "01" + "0101" + "00" + "3ff0000000000000", false},
	{"sparse row counts short of nnz", sysml.SparseBlockName, "0000000200000002" + "02" + "0100" + "0000" + "3ff0000000000000" + "3ff0000000000000", false},
	{"sparse column 2 of 2", sysml.SparseBlockName, "0000000200000002" + "01" + "0100" + "02" + "3ff0000000000000", false},
	{"sparse columns repeat", sysml.SparseBlockName, "0000000200000002" + "02" + "0200" + "0101" + "3ff0000000000000" + "3ff0000000000000", false},
	{"sparse columns decrease", sysml.SparseBlockName, "0000000200000002" + "02" + "0200" + "0100" + "3ff0000000000000" + "3ff0000000000000", false},
	{"sparse vals 2 of 1.5", sysml.SparseBlockName, "0000000200000002" + "02" + "0101" + "0000" + "3ff0000000000000" + "3ff0", false},
	{"tagged sparse negative rows", sysml.TaggedBlockName, "81" + "8000000000000001" + "00", false},
	{"blockvalue csc colptr 2^40", matrix.BlockValueName, "00" + "0000000400000004" + "808080808020", false},
	{"blockvalue dense 2^40", matrix.BlockValueName, "01" + "808080808020", false},
	{"blockvalue dense 2^26 of 0", matrix.BlockValueName, "01" + "80808020", true},
}

// allocatedDuring reports the bytes f allocated.
func allocatedDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCorruptArrayLengthsAreErrors feeds each damaged value to the two
// ways serialized records are decoded: an error every time, never a panic,
// and — the readers being slice-mode — memory in proportion to the bytes
// that are there (the 1 MiB allowance is the first chunk of a CSC or sparse
// block's index array plus the test's own), not to the count they claim.
func TestCorruptArrayLengthsAreErrors(t *testing.T) {
	for _, c := range corruptArrays {
		data, err := hex.DecodeString(c.hex)
		if err != nil {
			t.Fatal(err)
		}
		decoders := map[string]func() error{
			"Unmarshal": func() error {
				v, _ := wio.New(c.class)
				return wio.Unmarshal(data, v)
			},
			"spill run": func() error {
				d, err := spill.NewPairDecoder(types.IntName, c.class, 1, false)
				if err != nil {
					t.Fatal(err)
				}
				_, err = d.Decode(spill.Rec{K: []byte{0, 0, 0, 1}, V: data})
				return err
			},
		}
		if !c.within {
			// Past the limit no mode allocates, so the stream decoder is safe
			// to try; within it stream mode trusts the count, as ReadBytes does.
			decoders["Decoder.Decode (stream)"] = func() error {
				frame := append([]byte{1, 0, byte(len(c.class))}, c.class...)
				_, err := wio.NewDecoder(bytes.NewReader(append(frame, data...))).Decode()
				return err
			}
		}
		for how, decode := range decoders {
			var err error
			if got := allocatedDuring(func() { err = decode() }); got > 1<<20 {
				t.Errorf("%s through %s: allocated %d bytes for %d bytes of input", c.name, how, got, len(data))
			}
			if err == nil {
				t.Errorf("%s through %s: no error", c.name, how)
			}
		}
	}
}
