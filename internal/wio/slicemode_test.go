package wio_test

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/matrix"
	"m3r/internal/sysml"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// The slice-backed mode of Writer and Reader must be indistinguishable from
// the stream-backed one: same bytes, same values, same Count, same errors —
// io.EOF where a primitive starts at the end of input, io.ErrUnexpectedEOF
// where it is cut — at every truncation point. These tests drive both modes
// with the same script and compare after every step.

// sameErr reports whether two modes failed the same way: both nil, or the
// same message and the same EOF class.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error() &&
		errors.Is(a, io.EOF) == errors.Is(b, io.EOF) &&
		errors.Is(a, io.ErrUnexpectedEOF) == errors.Is(b, io.ErrUnexpectedEOF)
}

const numOps = 14

// writeOp applies primitive op (mod numOps) with an argument drawn from rng;
// arg is the step's argument as readOp gets it.
func writeOp(w *wio.Writer, op, arg byte, rng *rand.Rand) error {
	switch op % numOps {
	case 0:
		return w.WriteByte(byte(rng.Intn(256)))
	case 1:
		return w.WriteBool(rng.Intn(2) == 1)
	case 2:
		return w.WriteUint32(rng.Uint32())
	case 3:
		return w.WriteInt32(int32(rng.Uint32()))
	case 4:
		return w.WriteUint64(rng.Uint64())
	case 5:
		return w.WriteInt64(int64(rng.Uint64()))
	case 6:
		return w.WriteFloat64(math.Float64frombits(rng.Uint64()))
	case 7:
		return w.WriteVarint(int64(rng.Uint64()) >> uint(rng.Intn(64)))
	case 8:
		return w.WriteUvarint(rng.Uint64() >> uint(rng.Intn(64)))
	case 9:
		return w.WriteString(randString(rng))
	case 10, 11:
		return w.WriteBytes([]byte(randString(rng)))
	case 12:
		// As many bytes — and below as many doubles — as readOp will ask for
		// at this step, so that the ops after it stay aligned with what was
		// written and no stray bytes pose as a length prefix, which stream
		// mode would allocate for.
		p := make([]byte, arg%48)
		rng.Read(p)
		_, err := w.Write(p)
		return err
	default:
		vs := make([]float64, max(0, int(int8(arg))))
		for i := range vs {
			vs[i] = math.Float64frombits(rng.Uint64())
		}
		return w.WriteFloat64s(vs)
	}
}

func randString(rng *rand.Rand) string {
	b := make([]byte, rng.Intn(40))
	rng.Read(b)
	return string(b)
}

// opBufs are the buffers one reader's ops recycle.
type opBufs struct {
	b []byte
	f []float64
}

// readOp applies the reading counterpart of op, returning the value read.
// Op 11 reads into a recycled buffer, op 12 reads raw bytes through the
// io.Reader face and op 13 is the counted bulk read, into a recycled buffer
// too; arg sizes the raw read and is the bulk read's count, -128..127.
func readOp(r *wio.Reader, op, arg byte, bufs *opBufs) (any, error) {
	switch op % numOps {
	case 0:
		return r.ReadByte()
	case 1:
		return r.ReadBool()
	case 2:
		return r.ReadUint32()
	case 3:
		return r.ReadInt32()
	case 4:
		return r.ReadUint64()
	case 5:
		return r.ReadInt64()
	case 6:
		v, err := r.ReadFloat64()
		return math.Float64bits(v), err
	case 7:
		return r.ReadVarint()
	case 8:
		return r.ReadUvarint()
	case 9:
		return r.ReadString()
	case 10:
		return r.ReadBytes()
	case 11:
		b, err := r.ReadBytesBuf(bufs.b)
		if b != nil {
			bufs.b = b
		}
		return append([]byte(nil), b...), err
	case 12:
		p := make([]byte, arg%48)
		n, err := r.Read(p)
		return p[:n], err
	default:
		// A negative count arrives as a Writable's unsigned one would: huge.
		vs, err := r.ReadFloat64s(bufs.f, uint64(int8(arg)))
		if vs != nil {
			bufs.f = vs
		}
		return bitsOf(vs), err
	}
}

// stepArg is the argument of a script's i-th step.
func stepArg(i int) byte { return byte(i * 7) }

// compareReaders runs script over data in the stream mode, the slice mode,
// the owned slice mode at wio.OwnedFloor and at floor 0, the transient
// slice mode and a kept run's slice mode (StartRun), and fails on the first
// step where value, error or Count differ. Each owned reader gets a copy of
// data: a recycled buffer that is a view of the input (op 11 after a large
// body) is written through.
func compareReaders(t *testing.T, data, script []byte) {
	t.Helper()
	stream := wio.NewReader(bytes.NewReader(data))
	var slice, owned, block, transient, run wio.Reader
	slice.ResetBytes(data)
	owned.ResetBytesOwned(bytes.Clone(data), wio.OwnedFloor)
	block.ResetBytesOwned(bytes.Clone(data), 0)
	transient.ResetBytes(data)
	transient.SetTransient(true) // float bodies cut from the shared slab
	run.StartRun(len(data))      // float bodies cut from one slab of data's
	run.ResetBytes(data)
	var sbuf, mbuf, obuf, bbuf, tbuf, rbuf opBufs
	for i, op := range script {
		arg := stepArg(i)
		sv, serr := readOp(stream, op, arg, &sbuf)
		for _, m := range []struct {
			name string
			r    *wio.Reader
			bufs *opBufs
		}{{"slice", &slice, &mbuf}, {"owned", &owned, &obuf}, {"owned floor 0", &block, &bbuf}, {"transient", &transient, &tbuf}, {"kept run", &run, &rbuf}} {
			mv, merr := readOp(m.r, op, arg, m.bufs)
			if !sameErr(serr, merr) {
				t.Fatalf("step %d op %d over %d bytes: stream err %v, %s err %v", i, op%numOps, len(data), serr, m.name, merr)
			}
			if !reflect.DeepEqual(sv, mv) {
				t.Fatalf("step %d op %d over %d bytes: stream value %v, %s value %v", i, op%numOps, len(data), sv, m.name, mv)
			}
			if stream.Count() != m.r.Count() {
				t.Fatalf("step %d op %d over %d bytes: stream Count %d, %s Count %d", i, op%numOps, len(data), stream.Count(), m.name, m.r.Count())
			}
		}
	}
	if slice.Aliased() {
		t.Fatal("the copying slice mode reports a value pointing into its input")
	}
}

func TestSliceModePrimitivesMatchStreamMode(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]byte, 1+rng.Intn(24))
		rng.Read(script)

		var sink bytes.Buffer
		stream := wio.NewWriter(&sink)
		var slice wio.Writer
		slice.ResetBytes(nil)
		srng, mrng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		for i, op := range script {
			if err := writeOp(stream, op, stepArg(i), srng); err != nil {
				t.Fatal(err)
			}
			if err := writeOp(&slice, op, stepArg(i), mrng); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(sink.Bytes(), slice.Bytes()) || stream.Count() != slice.Count() {
				t.Fatalf("seed %d step %d op %d: stream wrote %x (Count %d), slice %x (Count %d)",
					seed, i, op%numOps, sink.Bytes(), stream.Count(), slice.Bytes(), slice.Count())
			}
		}
		// Read the script back at every truncation point, then two steps
		// past the end so the at-EOF behaviour of every primitive is hit.
		data := sink.Bytes()
		readScript := append(append([]byte(nil), script...), script[0], script[len(script)-1])
		for cut := 0; cut <= len(data); cut++ {
			compareReaders(t, data[:cut], readScript)
		}
	}
}

// FuzzSliceModeReader feeds arbitrary bytes — overlong varints, length
// prefixes past the end or past the limit — to an arbitrary read script.
func FuzzSliceModeReader(f *testing.F) {
	f.Add([]byte{}, []byte{0, 8, 9})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1}, []byte{8, 7, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, []byte{7, 8})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x10, 'x'}, []byte{9, 10, 11})
	f.Add([]byte{5, 'a', 'b'}, []byte{10, 0})
	f.Add([]byte{5, 'a', 'b'}, []byte{9, 12})
	f.Add([]byte{3, 'a', 'b', 'c', 0, 0, 0, 7, 1}, []byte{11, 2, 1, 12, 12})
	// Counted bulk reads (op 13) over 45 doubles. The count is 7x the step
	// index as an int8: 0, 7, 14, 21 fit, 28 is more than is left, the ones
	// after start at the end of input, and from step 19 on they are negative.
	f.Add(bytes.Repeat([]byte{0x40, 9, 0x21, 0xfb, 0x54, 0x44, 0x2d, 0x18, 0x7f}, 40), []byte{13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13})
	// A kept run's slab: bulk reads of 0, 7, 14 and 21 doubles over 42, each
	// fresh, so the slab made at the second read is used to its last double;
	// then one past the end.
	f.Add(bytes.Repeat([]byte{0x3f, 0xf0, 0, 0, 0, 0, 0, 1}, 42), []byte{13, 13, 13, 13, 13})
	// Bodies at and around wio.OwnedFloor, which the owned mode returns as
	// views: read fresh (10), into a recycled buffer (11), as a string (9),
	// and cut short.
	big := append([]byte{0x80, 0x02}, bytes.Repeat([]byte{'v'}, 256)...) // uvarint 256 + body
	f.Add(append(append([]byte(nil), big...), big...), []byte{10, 11})
	f.Add(append(append([]byte(nil), big...), big...), []byte{11, 11, 0})
	f.Add(big, []byte{9, 10})
	f.Add(big[:200], []byte{10})
	f.Add(append([]byte{0xff, 0x01}, bytes.Repeat([]byte{'w'}, 255)...), []byte{10, 10})
	f.Fuzz(func(t *testing.T, data, script []byte) {
		if len(script) > 64 {
			script = script[:64]
		}
		compareReaders(t, data, script)
	})
}

// sampleWritables returns at least one value of every writable the module
// registers, the empty and the large cases included.
func sampleWritables() []wio.Writable {
	cfg := conf.New()
	cfg.Set("a.key", "value")
	cfg.Set("another", "")
	ctrs := counters.New()
	ctrs.Incr("group", "name", 7)
	ctrs.Incr("group", "other", 1<<40)
	return []wio.Writable{
		types.NewInt(-5), types.NewLong(1 << 50), types.NewVLong(-300), types.NewDouble(math.Inf(-1)),
		types.NewBool(true), types.NewText(""), types.NewText("the quick brown fox"),
		types.NewBytes(bytes.Repeat([]byte{0xab}, 300)), types.Null(),
		types.NewPair(types.NewText("row"), types.NewInt(9)),
		types.NewPair(types.NewPair(types.NewLong(1), types.NewDouble(2)), types.NewBytes(nil)),
		cfg, ctrs,
		sysml.NewBlock(0, 0), sysml.RandomBlock(3, 4, 1, 0.3), sysml.NewTagged(2, sysml.RandomBlock(2, 2, 2, 0)),
		sysml.Sparsify(sysml.NewBlock(0, 0)), sysml.Sparsify(sysml.RandomBlock(5, 6, 3, 0.7)),
		&sysml.TaggedBlock{Tag: 1, Sparse: true, S: *sysml.Sparsify(sysml.RandomBlock(4, 3, 4, 0.6))},
		matrix.NewBlockKey(3, -1), matrix.RandomCSC(6, 5, 0.4, 3), matrix.RandomDense(7, 4),
		matrix.WrapCSC(matrix.RandomCSC(4, 4, 0.5, 5)), matrix.WrapDense(matrix.RandomDense(3, 6)), &matrix.BlockValue{},
	}
}

func TestSliceModeWritablesMatchStreamMode(t *testing.T) {
	seen := map[string]bool{}
	for _, v := range sampleWritables() {
		name, err := wio.NameOf(v)
		if err != nil {
			t.Fatal(err)
		}
		seen[name] = true
		var sink bytes.Buffer
		stream := wio.NewWriter(&sink)
		if err := v.WriteTo(stream); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := wio.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, sink.Bytes()) || stream.Count() != int64(len(got)) {
			t.Fatalf("%s: Marshal wrote %x, stream mode %x (Count %d)", name, got, sink.Bytes(), stream.Count())
		}
		appended, err := wio.AppendMarshal([]byte("prefix"), v)
		if err != nil || !bytes.Equal(appended, append([]byte("prefix"), got...)) {
			t.Fatalf("%s: AppendMarshal = %x, %v", name, appended, err)
		}
		for cut := 0; cut <= len(got); cut++ {
			sv, _ := wio.New(name)
			mv, _ := wio.New(name)
			sr := wio.NewReader(bytes.NewReader(got[:cut]))
			var mr wio.Reader
			mr.ResetBytes(got[:cut])
			serr, merr := sv.ReadFields(sr), mv.ReadFields(&mr)
			if !sameErr(serr, merr) || sr.Count() != mr.Count() {
				t.Fatalf("%s cut at %d of %d: stream err %v Count %d, slice err %v Count %d",
					name, cut, len(got), serr, sr.Count(), merr, mr.Count())
			}
			if cut < len(got) {
				continue
			}
			if serr != nil {
				t.Fatalf("%s: full-length decode: %v", name, serr)
			}
			if !reflect.DeepEqual(sv, mv) || !wio.Equal(mv, v) {
				t.Fatalf("%s: decoded %v (stream) and %v (slice) from %v", name, sv, mv, v)
			}
		}
	}
	for _, name := range []string{
		"org.apache.hadoop.io.IntWritable", "org.apache.hadoop.io.LongWritable", "org.apache.hadoop.io.DoubleWritable",
		"org.apache.hadoop.io.BooleanWritable", "org.apache.hadoop.io.Text", "org.apache.hadoop.io.BytesWritable",
		"org.apache.hadoop.io.NullWritable", "org.apache.hadoop.io.VLongWritable", types.PairName,
		"org.apache.hadoop.mapred.Counters", "org.apache.hadoop.conf.Configuration",
		sysml.BlockName, sysml.SparseBlockName, sysml.TaggedBlockName,
		matrix.BlockKeyName, matrix.CSCBlockName, matrix.DenseBlockName, matrix.BlockValueName,
	} {
		if !seen[name] {
			t.Errorf("no sample of registered writable %s", name)
		}
	}
}

// TestHashCodeOfSerializedFormIsFNV1a pins the partitioning hash of types
// without a HashCode of their own to hash/fnv's FNV-1a over Marshal's bytes.
func TestHashCodeOfSerializedFormIsFNV1a(t *testing.T) {
	for _, v := range sampleWritables() {
		if _, own := v.(wio.Hashable); own {
			continue
		}
		b, err := wio.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New32a()
		h.Write(b)
		if got := wio.HashCode(v); got != h.Sum32() {
			t.Errorf("HashCode(%T) = %#x, FNV-1a of its bytes is %#x", v, got, h.Sum32())
		}
	}
}

// TestDecoderBytesMatchesDecoder decodes one encoded frame — type table,
// back-references, nil, end marker — from a reader that hands it over whole
// and from one that hands it over a byte a read, at every truncation point:
// values, counts and errors do not depend on how the bytes come.
func TestDecoderBytesMatchesDecoder(t *testing.T) {
	var frame bytes.Buffer
	enc := wio.NewEncoder(&frame, true)
	shared := types.NewText("broadcast")
	for _, v := range []wio.Writable{types.NewInt(1), shared, nil, shared, types.NewText("x"), types.NewInt(2)} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= frame.Len(); cut++ {
		b := frame.Bytes()[:cut]
		sd, md := wio.NewDecoder(bytes.NewReader(b)), wio.NewDecoder(iotest.OneByteReader(bytes.NewReader(b)))
		for i := 0; ; i++ {
			sv, serr := sd.Decode()
			mv, merr := md.Decode()
			if !sameErr(serr, merr) || sd.Count() != md.Count() || !reflect.DeepEqual(sv, mv) {
				t.Fatalf("cut %d value %d: whole %v, %v (Count %d); a byte a read %v, %v (Count %d)",
					cut, i, sv, serr, sd.Count(), mv, merr, md.Count())
			}
			if serr != nil {
				break
			}
		}
	}
}

// The allocation bounds the record path is built on. AllocsPerRun averages,
// so a bound of 0 means no run allocated.
func TestMarshalAllocationBounds(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool sheds entries under the race detector")
	}
	text := types.NewText("a word of ordinary length")
	n := types.NewInt(42)
	blob, _ := wio.Marshal(n)
	into := new(types.IntWritable)
	spare := make([]byte, 0, 256)
	wio.Marshal(text) // warm the pools

	if a := testing.AllocsPerRun(200, func() { wio.Marshal(text) }); a > 1 {
		t.Errorf("Marshal allocates %v times per call, want at most 1 (the result)", a)
	}
	if a := testing.AllocsPerRun(200, func() { wio.Unmarshal(blob, into) }); a != 0 {
		t.Errorf("Unmarshal into IntWritable allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { wio.AppendMarshal(spare, text) }); a != 0 {
		t.Errorf("AppendMarshal into spare capacity allocates %v times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { wio.Equal(text, text) }); a != 0 {
		t.Errorf("Equal allocates %v times per call, want 0", a)
	}
	// A clone is the new object and its fields, nothing for the round trip:
	// an IntWritable is one allocation, a Text two (struct and bytes).
	if a := testing.AllocsPerRun(200, func() { wio.Clone(n) }); a > 1 {
		t.Errorf("Clone(IntWritable) allocates %v times per call, want at most 1", a)
	}
	if a := testing.AllocsPerRun(200, func() { wio.Clone(text) }); a > 2 {
		t.Errorf("Clone(Text) allocates %v times per call, want at most 2", a)
	}
}

// lateWritable is registered while readers are running. The registry is
// process-wide, so each run of the test (-count) registers under its own
// prefix; firstLate is the name the type got first.
type lateWritable struct{ types.IntWritable }

var (
	registryRuns atomic.Int32
	firstLate    string
)

// TestRegistryConcurrentRegisterAndLookup races Register against the
// lock-free readers; run under -race it pins the copy-on-write publication.
func TestRegistryConcurrentRegisterAndLookup(t *testing.T) {
	const names = 32
	prefix := fmt.Sprintf("test.concurrent.run%d.Late", registryRuns.Add(1))
	if firstLate == "" {
		firstLate = prefix + "0"
	}
	known := types.NewText("x")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if n, err := wio.NameOf(known); err != nil || n != "org.apache.hadoop.io.Text" {
					t.Errorf("NameOf(Text) = %q, %v during registration", n, err)
					return
				}
				if v, err := wio.New("org.apache.hadoop.io.IntWritable"); err != nil || v == nil {
					t.Errorf("New(IntWritable) = %v, %v during registration", v, err)
					return
				}
				for i := 0; i < names; i++ {
					name := fmt.Sprint(prefix, i)
					if wio.Registered(name) {
						if _, err := wio.New(name); err != nil {
							t.Errorf("%s is Registered but New fails: %v", name, err)
							return
						}
					}
				}
			}
		}()
	}
	for i := 0; i < names; i++ {
		wio.RegisterNew[lateWritable](fmt.Sprint(prefix, i))
	}
	close(stop)
	wg.Wait()
	for i := 0; i < names; i++ {
		if !wio.Registered(fmt.Sprint(prefix, i)) {
			t.Fatalf("registration %d lost", i)
		}
	}
	// The first name registered for a type stays its NameOf.
	if n, err := wio.NameOf(new(lateWritable)); err != nil || n != firstLate {
		t.Fatalf("NameOf(lateWritable) = %q, %v", n, err)
	}
	if _, err := wio.Factory("test.concurrent.Nope"); err == nil {
		t.Fatal("Factory of an unknown name should fail")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	wio.Register(prefix+"0", func() wio.Writable { return new(lateWritable) })
}
