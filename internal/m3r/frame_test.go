package m3r

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
	"m3r/internal/x10"
)

// budgetedTestExec is a jobExec for job on e with a private pool of budget
// bytes per place, set up as Submit sets a budgeted job up, ready for
// collectors to be made on it.
func budgetedTestExec(tb testing.TB, e *Engine, job *conf.JobConf, budget int64) *jobExec {
	tb.Helper()
	rj, err := engine.Resolve(job)
	if err != nil {
		tb.Fatal(err)
	}
	rj.SubstituteImmutableRunner()
	codec, err := spill.ParseCodec(job.Get(conf.KeyM3RSpillCodec))
	if err != nil {
		tb.Fatal(err)
	}
	x := &jobExec{e: e, Job: &engine.Job{ID: "job_test_0001", Conf: job, Resolved: rj, Counters: counters.New(), Codec: codec}, dedup: true}
	for p := 0; p < e.rt.NumPlaces(); p++ {
		x.budgets = append(x.budgets, engine.NewBudgetPool(budget).Job(x.ID, 0))
		x.resident = append(x.resident, engine.NewResidentIndex[residentRun]())
	}
	if x.classes, err = declaredRunClasses(rj); err != nil {
		tb.Fatal(err)
	}
	for q := 0; q < rj.NumReducers; q++ {
		x.parts = append(x.parts, &partitionInput{x: x, place: e.PlaceOfPartition(q)})
	}
	return x
}

// ghostWritable serializes like an IntWritable but is registered with wio
// under no name.
type ghostWritable struct{ types.IntWritable }

// TestBudgetedCollectChecksClasses: a budgeted run's bytes decode as one key
// class and one value class, so a pair of any other class must fail the
// task at its collect, in Hadoop's words — whether the job declared its
// map-output classes or the task's first pair fixed them — and a class wio
// cannot name fails the first collect that meets it, co-located or not.
func TestBudgetedCollectChecksClasses(t *testing.T) {
	for _, declared := range []bool{true, false} {
		t.Run(fmt.Sprintf("declared=%v", declared), func(t *testing.T) {
			e := newFaultEngine(t, 2)
			job := wordcount.NewJob("/data/t", "/out/classes", 2, true)
			job.Unset(conf.KeyCombinerClass)
			if !declared {
				for _, k := range []string{conf.KeyMapOutputKeyClass, conf.KeyMapOutputValueClass,
					conf.KeyOutputKeyClass, conf.KeyOutputValueClass} {
					job.Unset(k)
				}
			}
			x := budgetedTestExec(t, e, job, 1<<20)
			task := &layOutMapTasks(x, 1)[0]
			bufBase := encodeBufsOut.Load()
			collector := func() *shuffleCollector {
				sc := x.newShuffleCollector(task, engine.NewTaskContext(job, "task", nil))
				if err := sc.Collect(types.NewText("word"), types.NewInt(1)); err != nil {
					t.Fatal(err)
				}
				return sc
			}
			for _, c := range []struct {
				key, value wio.Writable
				want       string
			}{
				{types.NewText("word"), types.NewLong(1),
					"Type mismatch in value from map: expected " + types.IntName + ", received " + types.LongName},
				{types.NewInt(7), types.NewInt(1),
					"Type mismatch in key from map: expected " + types.TextName + ", received " + types.IntName},
				{types.NewText("word"), &ghostWritable{},
					"Type mismatch in value from map: expected " + types.IntName + ", received *m3r.ghostWritable"},
			} {
				sc := collector()
				if err := sc.Collect(c.key, c.value); err == nil || err.Error() != c.want {
					t.Errorf("Collect(%T, %T) = %v, want %q", c.key, c.value, err, c.want)
				}
				sc.abort()
			}
			if got := encodeBufsOut.Load(); got != bufBase {
				t.Errorf("encode buffers out %d, baseline %d", got, bufBase)
			}
		})
	}

	t.Run("unregistered", func(t *testing.T) {
		e := newFaultEngine(t, 2)
		job := wordcount.NewJob("/data/t", "/out/classes", 2, true)
		job.Unset(conf.KeyCombinerClass)
		job.Unset(conf.KeyMapOutputValueClass)
		job.Unset(conf.KeyOutputValueClass)
		x := budgetedTestExec(t, e, job, 1<<20)
		task := &layOutMapTasks(x, 1)[0]
		// One key per partition: place 0's own, and place 1's.
		for _, word := range []string{"a", "b", "c", "d"} {
			sc := x.newShuffleCollector(task, engine.NewTaskContext(job, "task", nil))
			err := sc.Collect(types.NewText(word), &ghostWritable{})
			if err == nil || !strings.Contains(err.Error(), "*m3r.ghostWritable is not registered") {
				t.Errorf("Collect of an unregistered value class = %v, want an error naming it", err)
			}
			sc.abort()
		}
	})
}

// twoClassMapper emits (word, IntWritable 1) pairs, and for the word "odd"
// a pair whose key or value — test.twoclass.which says — is of another
// class.
type twoClassMapper struct {
	mapred.Base
	which string
}

func (m *twoClassMapper) Configure(job *conf.JobConf) { m.which = job.Get("test.twoclass.which") }

func (m *twoClassMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	for _, tok := range bytes.Fields(value.(*types.Text).B) {
		var k, v wio.Writable = &types.Text{B: tok}, types.NewInt(1)
		if string(tok) == "odd" {
			switch m.which {
			case "key":
				k = types.NewLong(1)
			case "value":
				v = types.NewLong(1)
			}
		}
		if err := out.Collect(k, v); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	mapred.RegisterMapper("test.TwoClassMapper", func() mapred.Mapper { return &twoClassMapper{} })
}

// TestSecondMapOutputClassFailsBudgetedJob is the class check end to end: a
// mapper that emits a second key or value class under a budget used to have
// those bytes decoded as the first class at the merge; now the job fails in
// the map phase with Hadoop's error, and leaves nothing behind.
func TestSecondMapOutputClassFailsBudgetedJob(t *testing.T) {
	for _, which := range []string{"key", "value"} {
		t.Run(which, func(t *testing.T) {
			e := newFaultEngine(t, 2)
			cfs := e.CachingFS()
			w, err := cfs.Create("/data/two")
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(w, "even even even")
			fmt.Fprintln(w, "even odd even")
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			job := conf.NewJob()
			job.SetJobName("twoclass")
			job.Set("test.twoclass.which", which)
			job.SetInputFormatClass(formats.TextInputFormatName)
			job.SetOutputFormatClass(formats.TextOutputFormatName)
			job.AddInputPath("/data/two")
			job.SetOutputPath("/out/two")
			job.SetNumReduceTasks(2)
			job.SetMapperClass("test.TwoClassMapper")
			job.SetReducerClass(wordcount.SumReducerName)
			job.SetInt64(conf.KeyM3RShuffleBudget, 4<<10)
			streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
			_, err = e.Submit(job)
			want := "Type mismatch in " + which + " from map: expected "
			if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "received "+types.LongName) {
				t.Fatalf("job error = %v, want %q … received %s", err, want, types.LongName)
			}
			assertSpillBaselines(t, e, streamBase, bufBase)
		})
	}
}

// TestIdentityRule pins which objects a remote buffer refers back to: one
// whose serialized form is larger than the identity table's entry for it
// (32 bytes, spill.Buffer), and no other. The small value is written out
// every time; the large one is written once and referred back to, again
// written when dedup is off, and both arrive as the bytes they went in as.
func TestIdentityRule(t *testing.T) {
	one := types.NewInt(1)
	small := types.NewBytes(bytes.Repeat([]byte{'s'}, 31)) // a length byte and 31 more: 32
	big := types.NewBytes(bytes.Repeat([]byte{'b'}, 32))   // 33
	key := func(i int) wio.Writable { return types.NewText(fmt.Sprintf("key%04d", i)) }

	b := getBuffer()
	defer putBuffer(b)
	collect := func(q int, k, v wio.Writable, dedup bool) {
		if _, err := b.Collect(q, k, v, dedup); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		collect(i%2, key(i), one, true)
		collect(i%2, key(i), small, true)
	}
	for i := 0; i < 10; i++ {
		collect(i%2, key(i), big, true)
	}
	collect(0, key(0), big, false)

	var payload int
	_, _, hits, err := b.Ship(2, func(piece []byte) ([]byte, error) {
		payload = int(binary.BigEndian.Uint64(piece[len(piece)-16:])) // the last piece's footer
		return piece, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 9 {
		t.Fatalf("%d back-references, want 9: the large value's nine repeats with dedup on", hits)
	}
	// Ten keys of 8 bytes and their 5-byte ones and 32-byte smalls, then
	// ten keys and one big, then one key and the big again.
	if want := 20*8 + 10*4 + 10*32 + 10*8 + 33 + 8 + 33; payload != want {
		t.Fatalf("payload of %d bytes, want %d", payload, want)
	}
	if got := len(b.Partition(0)) + len(b.Partition(1)); got != 31 {
		t.Fatalf("%d records arrived, want 31", got)
	}
	bigBytes, _ := wio.Marshal(big)
	for q := range 2 {
		for i, r := range b.Partition(q)[10:] {
			if !bytes.Equal(r.V, bigBytes) {
				t.Fatalf("partition %d: record %d of the large value arrives as %d other bytes", q, i, len(r.V))
			}
		}
	}
}

// testFrame builds a frame by hand: the payload, the table as uvarints, and
// the footer's two numbers.
func testFrame(payload string, table []uint64, payloadLen, nrecs uint64) []byte {
	b := []byte(payload)
	for _, v := range table {
		b = binary.AppendUvarint(b, v)
	}
	b = binary.BigEndian.AppendUint64(b, payloadLen)
	return binary.BigEndian.AppendUint64(b, nrecs)
}

// frameSeeds are FuzzShuffleFrame's seeds: one good frame and one frame for
// each way a field can point outside it.
var frameSeeds = []struct {
	name  string
	frame []byte
	ok    bool
}{
	// Two partitions; the second record's value refers back to the first's.
	{"valid", testFrame("k1vvvvk2", []uint64{0, 2 << 1, 4 << 1, 1, 2 << 1, 2<<1 | 1, 4}, 8, 2), true},
	{"empty", testFrame("", nil, 0, 0), true},
	{"footer truncated", testFrame("k1vvvvk2", []uint64{0, 2 << 1, 4 << 1}, 8, 1)[:14], false},
	{"payload length past the body", testFrame("k1vv", []uint64{0, 2 << 1, 2 << 1}, 64, 1), false},
	{"record count larger than the table", testFrame("k1vv", []uint64{0, 2 << 1, 2 << 1}, 4, 1<<40), false},
	{"record count short of the table", testFrame("k1vvk2vv", []uint64{0, 2 << 1, 2 << 1, 0, 2 << 1, 2 << 1}, 8, 1), false},
	{"object length past the payload", testFrame("k1vv", []uint64{0, 2 << 1, 3 << 1}, 4, 1), false},
	{"payload longer than its objects", testFrame("k1vvxx", []uint64{0, 2 << 1, 2 << 1}, 6, 1), false},
	{"back-reference past the cursor", testFrame("k1vv", []uint64{0, 2 << 1, 1<<1 | 1, 2}, 4, 1), false},
	{"back-reference length past the cursor", testFrame("k1vv", []uint64{0, 2 << 1, 0<<1 | 1, 3}, 4, 1), false},
	{"partition out of range", testFrame("k1vv", []uint64{2, 2 << 1, 2 << 1}, 4, 1), false},
	{"table ends inside a record", testFrame("k1vv", []uint64{0, 2 << 1}, 4, 1), false},
}

// framePieces cuts frame where it crossed: the payload its footer says, if
// it says one the frame holds, then the table and footer.
func framePieces(frame []byte) [][]byte {
	if len(frame) < 16 {
		return [][]byte{frame}
	}
	if n := binary.BigEndian.Uint64(frame[len(frame)-16:]); n <= uint64(len(frame)-16) {
		return [][]byte{frame[:n], frame[n:]}
	}
	return [][]byte{frame}
}

// TestSliceFrameSeeds decodes each seed as an arrived frame of two
// partitions.
func TestSliceFrameSeeds(t *testing.T) {
	for _, s := range frameSeeds {
		b := getBuffer()
		err := b.Decode(framePieces(s.frame), 2)
		if (err == nil) != s.ok {
			t.Errorf("%s: err = %v, want ok=%v", s.name, err, s.ok)
		}
		if err != nil && !errors.Is(err, spill.ErrCorruptFrame) {
			t.Errorf("%s: err = %v, not a corrupt-frame error", s.name, err)
		}
		if s.name == "valid" {
			want := [][]spill.Rec{{{K: []byte("k1"), V: []byte("vvvv")}}, {{K: []byte("k2"), V: []byte("vvvv")}}}
			for q := range want {
				if got := b.Partition(q); len(got) != 1 || !bytes.Equal(got[0].K, want[q][0].K) || !bytes.Equal(got[0].V, want[q][0].V) {
					t.Errorf("valid: partition %d = %q, want %q", q, got, want[q])
				}
			}
		}
		putBuffer(b)
	}
}

// FuzzShuffleFrame offers arbitrary bytes as an arrived frame, cut into
// pieces where the fuzzer says: they decode into records or return an error — an object across
// a cut too — never a panic (spill's FuzzDecodeFrame bounds what decoding
// allocates). What does decode must be as many records as the footer says
// and must survive the rest of the arrival: the sort, the rewrite into
// segments and their admission.
func FuzzShuffleFrame(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add(s.frame, binary.BigEndian.AppendUint16(nil, uint16(len(framePieces(s.frame)[0]))), uint8(2))
	}
	f.Fuzz(func(t *testing.T, frame, cuts []byte, parts uint8) {
		R := int(parts%8) + 1
		b := getBuffer()
		defer putBuffer(b)
		// cuts names the offsets, two bytes each, modulo the length plus one.
		at := []int{0, len(frame)}
		for ; len(cuts) >= 2; cuts = cuts[2:] {
			at = append(at, int(binary.BigEndian.Uint16(cuts))%(len(frame)+1))
		}
		slices.Sort(at)
		var pieces [][]byte
		for i := 1; i < len(at); i++ {
			pieces = append(pieces, frame[at[i-1]:at[i]])
		}
		if err := b.Decode(pieces, R); err != nil {
			if !errors.Is(err, spill.ErrCorruptFrame) {
				t.Fatalf("error %v is not a corrupt-frame error", err)
			}
			return
		}
		n := 0
		for q := range R {
			n += len(b.Partition(q))
		}
		if want := binary.BigEndian.Uint64(frame[len(frame)-8:]); uint64(n) != want {
			t.Fatalf("%d records, the footer says %d", n, want)
		}
		x := newSpillExec(1<<20, spill.CodecNone, R)
		defer x.cleanup()
		ctx := engine.NewTaskContext(conf.NewJob(), "task", nil)
		c := runClasses{MapOutputClasses: engine.MapOutputClasses{KeyClass: types.BytesName, ValClass: types.BytesName}, rawCmp: rawBytesOrder{}}
		if err := x.arriveFrame(ctx, 0, b, c); err != nil {
			t.Fatal(err)
		}
		if err := x.checkResidentBytes(0); err != nil {
			t.Fatal(err)
		}
		got := 0
		for _, pi := range x.parts {
			for _, r := range pi.runs {
				got += r.nrecs
			}
		}
		if got != n {
			t.Fatalf("%d records arrived of %d decoded", got, n)
		}
	})
}

// rawBytesOrder orders serialized keys as plain bytes.
type rawBytesOrder struct{}

func (rawBytesOrder) Compare(a, b wio.Writable) int { panic("unused") }
func (rawBytesOrder) CompareRaw(a, b []byte) int    { return bytes.Compare(a, b) }

// BenchmarkBudgetedCollect is the budgeted map side's rung: four map tasks,
// one per place, collect 8 Ki Zipf-distributed words between them into four
// partitions over the four places and flush, under a pool per place that
// admits about a third of what arrives there — so every pair is serialized,
// shipped or not, sorted, sized and admitted, evicted or spilled. The merge
// is not part of it.
func BenchmarkBudgetedCollect(b *testing.B) {
	const (
		places, tasks = 4, 4
		perTask       = 2 << 10
		// A pair reserves 23 bytes (a 9-byte Text, a 4-byte IntWritable and
		// 10 of framing), so a place sees 8192/4*23 = 47 KB arrive.
		poolBytes = 16 << 10
	)
	rng := rand.New(rand.NewSource(19))
	zipf := rand.NewZipf(rng, 1.3, 1.0, 999)
	words := make([][]wio.Writable, tasks)
	for t := range words {
		words[t] = make([]wio.Writable, perTask)
		for i := range words[t] {
			words[t][i] = types.NewText(fmt.Sprintf("word%04d", zipf.Uint64()))
		}
	}
	one := types.NewInt(1)
	for _, codec := range []string{"none", "flate"} {
		b.Run(codec, func(b *testing.B) {
			b.Setenv("TMPDIR", b.TempDir())
			backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: b.TempDir()})
			if err != nil {
				b.Fatal(err)
			}
			e, err := New(Options{Backing: backing, Places: places, ShuffleBudgetBytes: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			job := wordcount.NewJob("/data/t", "/out/bench", places, true)
			job.Unset(conf.KeyCombinerClass)
			job.Set(conf.KeyM3RSpillCodec, codec)
			var before, after runtime.MemStats
			var allocs, bytes uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				x := budgetedTestExec(b, e, job, poolBytes)
				maps := layOutMapTasks(x, tasks)
				runtime.ReadMemStats(&before)
				b.StartTimer()
				for task, keys := range words {
					ctx := engine.NewTaskContext(job, "task", nil)
					a := &maps[task]
					a.place = task
					sc := x.newShuffleCollector(a, ctx)
					for _, k := range keys {
						if err := sc.Collect(k, one); err != nil {
							b.Fatal(err)
						}
					}
					if err := sc.flush(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				allocs += after.Mallocs - before.Mallocs
				bytes += after.TotalAlloc - before.TotalAlloc
				x.cleanup()
				b.StartTimer()
			}
			recs := float64(b.N * tasks * perTask)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
			b.ReportMetric(float64(bytes)/recs, "B/rec")
			b.ReportMetric(float64(allocs)/recs, "allocs/rec")
		})
	}
}

// tcpTransport starts an echoing frame server per place on 127.0.0.1, closed
// with the test, and returns a transport over them.
func tcpTransport(t *testing.T, places int, opts x10.FrameServerOptions) x10.Transport {
	t.Helper()
	addrs := make([]string, places)
	for p := range addrs {
		fs, err := x10.ServeFrames("127.0.0.1:0", p, opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { fs.Close() })
		addrs[p] = fs.Addr()
	}
	return x10.NewTCPTransport(addrs, x10.TCPOptions{DialTimeout: 5 * time.Second})
}

// TestBudgetedShuffleOverTCPTransport sends the budgeted shuffle's frames
// across a socket and back: the job's output is what the in-process
// transport gives, byte for byte, and when the frame servers die after their
// first frame the job fails with the transport's own error and leaves the
// pool, the frame ledger and the spill scratch at their baselines.
func TestBudgetedShuffleOverTCPTransport(t *testing.T) {
	output := func(e *Engine) map[string]string {
		t.Helper()
		if _, err := e.Submit(spillingJob("/out/wc")); err != nil {
			t.Fatal(err)
		}
		parts := make(map[string]string)
		for q := 0; q < 3; q++ {
			name := fmt.Sprintf("part-%05d", q)
			b, err := dfs.ReadAll(e.CachingFS(), "/out/wc/"+name)
			if err != nil {
				t.Fatal(err)
			}
			parts[name] = string(b)
		}
		return parts
	}
	want := output(newFaultEngine(t, 2))

	e := newFaultEngineOver(t, 2, tcpTransport(t, 2, x10.FrameServerOptions{}))
	got := output(e)
	for name, w := range want {
		if len(w) == 0 || got[name] != w {
			t.Errorf("%s: %d bytes over tcp, %d in process, or different ones", name, len(got[name]), len(w))
		}
	}
	if n := e.Stats().Get(sim.NetFrames); n == 0 {
		t.Error("no frame crossed the socket")
	}

	e = newFaultEngineOver(t, 2, tcpTransport(t, 2, x10.FrameServerOptions{FailAfterFrames: 1}))
	streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
	if _, err := e.Submit(spillingJob("/out/wc")); !errors.Is(err, x10.ErrTransport) {
		t.Fatalf("job over dying frame servers = %v, want ErrTransport", err)
	}
	assertSpillBaselines(t, e, streamBase, bufBase)
}
