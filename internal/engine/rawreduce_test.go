package engine_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/matrix"
	"m3r/internal/spill"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// The raw driver (ResolvedJob.OpenRawMerge + RawMerge.Reduce) is held to one
// statement: a reducer sees what it would see had the same records been
// decoded, concatenated in run order, SortPairs-sorted and fed through
// DriveReduce — the same groups, each under the same key, the same values in
// the same order — whatever the key type, the job's comparators and the kind
// of leaf.

// descText orders Text keys descending and has no raw form and no prefix.
type descText struct{}

func (descText) Compare(a, b wio.Writable) int { return b.(*types.Text).CompareTo(a) }

// pairFirst groups Pair keys by their first component (a Text).
type pairFirst struct{}

func (pairFirst) Compare(a, b wio.Writable) int {
	return a.(*types.Pair).First.(*types.Text).CompareTo(b.(*types.Pair).First)
}

// pairFirstRaw is pairFirst with a raw form: a serialized Pair is, per
// component, the class name and the length-prefixed encoding.
type pairFirstRaw struct{ pairFirst }

func (pairFirstRaw) CompareRaw(a, b []byte) int {
	first := func(b []byte) []byte {
		var rd wio.Reader
		rd.ResetBytes(b)
		if _, err := rd.ReadString(); err != nil {
			panic(err)
		}
		blob, err := rd.ReadBytes()
		if err != nil {
			panic(err)
		}
		return blob
	}
	return types.TextRawComparator{}.CompareRaw(first(a), first(b))
}

// firstLetter groups Text keys by their first byte — coarser than the sort
// prefix, so keys of one group differ in it.
type firstLetter struct{}

func letter(b []byte) int {
	if len(b) == 0 {
		return -1
	}
	return int(b[0])
}

func (firstLetter) Compare(a, b wio.Writable) int {
	return letter(a.(*types.Text).B) - letter(b.(*types.Text).B)
}

// firstLetterRaw is firstLetter with a raw form: a serialized Text of under
// 128 bytes is one length byte and the bytes.
type firstLetterRaw struct{ firstLetter }

func (firstLetterRaw) CompareRaw(a, b []byte) int { return letter(a[1:]) - letter(b[1:]) }

func init() {
	mapred.RegisterComparator("test.raw.FirstLetter", func() wio.Comparator { return firstLetter{} })
	mapred.RegisterComparator("test.raw.FirstLetterRaw", func() wio.Comparator { return firstLetterRaw{} })
	mapred.RegisterComparator("test.raw.DescText", func() wio.Comparator { return descText{} })
	mapred.RegisterComparator("test.raw.PairFirst", func() wio.Comparator { return pairFirst{} })
	mapred.RegisterComparator("test.raw.PairFirstRaw", func() wio.Comparator { return pairFirstRaw{} })
}

func blockKey(r *keyBytes) wio.Writable {
	return matrix.NewBlockKey(int32(int8(r.next()))/16, int32(int8(r.next()))/16)
}

// groupOrderKey draws a secondary-sort key: a Text group over three letters
// and an Int order.
func groupOrderKey(r *keyBytes) wio.Writable {
	return types.NewPair(types.NewText(string("abc"[r.next()%3])), intKey(r))
}

// rawCases is every way a job resolves its order: each key type with a
// registered raw comparator (prefixed), a key type with none, a named sort
// comparator with no raw form, and secondary sorts — over a Pair's first
// half, and over a Text's first letter, which cuts across sort prefixes —
// whose grouping comparator has a raw form and whose has none.
var rawCases = []struct {
	name, keyClass string
	key            func(*keyBytes) wio.Writable
	sort, grouping string // registered comparator names, "" for the default
	eager          bool   // the leaves decode every key
}{
	{name: "text", keyClass: types.TextName, key: textKey},
	{name: "int", keyClass: types.IntName, key: intKey},
	{name: "long", keyClass: types.LongName, key: longKey},
	{name: "double", keyClass: types.DoubleName, key: doubleKey},
	{name: "pair", keyClass: types.PairName, key: pairKey},
	{name: "blockkey", keyClass: matrix.BlockKeyName, key: blockKey, eager: true},
	{name: "sort-without-raw-form", keyClass: types.TextName, key: textKey, sort: "test.raw.DescText", eager: true},
	{name: "secondary-sort/raw-grouping", keyClass: types.PairName, key: groupOrderKey, grouping: "test.raw.PairFirstRaw"},
	{name: "secondary-sort/plain-grouping", keyClass: types.PairName, key: groupOrderKey, grouping: "test.raw.PairFirst", eager: true},
	{name: "text/raw-grouping-coarser-than-the-prefix", keyClass: types.TextName, key: textKey, grouping: "test.raw.FirstLetterRaw"},
	{name: "text/plain-grouping-coarser-than-the-prefix", keyClass: types.TextName, key: textKey, grouping: "test.raw.FirstLetter", eager: true},
}

func resolveRawCase(t testing.TB, i int) *engine.ResolvedJob {
	t.Helper()
	c := rawCases[i]
	job := conf.NewJob()
	job.SetMapOutputKeyClass(c.keyClass)
	job.SetMapOutputValueClass(types.LongName)
	if c.sort != "" {
		job.Set(conf.KeySortComparatorClass, c.sort)
	}
	if c.grouping != "" {
		job.Set(conf.KeyGroupingComparatorClass, c.grouping)
	}
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	if eager := rj.RawSortCmp == nil || rj.RawGroupCmp == nil; eager != c.eager {
		t.Fatalf("%s resolves to RawSortCmp %v, RawGroupCmp %v: decoding at the leaf = %v, want %v",
			c.name, rj.RawSortCmp, rj.RawGroupCmp, eager, c.eager)
	}
	return rj
}

// rawRuns draws 1–12 sorted runs of 0–23 records from data. Keys come from a
// small pool drawn with key and are picked with a square-law skew, so a few
// keys are hot — in one run and across runs — and the rest occur once or
// never; every value is the record's position in the concatenation.
func rawRuns(rj *engine.ResolvedJob, key func(*keyBytes) wio.Writable, data []byte) [][]wio.Pair {
	r := &keyBytes{b: data}
	pool := make([]wio.Writable, 1+r.next()%24)
	for i := range pool {
		pool[i] = key(r)
	}
	runs := make([][]wio.Pair, 1+r.next()%12)
	seq := int64(0)
	for i := range runs {
		run := make([]wio.Pair, r.next()%24)
		for j := range run {
			c := int(r.next())
			run[j] = wio.Pair{Key: pool[c*c*len(pool)>>16], Value: types.NewLong(seq)}
			seq++
		}
		engine.SortPairs(run, rj.SortCmp)
		runs[i] = run
	}
	return runs
}

// memSegment reads a resident run as the M3R engine's segmentSource does:
// views of its grouped bytes, one record at a time.
type memSegment struct{ c spill.GroupCursor }

func newMemSegment(recs []spill.Rec) *memSegment {
	s := new(memSegment)
	s.c.Reset(spill.AppendGrouped(nil, recs))
	return s
}

func (s *memSegment) Next() (spill.Rec, bool, error) { return s.c.Next() }

func (s *memSegment) Close() error { return nil }

// The kinds of leaf a serialized run is read through: an M3R resident run,
// the Hadoop engine's per-record spill segments stored and deflated, and
// M3R's grouped spill segments, stored in blocks so small that a group of a
// few records spans several, and deflated in 64 KiB ones.
const (
	leafSegment = iota
	leafRawStream
	leafFlateStream
	leafMixed // run i through kind leafSingle[i%len(leafSingle)]
	leafGroupedStream
	leafGroupedFlateStream
	leafKinds
)

var leafSingle = []int{leafSegment, leafRawStream, leafFlateStream, leafGroupedStream, leafGroupedFlateStream}

// smallGroupedBlock is where leafGroupedStream cuts its blocks: three or
// four values.
const smallGroupedBlock = 32

func runRecs(t testing.TB, run []wio.Pair) []spill.Rec {
	t.Helper()
	recs := make([]spill.Rec, len(run))
	for j, p := range run {
		kb, vb := pairBytes(t, p)
		recs[j] = spill.Rec{K: kb, V: vb}
	}
	return recs
}

// rawLeaves serializes runs into one leaf each.
func rawLeaves(t testing.TB, dir string, runs [][]wio.Pair, kind int) []engine.RecSource {
	t.Helper()
	srcs := make([]engine.RecSource, len(runs))
	for i, run := range runs {
		recs := runRecs(t, run)
		k := kind
		if kind == leafMixed {
			k = leafSingle[i%len(leafSingle)]
		}
		var enc spill.EncodedRun
		var err error
		switch k {
		case leafSegment:
			srcs[i] = newMemSegment(recs)
			continue
		case leafRawStream:
			enc, err = spill.EncodeRun(recs, spill.CodecNone)
		case leafFlateStream:
			enc, err = spill.EncodeRun(recs, spill.CodecFlate)
		case leafGroupedStream:
			spill.GroupedBlockBytes.Store(smallGroupedBlock)
			enc, err = spill.EncodeGroupedRun(recs, spill.CodecNone)
			spill.GroupedBlockBytes.Store(0)
		case leafGroupedFlateStream:
			enc, err = spill.EncodeGroupedRun(recs, spill.CodecFlate)
		}
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("run_%d", i))
		if _, err := spill.WriteEncodedFile(path, enc); err != nil {
			t.Fatal(err)
		}
		s, err := spill.OpenFile(path)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = s
	}
	return srcs
}

// seenGroup is one Reduce call as the reducer saw it, serialized on the
// spot.
type seenGroup struct {
	key    string
	values []string
}

// recordingReducer notes every group it is handed. take bounds the values it
// asks for per group (negative: all of them), keep makes it hold on to every
// object it was handed, and fail, when set, is returned from — or, with
// panics, thrown out of — the middle of the failAt-th group, after one value.
type recordingReducer struct {
	take   int
	keep   bool
	groups []seenGroup
	kept   []wio.Writable
	keptAs []string

	fail   error
	panics bool
	failAt int
	closed int
}

func (r *recordingReducer) Configure(*conf.JobConf) {}

func (r *recordingReducer) Close() error { r.closed++; return nil }

func (r *recordingReducer) hold(w wio.Writable) string {
	b, err := wio.Marshal(w)
	if err != nil {
		panic(err)
	}
	if r.keep {
		r.kept, r.keptAs = append(r.kept, w), append(r.keptAs, string(b))
	}
	return string(b)
}

func (r *recordingReducer) Reduce(key wio.Writable, values mapred.ValueIterator, _ mapred.OutputCollector, _ *engine.TaskContext) error {
	g := seenGroup{key: r.hold(key)}
	for n := 0; r.take < 0 || n < r.take; n++ {
		v, ok := values.Next()
		if !ok {
			break
		}
		g.values = append(g.values, r.hold(v))
		if r.fail != nil && len(r.groups) == r.failAt {
			if r.panics {
				panic(r.fail)
			}
			return r.fail
		}
	}
	r.groups = append(r.groups, g)
	return nil
}

var discard = mapred.CollectorFunc(func(_, _ wio.Writable) error { return nil })

// referenceReduce is the statement's right-hand side, run as a reducer or,
// with combine, as a combiner.
func referenceReduce(t testing.TB, rj *engine.ResolvedJob, runs [][]wio.Pair, take int, combine bool) (*recordingReducer, *engine.TaskContext) {
	t.Helper()
	var all []wio.Pair
	for _, run := range runs {
		all = append(all, run...)
	}
	engine.SortPairs(all, rj.SortCmp)
	red, ctx := &recordingReducer{take: take}, engine.NewTaskContext(rj.Job, "reference", nil)
	if err := engine.DriveReduce(red, rj.GroupCmp, engine.SlicePairs(all), discard, ctx, combine); err != nil {
		t.Fatal(err)
	}
	return red, ctx
}

// rawReduce runs red over srcs, nrecs records or an unknown number when
// negative, through the raw driver, as a reducer or, with combine, as a
// combiner.
func rawReduce(rj *engine.ResolvedJob, srcs []engine.RecSource, nrecs int, lc *engine.JobLifecycle,
	red engine.ReduceRun, combine bool) (*engine.TaskContext, error) {
	ctx := engine.NewTaskContext(rj.Job, "raw", nil)
	m, err := rj.OpenRawMerge(srcs, rj.Job.MapOutputKeyClass(), nrecs, lc)
	if err != nil {
		return ctx, err
	}
	err = m.Reduce(rj.Job.MapOutputValueClass(), red, discard, ctx, combine)
	if cerr := m.Close(); err == nil {
		err = cerr
	}
	return ctx, err
}

// rawMismatch holds the raw driver to the reference for one run set and leaf
// kind, under a reducer that reads everything and one that abandons every
// group after its first value, with the records' count known and not, and
// checks what a retaining reducer was handed. A third pass, two values a
// group, runs both drivers in combine mode, whose counters must agree too.
func rawMismatch(t testing.TB, rj *engine.ResolvedJob, runs [][]wio.Pair, kind int) error {
	dir := t.TempDir()
	total := 0
	for _, run := range runs {
		total += len(run)
	}
	for _, take := range []int{-1, 1, 2} {
		combine := take == 2
		want, wantCtx := referenceReduce(t, rj, runs, take, combine)
		got := &recordingReducer{take: take, keep: true}
		nrecs := -1
		if take < 0 {
			nrecs = total
		}
		ctx, err := rawReduce(rj, rawLeaves(t, dir, runs, kind), nrecs, nil, got, combine)
		if err != nil {
			return err
		}
		if len(got.groups) != len(want.groups) {
			return fmt.Errorf("take %d: %d groups, the reference has %d", take, len(got.groups), len(want.groups))
		}
		for i, g := range got.groups {
			if w := want.groups[i]; g.key != w.key || !slices.Equal(g.values, w.values) {
				return fmt.Errorf("take %d: group %d is %x with values %x, the reference has %x with %x",
					take, i, g.key, g.values, w.key, w.values)
			}
		}
		if got.closed != 1 {
			return fmt.Errorf("take %d: the reducer was closed %d times", take, got.closed)
		}
		for _, cell := range []func(*engine.TaskContext) int64{
			func(c *engine.TaskContext) int64 { return c.Cells.ReduceInputGroups.Value() },
			func(c *engine.TaskContext) int64 { return c.Cells.ReduceInputRecords.Value() },
			func(c *engine.TaskContext) int64 { return c.Cells.CombineInputRecords.Value() },
		} {
			if cell(ctx) != cell(wantCtx) {
				return fmt.Errorf("take %d: the driver counted %d, the reference %d", take, cell(ctx), cell(wantCtx))
			}
		}
		// An M3R reducer may keep what it is handed: every key and value
		// is an object of its own and still reads as it did then.
		distinct := make(map[wio.Writable]bool, len(got.kept))
		for i, w := range got.kept {
			if distinct[w] {
				return fmt.Errorf("take %d: object %d was handed out twice", take, i)
			}
			distinct[w] = true
			if b, _ := wio.Marshal(w); string(b) != got.keptAs[i] {
				return fmt.Errorf("take %d: object %d was %x when handed out and is %x after the reduce", take, i, got.keptAs[i], b)
			}
		}
	}
	return nil
}

func TestRawReduceMatchesDriveReduce(t *testing.T) {
	base := spill.OpenStreamCount()
	rng := rand.New(rand.NewSource(24))
	for i, c := range rawCases {
		rj := resolveRawCase(t, i)
		for round := 0; round < 8; round++ {
			data := make([]byte, 1024)
			rng.Read(data)
			runs := rawRuns(rj, c.key, data)
			for kind := 0; kind < leafKinds; kind++ {
				if err := rawMismatch(t, rj, runs, kind); err != nil {
					t.Fatalf("%s, round %d (%d runs), leaf kind %d: %v", c.name, round, len(runs), kind, err)
				}
			}
		}
	}
	if n := spill.OpenStreamCount(); n != base {
		t.Errorf("%d spill streams left open", n-base)
	}
}

// TestRawReduceShapes pins the run-set shapes a random draw seldom makes:
// every run empty, one record in all, one record a run under one key,
// twelve runs that are each the same hot key, and runs long enough that the
// decoded values take several slabs.
func TestRawReduceShapes(t *testing.T) {
	rj := resolveRawCase(t, 0)
	one := func(s string, v int64) wio.Pair { return wio.Pair{Key: types.NewText(s), Value: types.NewLong(v)} }
	var oneEach, hot, long [][]wio.Pair
	for i := 0; i < 6; i++ {
		var run []wio.Pair
		for j := 0; j < 200; j++ {
			run = append(run, one(fmt.Sprintf("key%02d", j*30/200), int64(200*i+j)))
		}
		long = append(long, run)
	}
	for i := 0; i < 12; i++ {
		oneEach = append(oneEach, []wio.Pair{one("abcdefgh\x00", int64(i))})
		var run []wio.Pair
		for j := 0; j < 20; j++ {
			run = append(run, one("abcdefghi", int64(20*i+j)))
		}
		hot = append(hot, run)
	}
	for name, runs := range map[string][][]wio.Pair{
		"all-empty":  {nil, nil, nil, nil, nil},
		"one-record": {nil, {one("", 0)}, nil},
		"one-each":   oneEach,
		"one-hot":    hot,
		"many-slabs": long,
	} {
		for kind := 0; kind < leafKinds; kind++ {
			if err := rawMismatch(t, rj, runs, kind); err != nil {
				t.Errorf("%s, leaf kind %d: %v", name, kind, err)
			}
		}
	}
}

// FuzzRawReduce draws the job shape, the leaf kind and the run set from the
// input.
func FuzzRawReduce(f *testing.F) {
	f.Add([]byte{0, 0, 3, 2, 1, 2, 3, 1, 2, 0, 5, 4, 9, 9, 9, 200, 3, 1, 1, 1})
	f.Add(append([]byte{7, 7}, slices.Repeat([]byte{11, 0, 1, 2, 0x7f, 0x80, 250, 3}, 24)...))
	// Grouped leaves. Four Text keys, three runs in which each key is once:
	// groups of one value, through the small-block grouped stream.
	oneValue := []byte{0, leafGroupedStream, 3, 1, 1, 2, 1, 2, 1, 2, 3, 1, 1, 1, 2, 3, 0, 128, 182, 1, 222, 2, 0, 222}
	f.Add(oneValue)
	// One key, runs of 23 and 12 records: each run one group, the first
	// across six small blocks — as a grouped stream, a resident run, mixed
	// leaves, and under a sort that decodes every key.
	oneKey := append([]byte{0, leafGroupedStream, 0, 2, 1, 2, 1, 23}, make([]byte, 23)...)
	oneKey = append(append(oneKey, 12), make([]byte, 12)...)
	for _, head := range [][2]byte{{0, leafGroupedStream}, {0, leafSegment}, {0, leafMixed}, {6, leafGroupedStream}, {0, leafGroupedFlateStream}} {
		f.Add(append(head[:], oneKey[2:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1<<11 {
			return
		}
		i := int(data[0]) % len(rawCases)
		rj := resolveRawCase(t, i)
		kind := int(data[1]) % leafKinds
		if err := rawMismatch(t, rj, rawRuns(rj, rawCases[i].key, data[2:]), kind); err != nil {
			t.Fatalf("%s, leaf kind %d: %v", rawCases[i].name, kind, err)
		}
	})
}

// errLeaf fails after n good records.
type errLeaf struct {
	inner  engine.RecSource
	n      int
	closed bool
}

var errLeafRead = errors.New("injected leaf read error")

func (l *errLeaf) Next() (spill.Rec, bool, error) {
	if l.n == 0 {
		return spill.Rec{}, false, errLeafRead
	}
	l.n--
	return l.inner.Next()
}

func (l *errLeaf) Close() error { l.closed = true; return l.inner.Close() }

// TestRawReduceFailurePaths: whatever ends a reduce early — a leaf that
// fails mid-run or is truncated on disk, a value that does not decode, a
// reducer that returns an error or panics inside a group, a kill inside a
// group — surfaces as that error, stops the driver within a record of it and
// leaves no stream open.
func TestRawReduceFailurePaths(t *testing.T) {
	rj := resolveRawCase(t, 0)
	var runs [][]wio.Pair
	for i := 0; i < 8; i++ {
		var run []wio.Pair
		for j := 0; j < 300; j++ {
			run = append(run, wio.Pair{Key: types.NewText(fmt.Sprintf("k%d", j/100)), Value: types.NewLong(int64(300*i + j))})
		}
		runs = append(runs, run)
	}
	errReduce := errors.New("injected reducer error")
	// The merge is serial: one Tournament over every leaf.
	t.Run("parallelism=1", func(t *testing.T) {
		base := spill.OpenStreamCount()
		leaves := func() []engine.RecSource { return rawLeaves(t, t.TempDir(), runs, leafMixed) }

		srcs := leaves()
		bad := &errLeaf{inner: srcs[5], n: 150}
		srcs[5] = bad
		if _, err := rawReduce(rj, srcs, -1, nil, &recordingReducer{take: -1}, false); !errors.Is(err, errLeafRead) || !bad.closed {
			t.Errorf("failing leaf: error %v, leaf closed %v; want the leaf's error and the leaf closed", err, bad.closed)
		}

		dir := t.TempDir()
		srcs = rawLeaves(t, dir, runs, leafFlateStream)
		srcs[2].Close()
		path := filepath.Join(dir, "run_2")
		full, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, full[:len(full)-7], 0o644); err != nil {
			t.Fatal(err)
		}
		if srcs[2], err = spill.OpenSegment(path, spill.Segment{Len: int64(len(full))}); err != nil {
			t.Fatal(err)
		}
		if _, err := rawReduce(rj, srcs, -1, nil, &recordingReducer{take: -1}, false); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Errorf("truncated block: error %v, want io.ErrUnexpectedEOF", err)
		}

		srcs = leaves()
		srcs[0] = newMemSegment([]spill.Rec{{K: []byte{1, 'a'}, V: []byte{1, 2, 3}}})
		if _, err := rawReduce(rj, srcs, -1, nil, &recordingReducer{take: -1}, false); err == nil || !strings.Contains(err.Error(), "decoding value") {
			t.Errorf("three-byte LongWritable: error %v, want one that names the value's decoding", err)
		}

		red := &recordingReducer{take: -1, fail: errReduce, failAt: 1}
		ctx, err := rawReduce(rj, leaves(), -1, nil, red, false)
		if !errors.Is(err, errReduce) || red.closed != 0 {
			t.Errorf("reducer error: error %v, reducer closed %d times; want the reducer's error and no Close", err, red.closed)
		}
		if n := ctx.Cells.ReduceInputRecords.Value(); n != 800+1 {
			t.Errorf("reducer error after one value of the second group: %d records consumed, want 801", n)
		}

		red = &recordingReducer{take: -1, fail: errReduce, failAt: 1, panics: true}
		func() {
			defer func() {
				if p := recover(); p != errReduce {
					t.Errorf("reducer panic: recovered %v", p)
				}
			}()
			m, err := rj.OpenRawMerge(leaves(), types.TextName, -1, nil)
			if err != nil {
				t.Fatal(err)
			}
			// As a reduce task holds it: closed on the way out of a panic.
			defer m.Close()
			m.Reduce(types.LongName, red, discard, engine.NewTaskContext(rj.Job, "panic", nil), false)
		}()

		// A kill inside a group: the reducer kills its own job after the
		// group's 10th value and keeps asking.
		lc := engine.NewJobLifecycle()
		killer := &killingReducer{lc: lc, after: 10}
		ctx, err = rawReduce(rj, leaves(), -1, lc, killer, false)
		if !errors.Is(err, engine.ErrJobKilled) {
			t.Errorf("kill inside a group: error %v, want ErrJobKilled", err)
		}
		if n := ctx.Cells.ReduceInputRecords.Value(); n != 10 || killer.asked != 11 {
			t.Errorf("kill inside a group: %d records consumed over %d asks, want 10 over 11: the value after the kill must not be handed out", n, killer.asked)
		}

		// And one in a group the reducer abandons: the drain stops too.
		lc = engine.NewJobLifecycle()
		killer = &killingReducer{lc: lc, after: 10, abandon: true}
		ctx, err = rawReduce(rj, leaves(), -1, lc, killer, false)
		if !errors.Is(err, engine.ErrJobKilled) {
			t.Errorf("kill before a drain: error %v, want ErrJobKilled", err)
		}
		if n := ctx.Cells.ReduceInputRecords.Value(); n != 10 {
			t.Errorf("kill before a drain: %d records consumed, want 10", n)
		}

		if n := spill.OpenStreamCount(); n != base {
			t.Errorf("%d spill streams left open", n-base)
		}
	})
}

// killingReducer kills its job after `after` values of its first group, then
// either keeps asking for values or returns and leaves the rest to the
// driver's drain.
type killingReducer struct {
	lc      *engine.JobLifecycle
	after   int
	abandon bool
	asked   int
}

func (r *killingReducer) Configure(*conf.JobConf) {}
func (r *killingReducer) Close() error            { return nil }

func (r *killingReducer) Reduce(_ wio.Writable, values mapred.ValueIterator, _ mapred.OutputCollector, _ *engine.TaskContext) error {
	for n := 0; ; n++ {
		if n == r.after {
			r.lc.Kill(nil)
			if r.abandon {
				return nil
			}
		}
		r.asked++
		if _, ok := values.Next(); !ok {
			return nil
		}
	}
}

// sumReducer is WordCount's reducer.
type sumReducer struct{}

func (sumReducer) Configure(*conf.JobConf) {}
func (sumReducer) Close() error            { return nil }

func (sumReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ *engine.TaskContext) error {
	var sum int32
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		sum += v.(*types.IntWritable).V
	}
	return out.Collect(key, types.NewInt(sum))
}

// BenchmarkRawReduce is the reduce side of a combiner-less WordCount
// partition under a budget: nine resident runs of 3 000 (Text, Int) records
// merged, grouped and summed. decode-at-leaf is what the engines ran before
// the raw driver — every record decoded where it enters the merge, objects
// compared through the tournament, DriveReduce — and stays here as the
// baseline; raw is RawMerge.Reduce. zipf draws WordCount's keys (Zipf 1.3
// over a thousand words: long groups, equal heads); distinct gives every
// record its own key, the shape on which the equal-head rule only costs.
func BenchmarkRawReduce(b *testing.B) {
	const runCount, runLen = 9, 3000
	job := conf.NewJob()
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	rj, err := engine.Resolve(job)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(24))
	zipf := rand.NewZipf(rng, 1.3, 1.0, 999)
	keys := map[string]func(i int) string{
		"zipf":     func(int) string { return fmt.Sprintf("word%04d", zipf.Uint64()) },
		"distinct": func(i int) string { return fmt.Sprintf("w%07d", i*7919%(runCount*runLen)) },
	}
	for _, shape := range []string{"zipf", "distinct"} {
		segs := make([][]byte, runCount)
		for i := range segs {
			run := make([]wio.Pair, runLen)
			for j := range run {
				run[j] = wio.Pair{Key: types.NewText(keys[shape](i*runLen + j)), Value: types.NewInt(1)}
			}
			engine.SortPairs(run, rj.SortCmp)
			segs[i] = spill.AppendGrouped(nil, runRecs(b, run))
		}
		leaves := func() []engine.RecSource {
			srcs := make([]engine.RecSource, runCount)
			for i, seg := range segs {
				leaf := new(memSegment)
				leaf.c.Reset(seg)
				srcs[i] = leaf
			}
			return srcs
		}
		rows := map[string]func(ctx *engine.TaskContext) error{
			"decode-at-leaf": func(ctx *engine.TaskContext) error {
				readers := make([]engine.RunReader, runCount)
				for i, src := range leaves() {
					readers[i] = newDecodedRun(b, src, types.TextName, types.IntName)
				}
				m, err := engine.NewMergeIter(readers, rj.SortCmp)
				if err != nil {
					return err
				}
				defer m.Close()
				return engine.DriveReduce(sumReducer{}, rj.GroupCmp, m, discard, ctx, false)
			},
			"raw": func(ctx *engine.TaskContext) error {
				m, err := rj.OpenRawMerge(leaves(), types.TextName, -1, nil)
				if err != nil {
					return err
				}
				defer m.Close()
				return m.Reduce(types.IntName, sumReducer{}, discard, ctx, false)
			},
		}
		for _, row := range []string{"decode-at-leaf", "raw"} {
			b.Run(shape+"/"+row, func(b *testing.B) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctx := engine.NewTaskContext(job, "bench", nil)
					if err := rows[row](ctx); err != nil {
						b.Fatal(err)
					}
					if n := ctx.Cells.ReduceInputRecords.Value(); n != runCount*runLen {
						b.Fatalf("reduced %d records, want %d", n, runCount*runLen)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				recs := float64(b.N) * runCount * runLen
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/recs, "ns/rec")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/recs, "allocs/rec")
			})
		}
	}
}

// rawCaseNamed resolves the rawCases entry called name.
func rawCaseNamed(t testing.TB, name string) *engine.ResolvedJob {
	t.Helper()
	for i, c := range rawCases {
		if c.name == name {
			return resolveRawCase(t, i)
		}
	}
	t.Fatalf("no raw case %q", name)
	return nil
}

// textLongRun is a run of (Text, Long) pairs: n records under each key, in
// order, with values counting on from *seq.
func textLongRun(seq *int64, keys []string, n ...int) []wio.Pair {
	var run []wio.Pair
	for i, k := range keys {
		for j := 0; j < n[i]; j++ {
			run = append(run, wio.Pair{Key: types.NewText(k), Value: types.NewLong(*seq)})
			*seq++
		}
	}
	return run
}

// TestRawReduceGroupSpansBlocks holds the driver to the reference when one
// group runs through four blocks and more of one spilled source, under
// prefix grouping (the sort order groups) and under a raw grouping
// comparator. The group's first record is recycled — and poisoned, under
// TestMain — while the group is still being read, so the driver must
// compare against its own copy of the key. The keys outrun a sort prefix
// and share one, so grouping reaches the raw bytes.
func TestRawReduceGroupSpansBlocks(t *testing.T) {
	const hot = "a-key-longer-than-any-sort-prefix"
	for _, name := range []string{"text", "text/raw-grouping-coarser-than-the-prefix"} {
		rj := rawCaseNamed(t, name)
		var seq int64
		runs := [][]wio.Pair{
			// ~44 bytes a record: the hot key alone is four 64 KiB blocks.
			textLongRun(&seq, []string{hot[:len(hot)-1], hot, hot + "z", "b" + hot}, 3, 6000, 3, 2),
			textLongRun(&seq, []string{hot, hot + "y"}, 5, 1),
			textLongRun(&seq, []string{"b" + hot}, 700),
		}
		for _, kind := range []int{leafRawStream, leafFlateStream, leafMixed} {
			if err := rawMismatch(t, rj, runs, kind); err != nil {
				t.Fatalf("%s, leaf kind %d: %v", name, kind, err)
			}
		}
	}
}

// TestRawMergeReplacesHeadsAcrossBlocks: the tournament compares a source's
// replaced head with the record that replaces it, and when the replaced head
// ended a block the two lie in different blocks — so a stream keeps the
// block of its last record until it has read the next one. Here source 0's
// first block ends in the key b, its second block repeats c in the same
// record layout, and all keys share a long prefix: a stream that handed the
// first block back early, and got the same buffer again, would show the
// replaced head as an equal c, and the merge would skip the replay that puts
// source 1's bb in between. Poison is off for this test: it would only make
// the stale head differ. Two collections empty the block pool first, so a
// buffer handed back is the next one handed out.
func TestRawMergeReplacesHeadsAcrossBlocks(t *testing.T) {
	spill.PoisonRecycledBlocks.Store(false)
	defer spill.PoisonRecycledBlocks.Store(true)
	runtime.GC()
	runtime.GC()
	rj := rawCaseNamed(t, "text")
	const prefix = "shared-prefix-"
	// Every record is as long as the first; a block is cut at the record
	// that takes it to 64 KiB.
	per := int(runRecs(t, textLongRun(new(int64), []string{prefix + "a"}, 1))[0].EncodedLen())
	inBlock := (64<<10 + per - 1) / per
	var seq int64
	runs := [][]wio.Pair{
		textLongRun(&seq, []string{prefix + "a", prefix + "b", prefix + "c"}, inBlock-1, 1, inBlock),
		textLongRun(&seq, []string{prefix + "bb"}, 1),
	}
	want, _ := referenceReduce(t, rj, runs, -1, false)
	got := &recordingReducer{take: -1}
	if _, err := rawReduce(rj, rawLeaves(t, t.TempDir(), runs, leafRawStream), -1, nil, got, false); err != nil {
		t.Fatal(err)
	}
	if len(got.groups) != len(want.groups) {
		t.Fatalf("%d groups, the reference has %d", len(got.groups), len(want.groups))
	}
	for i, g := range got.groups {
		if w := want.groups[i]; g.key != w.key || len(g.values) != len(w.values) {
			t.Fatalf("group %d is %q with %d values, the reference has %q with %d", i, g.key, len(g.values), w.key, len(w.values))
		}
	}
}

// TestRawMergeAllocsPerRecord is BenchmarkRawReduce's raw row as a ceiling:
// nine resident runs of 300 (Text, Int) records with WordCount's Zipf keys,
// merged as raw records, grouped and summed by RawMerge.Reduce. What a
// record may allocate is its decoded value, and a group its decoded key
// and the reducer's output, but both come in slabs bounded by the records'
// count; the merge's set-up, its leaves and its one value iterator are
// shared by all of them. The ceiling is the measured 0.266 (go1.24, amd64;
// it repeats exactly) plus the benchmark's 3 % bound.
func TestRawMergeAllocsPerRecord(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not pinned under the race detector")
	}
	if runtime.GOARCH != "amd64" {
		t.Skipf("ceilings are pinned on amd64, not %s", runtime.GOARCH)
	}
	const runCount, runLen, maxPerRec = 9, 300, 0.275
	job := conf.NewJob()
	job.SetMapOutputKeyClass(types.TextName)
	job.SetMapOutputValueClass(types.IntName)
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(24)), 1.3, 1.0, 999)
	segs := make([][]byte, runCount)
	for i := range segs {
		run := make([]wio.Pair, runLen)
		for j := range run {
			run[j] = wio.Pair{Key: types.NewText(fmt.Sprintf("word%04d", zipf.Uint64())), Value: types.NewInt(1)}
		}
		engine.SortPairs(run, rj.SortCmp)
		segs[i] = spill.AppendGrouped(nil, runRecs(t, run))
	}
	reduce := func() *engine.TaskContext {
		srcs := make([]engine.RecSource, runCount)
		for i, seg := range segs {
			leaf := new(memSegment)
			leaf.c.Reset(seg)
			srcs[i] = leaf
		}
		ctx := engine.NewTaskContext(job, "t", nil)
		m, err := rj.OpenRawMerge(srcs, types.TextName, runCount*runLen, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if err := m.Reduce(types.IntName, sumReducer{}, discard, ctx, false); err != nil {
			t.Fatal(err)
		}
		return ctx
	}
	ctx := reduce()
	groups := ctx.Cells.ReduceInputGroups.Value()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	reduce()
	runtime.ReadMemStats(&ms1)
	perRec := float64(ms1.Mallocs-ms0.Mallocs) / (runCount * runLen)
	t.Logf("%.3f allocs/rec (%d records in %d groups)", perRec, runCount*runLen, groups)
	if perRec > maxPerRec {
		t.Errorf("RawMerge.Reduce allocates %.3f times a record, ceiling %.3f", perRec, maxPerRec)
	}
}

// countingText is Text's raw order with its prefixer's and comparator's
// calls counted.
type countingText struct {
	types.TextRawComparator
	prefixes, compares *int
}

func (c countingText) SortPrefixRaw(k []byte) (uint64, bool) {
	*c.prefixes++
	return c.TextRawComparator.SortPrefixRaw(k)
}

func (c countingText) CompareRaw(a, b []byte) int {
	*c.compares++
	return c.TextRawComparator.CompareRaw(a, b)
}

// zipfRuns is count sorted runs of n (Text, Long) records over WordCount's
// Zipf keys, and how many key groups they hold, counted run by run.
func zipfRuns(rj *engine.ResolvedJob, count, n int) (runs [][]wio.Pair, groups int) {
	zipf := rand.NewZipf(rand.New(rand.NewSource(43)), 1.3, 1.0, 999)
	var seq int64
	for i := 0; i < count; i++ {
		run := make([]wio.Pair, n)
		for j := range run {
			run[j] = wio.Pair{Key: types.NewText(fmt.Sprintf("word%04d", zipf.Uint64())), Value: types.NewLong(seq)}
			seq++
		}
		engine.SortPairs(run, rj.SortCmp)
		for j := range run {
			if j == 0 || rj.SortCmp.Compare(run[j-1].Key, run[j].Key) != 0 {
				groups++
			}
		}
		runs = append(runs, run)
	}
	return runs, groups
}

// TestGroupedMergeWorksOncePerGroup attributes the grouped layout's saving
// in the merge: over grouped runs — resident, and spilled in one block each
// — the raw-sort prefixer runs once per key group of a run, not once per
// record as over per-record streams, and the tournament replays a path at
// most once per group and once per run's end; the reducer still sees the
// reference's groups.
func TestGroupedMergeWorksOncePerGroup(t *testing.T) {
	rj := rawCaseNamed(t, "text")
	const count, n = 8, 400
	runs, groups := zipfRuns(rj, count, n)
	want, _ := referenceReduce(t, rj, runs, -1, false)
	var prefixes, compares int
	counting := countingText{prefixes: &prefixes, compares: &compares}
	rj.SortCmp, rj.RawSortCmp, rj.GroupCmp, rj.RawGroupCmp = counting, counting, counting, counting
	for _, c := range []struct {
		kind         int
		wantPrefixes int
	}{
		{leafSegment, groups},
		{leafGroupedFlateStream, groups},
		{leafRawStream, count * n},
	} {
		prefixes, compares = 0, 0
		m, err := rj.OpenRawMerge(rawLeaves(t, t.TempDir(), runs, c.kind), types.TextName, count*n, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := &recordingReducer{take: -1}
		err = m.Reduce(types.LongName, got, discard, engine.NewTaskContext(rj.Job, "raw", nil), false)
		replays := m.Replays()
		m.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.groups) != len(want.groups) {
			t.Fatalf("leaf kind %d: %d groups, the reference has %d", c.kind, len(got.groups), len(want.groups))
		}
		t.Logf("leaf kind %d: %d records in %d run groups: %d prefixes, %d raw compares, %d replays",
			c.kind, count*n, groups, prefixes, compares, replays)
		if prefixes != c.wantPrefixes {
			t.Errorf("leaf kind %d: the prefixer ran %d times, want %d", c.kind, prefixes, c.wantPrefixes)
		}
		if replays > groups+count {
			t.Errorf("leaf kind %d: %d replays, more than the %d run groups and %d runs", c.kind, replays, groups, count)
		}
	}
}

// TestEqualKeysKeepSourceOrder: a hot key every map task emitted reaches
// the reducer with its values in map-task order — source by source, each
// source's in its own order — whatever the runs' layouts, however many
// blocks restate the key, and as a continuation or a restatement wins its
// ties the same way.
func TestEqualKeysKeepSourceOrder(t *testing.T) {
	rj := rawCaseNamed(t, "text")
	var runs [][]wio.Pair
	var seq int64
	for src := 0; src < 7; src++ {
		runs = append(runs, textLongRun(&seq, []string{"a", "hot", "z"}, src%3, 5+7*src, 1))
	}
	for kind := 0; kind < leafKinds; kind++ {
		got := &recordingReducer{take: -1}
		if _, err := rawReduce(rj, rawLeaves(t, t.TempDir(), runs, kind), -1, nil, got, false); err != nil {
			t.Fatal(err)
		}
		var hot []int64
		for _, g := range got.groups {
			if strings.HasSuffix(g.key, "hot") {
				for _, v := range g.values {
					var l types.LongWritable
					if err := wio.Unmarshal([]byte(v), &l); err != nil {
						t.Fatal(err)
					}
					hot = append(hot, l.V)
				}
			}
		}
		if len(hot) != 7*5+7*21 || !slices.IsSorted(hot) {
			t.Errorf("leaf kind %d: the hot key's %d values arrive as %v, want 182 in map-task order", kind, len(hot), hot)
		}
	}
}
