package engine_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/mapred"
	"m3r/internal/mapreduce"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// The combiners CombineTable is checked with. All are associative — running
// one over a group's values a prefix at a time gives what running it once
// over all of them gives — and none but the sum is commutative.

// concatCombiner joins a group's Text values in the order it is handed
// them. It reuses its output object, as an unmarked combiner may.
type concatCombiner struct {
	mapred.Base
	out types.Text
}

func (c *concatCombiner) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	c.out.B = c.out.B[:0]
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		c.out.B = append(c.out.B, v.(*types.Text).B...)
	}
	return out.Collect(key, &c.out)
}

// dropCombiner emits nothing.
type dropCombiner struct{ mapred.Base }

func (dropCombiner) Reduce(wio.Writable, mapred.ValueIterator, mapred.OutputCollector, mapred.Reporter) error {
	return nil
}

// endsCombiner emits a group's first and last value: two for every group.
type endsCombiner struct{ mapred.Base }

func (endsCombiner) AssertImmutableOutput() {}

func (endsCombiner) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	first, _ := values.Next()
	last := first
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		last = v
	}
	if err := out.Collect(key, first); err != nil {
		return err
	}
	return out.Collect(key, last)
}

// identityCombiner emits every value it is handed, so a fold never shrinks
// its key.
type identityCombiner struct{ mapred.Base }

func (identityCombiner) AssertImmutableOutput() {}

func (identityCombiner) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		if err := out.Collect(key, v); err != nil {
			return err
		}
	}
	return nil
}

// newAPIConcat is concatCombiner in the context-based API, writing through
// the task context, and emitting one more pair from Cleanup.
type newAPIConcat struct{}

func (newAPIConcat) Setup(mapreduce.ReduceContext) error { return nil }

func (newAPIConcat) Reduce(key wio.Writable, values mapreduce.Values, ctx mapreduce.ReduceContext) error {
	var joined []byte
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		joined = append(joined, v.(*types.Text).B...)
	}
	return ctx.Write(key, &types.Text{B: joined})
}

func (newAPIConcat) Cleanup(ctx mapreduce.ReduceContext) error {
	return ctx.Write(types.NewText("~cleanup"), types.NewText("once"))
}

// rekeyCombiner breaks the contract: it emits under another key.
type rekeyCombiner struct{ mapred.Base }

func (rekeyCombiner) Reduce(key wio.Writable, _ mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	return out.Collect(types.NewText(key.(*types.Text).String()+"'"), types.NewText("v"))
}

// tableCombiners is the set the fuzzer draws from: registered name, whether
// it is a new-API class, and whether its values are IntWritables.
var tableCombiners = []struct {
	name   string
	newAPI bool
	ints   bool
}{
	{name: "test.combine.Concat"},
	{name: "test.combine.Drop"},
	{name: "test.combine.Ends"},
	{name: "test.combine.Identity"},
	{name: "test.combine.NewAPIConcat", newAPI: true},
	{name: "examples.WordCount$Reduce", ints: true},
}

func init() {
	mapred.RegisterReducer("test.combine.Concat", func() mapred.Reducer { return &concatCombiner{} })
	mapred.RegisterReducer("test.combine.Drop", func() mapred.Reducer { return dropCombiner{} })
	mapred.RegisterReducer("test.combine.Ends", func() mapred.Reducer { return endsCombiner{} })
	mapred.RegisterReducer("test.combine.Identity", func() mapred.Reducer { return identityCombiner{} })
	mapred.RegisterReducer("test.combine.Rekey", func() mapred.Reducer { return rekeyCombiner{} })
	mapreduce.RegisterReducer("test.combine.NewAPIConcat", func() mapreduce.Reducer { return newAPIConcat{} })
}

// combinerJob resolves a job over Text keys with the named combiner.
func combinerJob(t testing.TB, name string, newAPI, ints bool) *engine.ResolvedJob {
	t.Helper()
	job := baseJob()
	if newAPI {
		job.Set(conf.KeyNewCombinerClass, name)
	} else {
		job.SetCombinerClass(name)
	}
	if !ints {
		job.SetMapOutputValueClass(types.TextName)
	}
	rj, err := engine.Resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	if !rj.CombineByHash {
		t.Fatal("a Text-keyed combiner job without comparators must resolve to CombineByHash")
	}
	return rj
}

// checkTableAgainstCombine adds pairs to a table and holds Drain to what
// Combine makes of the same pairs.
func checkTableAgainstCombine(t *testing.T, rj *engine.ResolvedJob, pairs []wio.Pair, reuse bool) {
	t.Helper()
	table := engine.NewCombineTable(rj, engine.NewTaskContext(rj.Job, "table", nil), nil)
	addPairs(t, table, pairs, reuse)
	got, err := table.Drain()
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstCombine(t, rj, got, pairs)
}

// addPairs adds pairs to a table, through one reused, mutated key and value
// object when reuse is set, as an unmarked mapper collects.
func addPairs(t *testing.T, table *engine.CombineTable, pairs []wio.Pair, reuse bool) {
	t.Helper()
	key, value := &types.Text{}, wio.Writable(nil)
	for _, p := range pairs {
		k, v := p.Key, p.Value
		if reuse {
			key.SetBytes(p.Key.(*types.Text).B)
			if value == nil {
				value = wio.MustClone(p.Value)
			}
			b, err := wio.Marshal(p.Value)
			if err == nil {
				err = wio.Unmarshal(b, value)
			}
			if err != nil {
				t.Fatal(err)
			}
			k, v = key, value
		}
		if err := table.Add(wio.HashCode(k), k, v, reuse); err != nil {
			t.Fatal(err)
		}
	}
}

// checkAgainstCombine holds what a table drained to what Combine makes of
// the pairs that were added to it.
func checkAgainstCombine(t *testing.T, rj *engine.ResolvedJob, got, pairs []wio.Pair) {
	t.Helper()
	want, err := engine.Combine(rj, slices.Clone(pairs), engine.NewTaskContext(rj.Job, "combine", nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("Drain returned %d pairs, Combine %d", len(got), len(want))
	}
	for i := range want {
		if !wio.Equal(got[i].Key, want[i].Key) || !wio.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("pair %d of %d: Drain %v=%.60v, Combine %v=%.60v", i, len(want), got[i].Key, got[i].Value, want[i].Key, want[i].Value)
		}
	}
}

// tablePairs turns fuzz bytes into map output: a byte a record, its key one
// of nkeys words, its value its position (so order shows in what a combiner
// emits) or, for the sum, a small count.
func tablePairs(data []byte, nkeys int, ints bool) []wio.Pair {
	pairs := make([]wio.Pair, len(data))
	for i, b := range data {
		pairs[i].Key = types.NewText(fmt.Sprintf("key%03d", int(b)%nkeys))
		if ints {
			pairs[i].Value = types.NewInt(int32(b) >> 4)
		} else {
			pairs[i].Value = types.NewText(strconv.Itoa(i) + ",")
		}
	}
	return pairs
}

// FuzzCombineTable: random key sequences through a combiner of the set, by
// way of the table and by way of Combine. data[0] picks the combiner, data[1]
// the number of distinct keys (1 to 64) and whether the objects are reused.
// The same input then goes through the next combiner of the set on the
// first table's arena, so that every input is drained by a recycled one.
func FuzzCombineTable(f *testing.F) {
	for c := range tableCombiners {
		f.Add([]byte{byte(c), 3, 1, 2, 1, 1, 3})
		// One key, 1 000 values: folds at 64, and for the combiners that do
		// not shrink a key at 128, 256 and 512.
		f.Add(append([]byte{byte(c), 0}, make([]byte, 1000)...))
		// The same with the objects reused, and seven keys taking turns.
		f.Add(append([]byte{byte(c), 0x80 | 6}, bytes.Repeat([]byte{0, 1, 2, 3, 4, 5, 6, 0, 0, 3}, 120)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 || len(data) > 1<<13 {
			return
		}
		var arena *engine.CombineArena
		for i := range 2 {
			c := tableCombiners[(int(data[0])+i)%len(tableCombiners)]
			rj := combinerJob(t, c.name, c.newAPI, c.ints)
			pairs := tablePairs(data[2:], int(data[1]&0x3f)+1, c.ints)
			table := engine.NewCombineTableOn(rj, engine.NewTaskContext(rj.Job, "table", nil), nil, arena)
			addPairs(t, table, pairs, data[1]&0x80 != 0)
			got, a, err := engine.DrainToArena(table)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstCombine(t, rj, got, pairs)
			if a == nil || a.Pins() != 0 {
				t.Fatalf("drain %d left an arena that cannot be pooled: %v", i, a)
			}
			arena = a
		}
	})
}

// TestCombineTableRecycledArena: a table that drained one job leaves an
// arena that pins nothing, and a table of another job on that arena drains
// what Combine returns; an arena past the cap is not pooled.
func TestCombineTableRecycledArena(t *testing.T) {
	// Text values under the order-keeping concatenation, 600 keys.
	big := combinerJob(t, "test.combine.Concat", false, false)
	bigPairs := make([]wio.Pair, 5000)
	for i := range bigPairs {
		bigPairs[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("big%03d", i*7%600)), Value: types.NewText(strconv.Itoa(i) + ",")}
	}
	table := engine.NewCombineTableOn(big, engine.NewTaskContext(big.Job, "big", nil), nil, nil)
	addPairs(t, table, bigPairs, true)
	got, arena, err := engine.DrainToArena(table)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstCombine(t, big, got, bigPairs)
	if arena == nil {
		t.Fatal("a drained arena under the cap was not kept")
	}
	if n := arena.Pins(); n != 0 {
		t.Fatalf("the kept arena holds %d keys, values, links or slots", n)
	}
	entries, nodes, entriesCap, nodesCap := arena.Lens()
	if entries != 0 || nodes != 0 || entriesCap < 600 || nodesCap < 64 {
		t.Fatalf("kept arena: %d/%d entries, %d/%d nodes; want empty over the first table's arrays",
			entries, entriesCap, nodes, nodesCap)
	}

	// Int sums over 40 keys, fewer than the arena was sized for: its slots
	// must read empty.
	sum := combinerJob(t, "examples.WordCount$Reduce", false, true)
	sumPairs := tablePairs(bytes.Repeat([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}, 200), 40, true)
	table = engine.NewCombineTableOn(sum, engine.NewTaskContext(sum.Job, "sum", nil), nil, arena)
	addPairs(t, table, sumPairs, false)
	if got, err = table.Drain(); err != nil {
		t.Fatal(err)
	}
	checkAgainstCombine(t, sum, got, sumPairs)

	// One entry past the cap: the arena is the collector's.
	drop := combinerJob(t, "test.combine.Drop", false, false)
	table = engine.NewCombineTableOn(drop, engine.NewTaskContext(drop.Job, "drop", nil), nil, nil)
	v := types.NewText("v")
	for i := range engine.MaxArenaLen + 1 {
		k := types.NewText(strconv.Itoa(i))
		if err := table.Add(wio.HashCode(k), k, v, false); err != nil {
			t.Fatal(err)
		}
	}
	if _, arena, err = engine.DrainToArena(table); err != nil || arena != nil {
		t.Fatalf("an arena of %d entries was kept (err %v)", engine.MaxArenaLen+1, err)
	}
}

// TestCombineTableRefusesRekeyingCombiner: what a fold emits must group
// with the key it was folded for.
func TestCombineTableRefusesRekeyingCombiner(t *testing.T) {
	rj := combinerJob(t, "test.combine.Rekey", false, false)
	table := engine.NewCombineTable(rj, engine.NewTaskContext(rj.Job, "t", nil), nil)
	k := types.NewText("a")
	if err := table.Add(wio.HashCode(k), k, types.NewText("v"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := table.Drain(); err == nil || !strings.Contains(err.Error(), "combiner emitted key a' for the group of key a") {
		t.Fatalf("Drain error = %v, want the rekeying refused", err)
	}
}

// TestCombineTableFoldsAmortized: a combiner that never shrinks a key is
// run over each value a bounded number of times, and one that does holds at
// most the fold threshold of values per key.
func TestCombineTableFoldsAmortized(t *testing.T) {
	const n = 1000
	for _, c := range []struct {
		name           string
		ints           bool
		maxIn, wantOut int64
	}{
		// Folds at 64, 128, 256, 512 and Drain: 1 960 values in.
		{"test.combine.Identity", false, 2 * n, 64 + 128 + 256 + 512 + n},
		// Folds of 64 values (the last sum and 63 new ones), then Drain.
		{"examples.WordCount$Reduce", true, n + n/32, 1 + n/63 + 1},
	} {
		rj := combinerJob(t, c.name, false, c.ints)
		ctx := engine.NewTaskContext(rj.Job, "t", nil)
		table := engine.NewCombineTable(rj, ctx, nil)
		for _, p := range tablePairs(make([]byte, n), 1, c.ints) {
			if err := table.Add(wio.HashCode(p.Key), p.Key, p.Value, false); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := table.Drain(); err != nil {
			t.Fatal(err)
		}
		in := ctx.Counters.Value(counters.TaskGroup, counters.CombineInputRecords)
		out := ctx.Counters.Value(counters.TaskGroup, counters.CombineOutputRecords)
		if in < n || in > c.maxIn || out > c.wantOut {
			t.Errorf("%s over one key of %d values: combine input %d (want %d to %d), output %d (want at most %d)",
				c.name, n, in, n, c.maxIn, out, c.wantOut)
		}
	}
}

// TestCombineTableLeavesTheMappersEmit: a new-API combiner points the task
// context's Write at the table while it folds; the mapper's sink is back
// when the fold returns and when Drain does.
func TestCombineTableLeavesTheMappersEmit(t *testing.T) {
	rj := combinerJob(t, "test.combine.NewAPIConcat", true, false)
	ctx := engine.NewTaskContext(rj.Job, "t", nil)
	mapped := 0
	ctx.SetEmit(func(_, _ wio.Writable) error { mapped++; return nil })
	table := engine.NewCombineTable(rj, ctx, nil)
	for i, p := range tablePairs(make([]byte, 200), 1, false) {
		if err := table.Add(wio.HashCode(p.Key), p.Key, p.Value, false); err != nil {
			t.Fatal(err)
		}
		if err := ctx.Write(p.Key, p.Value); err != nil || mapped != i+1 {
			t.Fatalf("after %d adds the context's Write reached the mapper's sink %d times (err %v)", i+1, mapped, err)
		}
	}
	out, err := table.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[1].Key.(*types.Text).String() != "~cleanup" {
		t.Fatalf("Drain returned %v, want the key's pair and Cleanup's after it", out)
	}
	if err := ctx.Write(out[0].Key, out[0].Value); err != nil || mapped != 201 {
		t.Fatalf("after Drain the context's Write reached the mapper's sink %d times of 201 (err %v)", mapped, err)
	}
}

// BenchmarkCombineTable: 8 Ki collected pairs through WordCount's combiner
// by way of the table (hash, add, fold, drain) and by way of Combine (sort,
// group), at three key shapes.
func BenchmarkCombineTable(b *testing.B) {
	const n = 8192
	rj := combinerJob(b, "examples.WordCount$Reduce", false, true)
	one := types.NewInt(1)
	rng := rand.New(rand.NewSource(21))
	zipf := rand.NewZipf(rng, 1.3, 1.0, 999)
	for _, shape := range []struct {
		name string
		key  func(i int) string
	}{
		{"distinct", func(i int) string { return fmt.Sprintf("word%06d", i) }},
		{"zipf", func(int) string { return fmt.Sprintf("word%04d", zipf.Uint64()) }},
		{"onekey", func(int) string { return "word0000" }},
	} {
		src := make([]wio.Pair, n)
		for i := range src {
			src[i] = wio.Pair{Key: types.NewText(shape.key(i)), Value: one}
		}
		b.Run(shape.name+"/table", func(b *testing.B) {
			reportPerRec(b, n, func() {
				table := engine.NewCombineTable(rj, engine.NewTaskContext(rj.Job, "b", nil), nil)
				for _, p := range src {
					if err := table.Add(wio.HashCode(p.Key), p.Key, p.Value, false); err != nil {
						b.Fatal(err)
					}
				}
				if _, err := table.Drain(); err != nil {
					b.Fatal(err)
				}
			})
		})
		b.Run(shape.name+"/combine", func(b *testing.B) {
			reportPerRec(b, n, func() {
				var buf []wio.Pair
				for _, p := range src {
					buf = append(buf, p)
				}
				if _, err := engine.Combine(rj, buf, engine.NewTaskContext(rj.Job, "b", nil)); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
}

// TestCombineTableAddOnARecycledArena: a table over an arena that has
// already held a task's keys and values — the pooled arena a map task's
// table takes — adds pairs of keys it holds without allocating at all: no
// node, entry or slot array grows. The pairs are spread so that no key
// reaches its fold, which allocates the combiner's output.
func TestCombineTableAddOnARecycledArena(t *testing.T) {
	if testenv.Race {
		t.Skip("the arena pool drops a share of what is Put under the race detector")
	}
	rj := combinerJob(t, "examples.WordCount$Reduce", false, true)
	keys := make([]wio.Writable, 256)
	hashes := make([]uint32, len(keys))
	for i := range keys {
		keys[i] = types.NewText(fmt.Sprintf("word%04d", i))
		hashes[i] = wio.HashCode(keys[i])
	}
	one := types.NewInt(1)
	const adds = 1000 // under 4 values a key: no fold
	add := func(table *engine.CombineTable, i int) {
		if err := table.Add(hashes[i%len(keys)], keys[i%len(keys)], one, false); err != nil {
			t.Fatal(err)
		}
	}
	fill := func(values int) *engine.CombineTable {
		table := engine.NewCombineTable(rj, engine.NewTaskContext(rj.Job, "t", nil), nil)
		for i := range values {
			add(table, i)
		}
		return table
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// Mallocs counts the whole process, so a stray allocation of another
	// goroutine can land in a try; an arena that grows does in every try.
	// The fewest over three tries is the table's.
	fewest := uint64(math.MaxUint64)
	for range 3 {
		// The first table sizes the arena for the measured one's keys and
		// values, then hands it back to the pool.
		if _, err := fill(len(keys) + adds).Drain(); err != nil {
			t.Fatal(err)
		}
		table := fill(len(keys))
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for i := range adds {
			add(table, i)
		}
		runtime.ReadMemStats(&ms1)
		// The measured table keeps its arena: the next try sizes its own.
		fewest = min(fewest, ms1.Mallocs-ms0.Mallocs)
	}
	if fewest != 0 {
		t.Errorf("%d adds on a recycled arena allocate %d times, want 0", adds, fewest)
	}
}
