package integration_test

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/mapreduce"
	"m3r/internal/matrix"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// The M3R engine groups a combiner job's map output by hash as it is
// collected and folds a key's values through the combiner whenever 64 have
// gathered (engine.CombineTable); the Hadoop engine sorts each spill and
// combines it once. Both rest on the combiner being associative, neither on
// its being commutative: the jobs below tag every value with where it was
// emitted and use combiners and reducers whose output shows the order they
// were handed the values in, so a fold that reordered, lost or repeated a
// value changes the output bytes.

// tagMap emits, for token i of the line at byte offset o, (token, "o.i,").
func tagMap(key, value wio.Writable, emit func(k, v []byte) error) error {
	for i, tok := range bytes.Fields(value.(*types.Text).B) {
		if err := emit(tok, fmt.Appendf(nil, "%d.%d,", key.(*types.LongWritable).Get(), i)); err != nil {
			return err
		}
	}
	return nil
}

// reusingTagMapper collects through one key and one value object and
// scribbles over both as soon as Collect returns: legal for an unmarked
// mapper, and fatal to an engine that kept either.
type reusingTagMapper struct {
	mapred.Base
	k, v types.Text
}

func (m *reusingTagMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	return tagMap(key, value, func(k, v []byte) error {
		m.k.SetBytes(k)
		m.v.SetBytes(v)
		err := out.Collect(&m.k, &m.v)
		m.k.SetBytes([]byte("scribbled-key"))
		m.v.SetBytes([]byte("scribbled-value"))
		return err
	})
}

// freshTagMapper allocates what it collects and says so.
type freshTagMapper struct{ mapred.Base }

func (freshTagMapper) AssertImmutableOutput() {}

func (freshTagMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	return tagMap(key, value, func(k, v []byte) error {
		return out.Collect(types.NewText(string(k)), types.NewText(string(v)))
	})
}

// newAPITagMapper writes through the task context — the same context a
// new-API combiner folding in the middle of the map writes through.
type newAPITagMapper struct{ mapreduce.MapperBase }

func (newAPITagMapper) Map(key, value wio.Writable, ctx mapreduce.MapContext) error {
	return tagMap(key, value, func(k, v []byte) error {
		return ctx.Write(types.NewText(string(k)), types.NewText(string(v)))
	})
}

// orderReducer is every combiner and reducer of these jobs: it hands the
// group's values, in the order it gets them, to fold, and emits what fold
// returns. As a combiner it reuses nothing, but is unmarked, so the engines
// clone what it emits.
type orderReducer struct {
	mapred.Base
	fold func(values [][]byte) [][]byte
}

func (r orderReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	var vs [][]byte
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		vs = append(vs, v.(*types.Text).B)
	}
	for _, v := range r.fold(vs) {
		if err := out.Collect(key, &types.Text{B: v}); err != nil {
			return err
		}
	}
	return nil
}

// The folds. Each is associative: fold(fold(p) ++ r) == fold(p ++ r).
var orderFolds = map[string]func([][]byte) [][]byte{
	// Ordered concatenation: one value out, not commutative.
	"concat": func(vs [][]byte) [][]byte { return [][]byte{bytes.Join(vs, nil)} },
	// Nothing out.
	"drop": func([][]byte) [][]byte { return nil },
	// The first and the last value: two out, whatever came in.
	"ends": func(vs [][]byte) [][]byte { return [][]byte{vs[0], vs[len(vs)-1]} },
	// Everything out: a fold never shrinks its key.
	"identity": func(vs [][]byte) [][]byte { return vs },
}

// newAPIConcat is the concat fold as a new-API combiner that counts its
// Setup and Cleanup calls.
type newAPIConcat struct{}

var newAPISetups, newAPICleanups atomic.Int64

func (newAPIConcat) Setup(mapreduce.ReduceContext) error   { newAPISetups.Add(1); return nil }
func (newAPIConcat) Cleanup(mapreduce.ReduceContext) error { newAPICleanups.Add(1); return nil }

func (newAPIConcat) Reduce(key wio.Writable, values mapreduce.Values, ctx mapreduce.ReduceContext) error {
	var joined []byte
	for v, ok := values.Next(); ok; v, ok = values.Next() {
		joined = append(joined, v.(*types.Text).B...)
	}
	return ctx.Write(key, &types.Text{B: joined})
}

func init() {
	mapred.RegisterMapper("test.order.ReusingMapper", func() mapred.Mapper { return &reusingTagMapper{} })
	mapred.RegisterMapper("test.order.FreshMapper", func() mapred.Mapper { return freshTagMapper{} })
	mapreduce.RegisterMapper("test.order.NewAPIMapper", func() mapreduce.Mapper { return newAPITagMapper{} })
	for name, fold := range orderFolds {
		mapred.RegisterReducer("test.order."+name, func() mapred.Reducer { return orderReducer{fold: fold} })
	}
	mapreduce.RegisterReducer("test.order.NewAPIConcat", func() mapreduce.Reducer { return newAPIConcat{} })
	mapred.RegisterComparator("test.order.TextGrouping", func() wio.Comparator { return types.TextRawComparator{} })
}

// orderInput writes the job's input: a few hot words (hundreds of values a
// map task, so keys fold and refold), a tail of cold ones, and keys from the
// sort prefix's edge set — shared eight-byte prefixes, trailing NULs.
func orderInput(t *testing.T, fs dfs.FileSystem, dir string) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	vocab := []string{"ab", "ab\x00", "ab\x00\x00", "abcdefgh", "abcdefghi", "abcdefgh\x00", "abcdefgi"}
	for i := 0; i < 120; i++ {
		vocab = append(vocab, fmt.Sprintf("w%03d", i))
	}
	zipf := rand.NewZipf(rng, 1.2, 1.0, uint64(len(vocab)-1))
	for f := 0; f < 5; f++ {
		var text []byte
		for w := 0; w < 1500; w++ {
			text = append(text, vocab[zipf.Uint64()]...)
			text = append(text, " \n"[min(w%9/8, 1)])
		}
		if err := dfs.WriteFile(fs, fmt.Sprintf("%s/f%d", dir, f), text); err != nil {
			t.Fatal(err)
		}
	}
}

// orderReference is the second oracle: the job run by one loop in one
// goroutine — read every file in path order, map each line, stable sort by
// key bytes, fold each group with the combiner's fold and then the
// reducer's — sharing with the engines only the mapper's Map. It returns
// the part files TextOutputFormat would have written under the stock hash
// partitioner (FNV-1a of the key bytes, here from hash/fnv).
func orderReference(t *testing.T, fs dfs.FileSystem, dir string, combine, reduce func([][]byte) [][]byte, R int) map[string][]byte {
	t.Helper()
	return orderReferenceBy(t, fs, dir, func(k []byte) []byte { return k }, combine, reduce, R)
}

// orderReferenceBy is orderReference for a secondary sort: records sort on
// the whole key, and group — and partition — on what groupOf cuts from it; a
// group is emitted under its first key.
func orderReferenceBy(t *testing.T, fs dfs.FileSystem, dir string, groupOf func(k []byte) []byte,
	combine, reduce func([][]byte) [][]byte, R int) map[string][]byte {
	t.Helper()
	mapped := orderMapped(t, fs, dir)
	parts := make(map[string][]byte)
	for q := 0; q < R; q++ {
		parts[fmt.Sprintf("part-%05d", q)] = nil
	}
	for i := 0; i < len(mapped); {
		var group [][]byte
		j := i
		for ; j < len(mapped) && bytes.Equal(groupOf(mapped[j].k), groupOf(mapped[i].k)); j++ {
			group = append(group, mapped[j].v)
		}
		if combined := combine(group); len(combined) > 0 {
			h := fnv.New32a()
			h.Write(groupOf(mapped[i].k))
			part := fmt.Sprintf("part-%05d", h.Sum32()%uint32(R))
			for _, v := range reduce(combined) {
				parts[part] = fmt.Appendf(parts[part], "%s\t%s\n", mapped[i].k, v)
			}
		}
		i = j
	}
	return parts
}

// orderKV is one record the reference's map emits.
type orderKV struct{ k, v []byte }

// orderMapped is the reference's map: every file under dir in path order,
// each line through the mapper's Map, stably sorted by key bytes.
func orderMapped(t *testing.T, fs dfs.FileSystem, dir string) []orderKV {
	t.Helper()
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		t.Fatal(err)
	}
	var mapped []orderKV
	for _, f := range files {
		data, err := dfs.ReadAll(fs, f.Path)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off < len(data); {
			end := len(data)
			if nl := bytes.IndexByte(data[off:], '\n'); nl >= 0 {
				end = off + nl
			}
			tagMap(types.NewLong(int64(off)), &types.Text{B: data[off:end]}, func(k, v []byte) error {
				mapped = append(mapped, orderKV{k, v})
				return nil
			})
			off = end + 1
		}
	}
	sort.SliceStable(mapped, func(i, j int) bool { return bytes.Compare(mapped[i].k, mapped[j].k) < 0 })
	return mapped
}

// orderGroups is how many groups the reference's reducer is handed: the
// distinct keys under dir whose values the combiner's fold does not drop.
func orderGroups(t *testing.T, fs dfs.FileSystem, dir string, combine func([][]byte) [][]byte) int64 {
	t.Helper()
	mapped := orderMapped(t, fs, dir)
	var n int64
	for i := 0; i < len(mapped); {
		j := i
		for j < len(mapped) && bytes.Equal(mapped[j].k, mapped[i].k) {
			j++
		}
		if len(combine([][]byte{mapped[i].v})) > 0 {
			n++
		}
		i = j
	}
	return n
}

// TestCombinerOrderEquivalence runs every mapper × combiner × R ×
// {unbudgeted, budgeted} on the M3R engine and holds its committed output,
// byte for byte, to the Hadoop engine's (which spills, and so combines,
// several times a task) and to the sequential reference. The Hadoop
// engine's combiner counters are held too: it combines every record it
// collects once, in the spill that writes it, and never in the final
// merge, so COMBINE_INPUT_RECORDS is MAP_OUTPUT_RECORDS; its reducers are
// handed the reference's groups; and what they fetch does not depend on
// how the mapper builds its records.
func TestCombinerOrderEquivalence(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 3})
	orderInput(t, c.FS, "/in/order")
	mappers := []struct{ name, class string }{
		{"reusing", "test.order.ReusingMapper"},
		{"fresh", "test.order.FreshMapper"},
		{"newapi", "test.order.NewAPIMapper"},
	}
	combiners := []struct {
		name, fold string
		newAPI     bool
		grouping   bool // name a grouping comparator: the sort-based path
	}{
		{name: "concat", fold: "concat"},
		{name: "drop", fold: "drop"},
		{name: "ends", fold: "ends"},
		{name: "identity", fold: "identity"},
		{name: "newapi-concat", fold: "concat", newAPI: true},
		{name: "concat-grouping", fold: "concat", grouping: true},
	}
	n := 0
	groups := make(map[string]int64)       // by combiner fold
	shuffleBytes := make(map[string]int64) // by combiner and R
	for _, m := range mappers {
		for _, cb := range combiners {
			for _, R := range []int{1, 3, 4} {
				// The reducer of a job is the fold its combiner is, except
				// under drop and identity, where what reaches it is joined.
				reduceFold := cb.fold
				if cb.fold == "drop" || cb.fold == "identity" {
					reduceFold = "concat"
				}
				build := func(out string) *conf.JobConf {
					job := conf.NewJob()
					job.SetJobName("order-" + cb.name)
					job.AddInputPath("/in/order")
					job.SetOutputPath(out)
					job.SetNumReduceTasks(R)
					if m.name == "newapi" {
						job.Set(conf.KeyNewMapperClass, m.class)
					} else {
						job.SetMapperClass(m.class)
					}
					if cb.newAPI {
						job.Set(conf.KeyNewCombinerClass, "test.order.NewAPIConcat")
					} else {
						job.SetCombinerClass("test.order." + cb.fold)
					}
					if cb.grouping {
						job.Set(conf.KeyGroupingComparatorClass, "test.order.TextGrouping")
					}
					job.SetReducerClass("test.order." + reduceFold)
					job.SetMapOutputKeyClass(types.TextName)
					job.SetMapOutputValueClass(types.TextName)
					job.SetOutputKeyClass(types.TextName)
					job.SetOutputValueClass(types.TextName)
					return job
				}
				leg := fmt.Sprintf("%s/%s/R=%d", m.name, cb.name, R)
				n++
				hJob := build(fmt.Sprintf("/out/order/h%d", n))
				// A file's 1 500 tagged words are some 20 KB of records:
				// several spills, so several combiner passes, a map task.
				hJob.SetInt(conf.KeySortBytes, 4096)
				hReport, err := c.Hadoop.Submit(hJob)
				if err != nil {
					t.Fatalf("%s: hadoop: %v", leg, err)
				}
				want := readRawParts(t, c.FS, fmt.Sprintf("/out/order/h%d", n))
				assertSameParts(t, leg+": hadoop vs reference", want,
					orderReference(t, c.FS, "/in/order", orderFolds[cb.fold], orderFolds[reduceFold], R))
				hCount := func(name string) int64 { return hReport.Counters.Value(counters.TaskGroup, name) }
				if in, out := hCount(counters.CombineInputRecords), hCount(counters.MapOutputRecords); in != out || in == 0 {
					t.Errorf("%s: hadoop: COMBINE_INPUT_RECORDS %d, MAP_OUTPUT_RECORDS %d: want them equal, and not 0", leg, in, out)
				}
				if _, ok := groups[cb.fold]; !ok {
					groups[cb.fold] = orderGroups(t, c.FS, "/in/order", orderFolds[cb.fold])
				}
				if got := hCount(counters.ReduceInputGroups); got != groups[cb.fold] {
					t.Errorf("%s: hadoop: REDUCE_INPUT_GROUPS %d, the reference has %d", leg, got, groups[cb.fold])
				}
				fetched, key := hCount(counters.ReduceShuffleBytes), fmt.Sprintf("%s/R=%d", cb.name, R)
				if first, ok := shuffleBytes[key]; ok && fetched != first {
					t.Errorf("%s: hadoop: REDUCE_SHUFFLE_BYTES %d, %d under the first mapper", leg, fetched, first)
				}
				shuffleBytes[key] = fetched

				for _, budget := range []int64{-1, 8192} {
					mleg := fmt.Sprintf("%s/budget=%d", leg, budget)
					out := fmt.Sprintf("/out/order/m%d_%d", n, budget)
					job := build(out)
					job.SetInt64(conf.KeyM3RShuffleBudget, budget)
					rj, err := engine.Resolve(job)
					if err != nil {
						t.Fatal(err)
					}
					if rj.CombineByHash == cb.grouping {
						t.Fatalf("%s: CombineByHash = %v on a job %s a grouping comparator", mleg, rj.CombineByHash,
							map[bool]string{true: "with", false: "without"}[cb.grouping])
					}
					setups := newAPISetups.Load()
					report, err := c.M3R.Submit(job)
					if err != nil {
						t.Fatalf("%s: m3r: %v", mleg, err)
					}
					assertSameParts(t, mleg, readRawParts(t, c.FS, out), want)

					mapOut := report.Counters.Value(counters.TaskGroup, counters.MapOutputRecords)
					combineIn := report.Counters.Value(counters.TaskGroup, counters.CombineInputRecords)
					switch {
					case cb.grouping && combineIn != mapOut:
						t.Errorf("%s: the sort-based path combined %d records of %d collected", mleg, combineIn, mapOut)
					case !cb.grouping && (combineIn < mapOut || combineIn > 3*mapOut || (combineIn == mapOut) != (cb.fold == "drop")):
						// What a fold emits is folded again with what
						// arrives next, so more goes in than was collected
						// (unless folds emit nothing) — but not many times
						// more: a key that does not shrink doubles its
						// threshold.
						t.Errorf("%s: the table folded %d records of %d collected, want more than all (all, for drop) and at most three times as many", mleg, combineIn, mapOut)
					}
					if cb.newAPI {
						// Setup and Cleanup once per table: per map task and
						// partition that got a record.
						tables := newAPISetups.Load() - setups
						maps := report.Counters.Value(counters.JobGroup, counters.TotalLaunchedMaps)
						if tables < maps || tables > maps*int64(R) || newAPICleanups.Load() != newAPISetups.Load() {
							t.Errorf("%s: %d Setup calls this job for %d map tasks of %d partitions; %d Setups and %d Cleanups in all",
								mleg, tables, maps, R, newAPISetups.Load(), newAPICleanups.Load())
						}
					}
				}
			}
		}
	}
}

// TestCombinerThresholdDoubles: an identity combiner over one key with
// 1 000 values. Every fold hands back what it was given, so the key's
// threshold must double and the combiner see each value a couple of times,
// not once per record collected after the 64th.
func TestCombinerThresholdDoubles(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 1})
	if err := dfs.WriteFile(c.FS, "/in/onekey/f", bytes.Repeat([]byte("k k k k k k k k k k\n"), 100)); err != nil {
		t.Fatal(err)
	}
	build := func(out string) *conf.JobConf {
		job := conf.NewJob()
		job.AddInputPath("/in/onekey")
		job.SetOutputPath(out)
		job.SetMapperClass("test.order.ReusingMapper")
		job.SetCombinerClass("test.order.identity")
		job.SetReducerClass("test.order.concat")
		job.SetMapOutputKeyClass(types.TextName)
		job.SetMapOutputValueClass(types.TextName)
		job.SetOutputKeyClass(types.TextName)
		job.SetOutputValueClass(types.TextName)
		return job
	}
	if _, err := c.Hadoop.Submit(build("/out/onekey/h")); err != nil {
		t.Fatal(err)
	}
	report, err := c.M3R.Submit(build("/out/onekey/m"))
	if err != nil {
		t.Fatal(err)
	}
	want := readRawParts(t, c.FS, "/out/onekey/h")
	assertSameParts(t, "m3r vs hadoop", readRawParts(t, c.FS, "/out/onekey/m"), want)
	assertSameParts(t, "hadoop vs reference", want,
		orderReference(t, c.FS, "/in/onekey", orderFolds["identity"], orderFolds["concat"], 1))
	// A map task that collected n values folds 64, 128, 256, ... and at
	// last all n: under 2n. Folding once per record would be 64 values or
	// more for every record after the 64th.
	if in := report.Counters.Value(counters.TaskGroup, counters.CombineInputRecords); in <= 1000 || in >= 2000 {
		t.Errorf("the combiner was handed %d values for 1000 collected, want more than 1000 and fewer than 2000", in)
	}
}

// TestCombineByHashAdmissibility pins the rule the table stands on. A
// combiner job resolves to CombineByHash exactly when it names no sort or
// grouping comparator and its map-output key type is wio.Hashable; and for
// every such registered key type, keys the job's sort comparator calls equal
// hash equal — over generated values that include the sort prefix's edge set
// (shared eight-byte prefixes, trailing NULs, empty) and, for Pairs, double
// components of either zero and NaN.
func TestCombineByHashAdmissibility(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var texts, ints, longs, vlongs, blockKeys, pairs []wio.Writable
	for _, s := range []string{
		"", "\x00", "a", "ab", "ab\x00", "ab\x00\x00", "ab\x00c", "b", "abcdefg", "abcdefg\x00",
		"abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefgi", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
	} {
		texts = append(texts, types.NewText(s))
	}
	for i := 0; i < 100; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = "\x00ab\xff"[rng.Intn(4)]
		}
		texts = append(texts, &types.Text{B: b})
	}
	for _, v := range []int64{math.MinInt64, math.MinInt32, -1, 0, 1, 1 << 32, 1<<32 + 1, math.MaxInt32, math.MaxInt64, rng.Int63(), -rng.Int63()} {
		ints = append(ints, types.NewInt(int32(v)))
		longs = append(longs, types.NewLong(v))
		vlongs = append(vlongs, types.NewVLong(v))
		blockKeys = append(blockKeys, matrix.NewBlockKey(int32(v), int32(v>>32)), matrix.NewBlockKey(int32(v>>32), int32(v)))
	}
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	for _, first := range [][]wio.Writable{texts[:15], ints, longs, {types.Null(), types.NewBool(true), types.NewBytes([]byte("ab"))}} {
		for _, f := range first {
			for _, d := range []float64{math.Copysign(0, -1), 0, 1.5, math.NaN(), negNaN} {
				pairs = append(pairs, types.NewPair(f, types.NewDouble(d)), types.NewPair(types.NewDouble(d), f))
			}
		}
	}

	resolve := func(keyClass string, set func(*conf.JobConf)) *engine.ResolvedJob {
		job := conf.NewJob()
		job.SetCombinerClass("test.order.concat")
		job.SetMapOutputKeyClass(keyClass)
		job.SetMapOutputValueClass(types.TextName)
		if set != nil {
			set(job)
		}
		rj, err := engine.Resolve(job)
		if err != nil {
			t.Fatal(err)
		}
		return rj
	}
	for _, kt := range []struct {
		class string
		keys  []wio.Writable
	}{
		{types.TextName, texts}, {types.IntName, ints}, {types.LongName, longs}, {types.VLongName, vlongs},
		{types.NullName, []wio.Writable{types.Null()}}, {types.PairName, pairs}, {matrix.BlockKeyName, blockKeys},
	} {
		rj := resolve(kt.class, nil)
		if !rj.CombineByHash {
			t.Errorf("%s: a combiner job over a Hashable key type did not resolve to CombineByHash", kt.class)
		}
		// Every key twice, as two objects: equal keys are there to find.
		keys := kt.keys
		for _, k := range kt.keys {
			keys = append(keys, wio.MustClone(k))
		}
		equal := 0
		for i, a := range keys {
			for _, b := range keys[i+1:] {
				if rj.SortCmp.Compare(a, b) != 0 {
					continue
				}
				equal++
				if ha, hb := wio.HashCode(a), wio.HashCode(b); ha != hb {
					t.Errorf("%s: %v and %v compare equal and hash %#x and %#x", kt.class, a, b, ha, hb)
				}
			}
		}
		if equal < len(kt.keys) {
			t.Errorf("%s: %d equal pairs among %d keys and their clones", kt.class, equal, len(kt.keys))
		}
	}
	for _, class := range []string{types.DoubleName, types.BoolName, types.BytesName} {
		if resolve(class, nil).CombineByHash {
			t.Errorf("%s is not Hashable, and its combiner job resolved to CombineByHash", class)
		}
	}
	for _, key := range []string{conf.KeySortComparatorClass, conf.KeyGroupingComparatorClass} {
		if resolve(types.TextName, func(job *conf.JobConf) { job.Set(key, "test.order.TextGrouping") }).CombineByHash {
			t.Errorf("a job that sets %s resolved to CombineByHash", key)
		}
	}
	plain := conf.NewJob()
	plain.SetMapOutputKeyClass(types.TextName)
	if rj, err := engine.Resolve(plain); err != nil || rj.CombineByHash {
		t.Errorf("a job without a combiner: Resolve error %v, or CombineByHash set", err)
	}
}
