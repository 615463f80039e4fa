package engine_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"m3r/internal/engine"
	"m3r/internal/spill"
	"m3r/internal/testenv"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// The sort tests hold SortPairs and SortRecs to one statement: the result is
// the sequence slices.SortStableFunc produces with the same comparator —
// the same element at every position, not merely the same key order.

// keyBytes feeds a key generator from fuzz input, reading zeros once the
// input runs out so any input yields any number of keys.
type keyBytes struct{ b []byte }

func (r *keyBytes) next() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

// textKey draws a Text of 0–11 bytes over an alphabet chosen to collide:
// equal 8-byte prefixes, embedded and trailing NULs, "ab" against "ab\x00".
func textKey(r *keyBytes) wio.Writable {
	alphabet := [...]byte{0, 'a', 'b', 0xff}
	b := make([]byte, r.next()%12)
	for i := range b {
		b[i] = alphabet[r.next()%4]
	}
	return &types.Text{B: b}
}

// smallInt draws a sign-extended byte most of the time and an extreme
// otherwise, so duplicates, negatives and the ends of the range all occur.
func smallInt(r *keyBytes) int64 {
	c := r.next()
	switch c {
	case 0x7f:
		return math.MaxInt64
	case 0x80:
		return math.MinInt64
	}
	return int64(int8(c))
}

func intKey(r *keyBytes) wio.Writable {
	v := smallInt(r)
	return types.NewInt(int32(max(math.MinInt32, min(math.MaxInt32, v))))
}

func longKey(r *keyBytes) wio.Writable { return types.NewLong(smallInt(r)) }

func doubleKey(r *keyBytes) wio.Writable {
	special := [...]float64{
		math.Copysign(0, -1), 0, math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63),
		math.Inf(1), math.Inf(-1), 1.5, -1.5,
	}
	c := r.next()
	if c < 0xc0 {
		return types.NewDouble(special[c%8])
	}
	return types.NewDouble(float64(int8(r.next())) / 4)
}

// pairKey draws a Pair whose first component is usually an Int or a Text and
// sometimes a class without a sort prefix, so heterogeneous firsts — which
// order by class name — sit in one batch.
func pairKey(r *keyBytes) wio.Writable {
	var first wio.Writable
	switch c := r.next() % 8; {
	case c < 3:
		first = intKey(r)
	case c < 6:
		first = textKey(r)
	case c == 6:
		first = longKey(r)
	default:
		first = types.NewBool(r.next()%2 == 1)
	}
	return types.NewPair(first, intKey(r))
}

// sortCases is every comparator RawComparatorFor hands out, plus two that
// offer no prefix: the natural order and a descending function.
var sortCases = []struct {
	name string
	cmp  wio.Comparator
	key  func(*keyBytes) wio.Writable
}{
	{"text", types.TextRawComparator{}, textKey},
	{"int", types.IntRawComparator{}, intKey},
	{"long", types.LongRawComparator{}, longKey},
	{"double", types.DoubleRawComparator{}, doubleKey},
	{"pair", types.PairRawComparator{}, pairKey},
	{"natural", wio.NaturalOrder{}, textKey},
	{"descending", wio.ComparatorFunc(func(a, b wio.Writable) int {
		return b.(*types.Text).CompareTo(a)
	}), textKey},
}

// makePairs draws n pairs; each value is the pair's input position, which is
// what tells two equal keys apart.
func makePairs(key func(*keyBytes) wio.Writable, n int, data []byte) []wio.Pair {
	r := &keyBytes{b: data}
	pairs := make([]wio.Pair, n)
	for i := range pairs {
		pairs[i] = wio.Pair{Key: key(r), Value: types.NewInt(int32(i))}
	}
	return pairs
}

// sortMismatch sorts copies of pairs both ways and requires the same elements
// in the same positions, then does the same for the serialized records when
// cmp has a raw form. It reports the first difference.
func sortMismatch(cmp wio.Comparator, pairs []wio.Pair) error {
	want := slices.Clone(pairs)
	slices.SortStableFunc(want, func(a, b wio.Pair) int { return cmp.Compare(a.Key, b.Key) })
	got := slices.Clone(pairs)
	engine.SortPairs(got, cmp)
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("SortPairs: position %d of %d holds input %v (key %v), stable sort puts input %v (key %v) there",
				i, len(want), got[i].Value, got[i].Key, want[i].Value, want[i].Key)
		}
	}
	raw, ok := cmp.(wio.RawComparator)
	if !ok {
		return nil
	}
	recs := make([]spill.Rec, len(pairs))
	for i, p := range pairs {
		kb, err := wio.Marshal(p.Key)
		if err != nil {
			return err
		}
		recs[i] = spill.Rec{K: kb, V: binary.BigEndian.AppendUint32(nil, uint32(i))}
	}
	wantR := slices.Clone(recs)
	slices.SortStableFunc(wantR, func(a, b spill.Rec) int { return raw.CompareRaw(a.K, b.K) })
	spill.SortRecs(recs, raw)
	for i := range wantR {
		if &recs[i].V[0] != &wantR[i].V[0] {
			return fmt.Errorf("SortRecs: position %d of %d holds input %d, stable sort puts input %d there",
				i, len(wantR), binary.BigEndian.Uint32(recs[i].V), binary.BigEndian.Uint32(wantR[i].V))
		}
		// The serialized order must be the deserialized one.
		if got[i].Value.(*types.IntWritable).V != int32(binary.BigEndian.Uint32(recs[i].V)) {
			return fmt.Errorf("position %d: SortRecs holds input %d, SortPairs input %v",
				i, binary.BigEndian.Uint32(recs[i].V), got[i].Value)
		}
	}
	return nil
}

func checkSort(t *testing.T, cmp wio.Comparator, pairs []wio.Pair) {
	t.Helper()
	if err := sortMismatch(cmp, pairs); err != nil {
		t.Fatal(err)
	}
}

// TestSortMatchesStableSort is the differential property test: every
// comparator, the sizes either side of each path boundary (the insertion
// fallback ends at 12, the radix passes start at 128), batches the size of a
// map task's, and the input shapes a shuffle produces.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, sc := range sortCases {
		for _, n := range []int{0, 1, 2, 12, 13, 127, 128, 129, 1000, 4096, 8192} {
			t.Run(fmt.Sprintf("%s/%d", sc.name, n), func(t *testing.T) {
				data := make([]byte, 16*n)
				rng.Read(data)
				random := makePairs(sc.key, n, data)
				checkSort(t, sc.cmp, random)

				// All keys equal in content, every object distinct.
				equal := make([]wio.Pair, n)
				for i := range equal {
					equal[i] = wio.Pair{Key: sc.key(&keyBytes{b: data}), Value: types.NewInt(int32(i))}
				}
				checkSort(t, sc.cmp, equal)

				sorted := slices.Clone(random)
				slices.SortStableFunc(sorted, func(a, b wio.Pair) int { return sc.cmp.Compare(a.Key, b.Key) })
				relabel(sorted)
				checkSort(t, sc.cmp, sorted)

				slices.Reverse(sorted)
				relabel(sorted)
				checkSort(t, sc.cmp, sorted)
			})
		}
	}
}

// relabel renumbers the values to the pairs' current positions.
func relabel(pairs []wio.Pair) {
	for i := range pairs {
		pairs[i].Value = types.NewInt(int32(i))
	}
}

// labelled pairs keys with their input positions as values.
func labelled(keys []wio.Writable) []wio.Pair {
	pairs := make([]wio.Pair, len(keys))
	for i, k := range keys {
		pairs[i] = wio.Pair{Key: k, Value: types.NewInt(int32(i))}
	}
	return pairs
}

// TestSortRadixKeyShapes aims at what the digit logic can get wrong, each
// in a batch large enough for the radix passes: which bytes it may skip,
// and which equal-prefix runs still need the comparator.
func TestSortRadixKeyShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	const n = 600
	keys := make([]wio.Writable, n)

	// Prefixes that differ in exactly one byte — all of it, or only its
	// lowest or highest bit: seven passes skipped, and the eighth is each
	// byte in turn.
	for b := 0; b < 8; b++ {
		for _, mask := range []int{0xff, 0x01, 0x80} {
			for i := range keys {
				keys[i] = types.NewLong(0x1122334455667788 ^ int64(rng.Intn(256)&mask)<<(8*b))
			}
			t.Run(fmt.Sprintf("onebyte/%d/%#02x", b, mask), func(t *testing.T) {
				checkSort(t, types.LongRawComparator{}, labelled(keys))
			})
		}
	}

	// One run of equal prefixes mixing an exact key with one that is not:
	// "ab" sorts before "ab\x00" and the prefix cannot say so.
	t.Run("mixedexact", func(t *testing.T) {
		for i := range keys {
			keys[i] = types.NewText([]string{"ab", "ab\x00", "aa", "b"}[min(rng.Intn(8), 3)])
		}
		checkSort(t, types.TextRawComparator{}, labelled(keys))
	})

	// Every key shares its first eight bytes: no byte varies, no pass runs,
	// and the whole batch is one comparator run.
	t.Run("sharedprefix", func(t *testing.T) {
		for i := range keys {
			keys[i] = types.NewText(fmt.Sprintf("/data/in/part-%03d", rng.Intn(200)))
		}
		checkSort(t, types.TextRawComparator{}, labelled(keys))
	})

	// The doubles whose order is not the float order.
	t.Run("doubles", func(t *testing.T) {
		special := []float64{
			math.NaN(), math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63),
			math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.SmallestNonzeroFloat64,
		}
		for i := range keys {
			if keys[i] = types.NewDouble(special[rng.Intn(len(special))]); rng.Intn(4) == 0 {
				keys[i] = types.NewDouble(rng.NormFloat64())
			}
		}
		checkSort(t, types.DoubleRawComparator{}, labelled(keys))
	})

	// Pairs are never exact: every run of equal firsts goes to the
	// comparator for the second component.
	t.Run("pairs", func(t *testing.T) {
		for i := range keys {
			keys[i] = types.NewPair(types.NewInt(int32(rng.Intn(20)-10)), types.NewInt(int32(rng.Intn(5))))
		}
		checkSort(t, types.PairRawComparator{}, labelled(keys))
	})
}

// TestSortConcurrent sorts from 8 goroutines at once, each its own batch
// size: a sort borrows two scratch buffers from one pool, and a buffer
// handed to two sorts, or returned while in use, would show as a wrong
// order here or as a race under -race.
func TestSortConcurrent(t *testing.T) {
	sizes := []int{13, 127, 128, 300, 1000, 2500, 4096, 8192}
	var wg sync.WaitGroup
	for g, n := range sizes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			data := make([]byte, 16*n)
			for round := 0; round < 4; round++ {
				sc := sortCases[(g+round)%len(sortCases)]
				rng.Read(data)
				if err := sortMismatch(sc.cmp, makePairs(sc.key, n, data)); err != nil {
					t.Errorf("goroutine %d, %s/%d: %v", g, sc.name, n, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestSortLeavesSortedInputInPlace pins the flush path's case: a batch that
// arrives in order is not permuted, equal keys included.
func TestSortLeavesSortedInputInPlace(t *testing.T) {
	pairs := make([]wio.Pair, 100)
	for i := range pairs {
		pairs[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("word%04d", i/3)), Value: types.NewInt(int32(i))}
	}
	compares := 0
	cmp := wio.ComparatorFunc(func(a, b wio.Writable) int {
		compares++
		return a.(*types.Text).CompareTo(b)
	})
	engine.SortPairs(pairs, cmp)
	if compares != len(pairs)-1 {
		t.Errorf("sorted input of %d took %d comparisons, want one scan of %d", len(pairs), compares, len(pairs)-1)
	}
	for i, p := range pairs {
		if p.Value.(*types.IntWritable).V != int32(i) {
			t.Fatalf("position %d holds input %v", i, p.Value)
		}
	}
}

// FuzzSortPairs drives the same check from fuzz input: the first byte picks
// the comparator, the rest becomes the keys.
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 2, 1, 2, 3, 1, 2, 0}) // "ab" then "ab\x00"
	f.Add(append([]byte{0}, slices.Repeat([]byte{9, 1, 1, 1, 1, 1, 1, 1, 1, 2, 9, 1, 1, 1, 1, 1, 1, 1, 1, 1}, 8)...))
	f.Add(append([]byte{1}, slices.Repeat([]byte{0x80, 0x7f, 0xff, 0, 1}, 6)...))
	f.Add(append([]byte{3}, slices.Repeat([]byte{0, 1, 2, 3, 4, 5, 0xc0, 0xfe}, 4)...))
	f.Add(append([]byte{4}, slices.Repeat([]byte{0, 5, 1, 3, 2, 1, 1, 7, 1, 1, 7, 0, 2}, 4)...))
	f.Add(append([]byte{6}, slices.Repeat([]byte{3, 1, 2, 3, 0}, 8)...))
	// The same shapes, long enough (two input bytes a key) to reach the
	// radix passes.
	f.Add(append([]byte{0}, slices.Repeat([]byte{2, 1, 2, 3, 1, 2, 0, 9, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 3}, 20)...))
	f.Add(append([]byte{2}, slices.Repeat([]byte{0x80, 0x7f, 0xff, 0, 1, 5, 0xfb}, 40)...))
	f.Add(append([]byte{3}, slices.Repeat([]byte{0, 1, 2, 3, 4, 5, 0xc0, 0xfe, 0xc1, 3}, 30)...))
	f.Add(append([]byte{4}, slices.Repeat([]byte{0, 5, 1, 3, 2, 1, 1, 7, 1, 1, 7, 0, 2, 6, 9, 4}, 30)...))
	f.Add(append([]byte{5}, slices.Repeat([]byte{3, 1, 2, 3, 0, 2, 2, 1}, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<13 {
			return
		}
		sc := sortCases[int(data[0])%len(sortCases)]
		checkSort(t, sc.cmp, makePairs(sc.key, len(data)/2, data[1:]))
	})
}

// zipfWords is the benchmark batch: WordCount's map output, 8 k Text keys
// drawn Zipf-distributed from a thousand 8-byte words.
func zipfWords(n int) []wio.Pair {
	rng := rand.New(rand.NewSource(15))
	zipf := rand.NewZipf(rng, 1.3, 1.0, 999)
	pairs := make([]wio.Pair, n)
	for i := range pairs {
		pairs[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("word%04d", zipf.Uint64())), Value: types.NewInt(1)}
	}
	return pairs
}

// TestSortPairsWarmAllocatesNothing bounds the kernel's scratch: once the
// pool holds a buffer of the batch's size a sort allocates nothing.
func TestSortPairsWarmAllocatesNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	src := zipfWords(8192)
	work := make([]wio.Pair, len(src))
	cmp := types.TextRawComparator{}
	allocs := testing.AllocsPerRun(10, func() {
		copy(work, src)
		engine.SortPairs(work, cmp)
	})
	if allocs != 0 {
		t.Errorf("warm SortPairs of %d pairs allocates %v times, want 0", len(src), allocs)
	}
}

// reportPerRec reports a sort benchmark's time and allocations per record.
func reportPerRec(b *testing.B, recs int, body func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(b.N) * float64(recs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/rec")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/rec")
}

// sortBenchShapes are the key shapes of BenchmarkSortPairs' ladder: each
// takes the kernel down a different path.
var sortBenchShapes = []struct {
	name  string
	cmp   wio.Comparator
	pairs func(n int) []wio.Pair
}{
	// WordCount's map output: few distinct keys, several constant bytes.
	{"zipf", types.TextRawComparator{}, zipfWords},
	// Every byte of the prefix varies: eight passes, no comparator.
	{"allbytes", types.LongRawComparator{}, func(n int) []wio.Pair {
		rng := rand.New(rand.NewSource(15))
		pairs := make([]wio.Pair, n)
		for i := range pairs {
			pairs[i] = wio.Pair{Key: types.NewLong(int64(rng.Uint64())), Value: types.NewInt(1)}
		}
		return pairs
	}},
	// One 8-byte prefix under every key: no pass, one comparator run.
	{"sharedprefix", types.TextRawComparator{}, func(n int) []wio.Pair {
		rng := rand.New(rand.NewSource(15))
		pairs := make([]wio.Pair, n)
		for i := range pairs {
			pairs[i] = wio.Pair{Key: types.NewText(fmt.Sprintf("/data/in/part-%05d", rng.Intn(n))), Value: types.NewInt(1)}
		}
		return pairs
	}},
	// A comparator that offers no prefix at all.
	{"noprefix", wio.NaturalOrder{}, zipfWords},
}

// BenchmarkSortPairs is the sort's size ladder: each shape at each size
// through the plain stable sort SortPairs must match and through SortPairs.
// sortRadixMin in internal/wio is read off the prefix rows.
func BenchmarkSortPairs(b *testing.B) {
	for _, kernel := range []struct {
		name string
		sort func([]wio.Pair, wio.Comparator)
	}{
		{"stable-reference", func(pairs []wio.Pair, cmp wio.Comparator) {
			slices.SortStableFunc(pairs, func(a, b wio.Pair) int { return cmp.Compare(a.Key, b.Key) })
		}},
		{"prefix", engine.SortPairs},
	} {
		for _, shape := range sortBenchShapes {
			for _, n := range []int{64, 256, 1 << 10, 8 << 10, 64 << 10} {
				b.Run(fmt.Sprintf("%s/%s/%d", kernel.name, shape.name, n), func(b *testing.B) {
					src := shape.pairs(n)
					work := make([]wio.Pair, n)
					reportPerRec(b, n, func() {
						copy(work, src)
						kernel.sort(work, shape.cmp)
					})
				})
			}
		}
	}
}
