package engine_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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

// checkSort sorts copies of pairs both ways and requires the same elements
// in the same positions, then does the same for the serialized records when
// cmp has a raw form.
func checkSort(t *testing.T, cmp wio.Comparator, pairs []wio.Pair) {
	t.Helper()
	want := slices.Clone(pairs)
	slices.SortStableFunc(want, func(a, b wio.Pair) int { return cmp.Compare(a.Key, b.Key) })
	got := slices.Clone(pairs)
	engine.SortPairs(got, cmp)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SortPairs: position %d of %d holds input %v (key %v), stable sort puts input %v (key %v) there",
				i, len(want), got[i].Value, got[i].Key, want[i].Value, want[i].Key)
		}
	}
	raw, ok := cmp.(wio.RawComparator)
	if !ok {
		return
	}
	recs := make([]spill.Rec, len(pairs))
	for i, p := range pairs {
		kb, err := wio.Marshal(p.Key)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = spill.Rec{K: kb, V: binary.BigEndian.AppendUint32(nil, uint32(i))}
	}
	wantR := slices.Clone(recs)
	slices.SortStableFunc(wantR, func(a, b spill.Rec) int { return raw.CompareRaw(a.K, b.K) })
	spill.SortRecs(recs, raw)
	for i := range wantR {
		if &recs[i].V[0] != &wantR[i].V[0] {
			t.Fatalf("SortRecs: position %d of %d holds input %d, stable sort puts input %d there",
				i, len(wantR), binary.BigEndian.Uint32(recs[i].V), binary.BigEndian.Uint32(wantR[i].V))
		}
		// The serialized order must be the deserialized one.
		if got[i].Value.(*types.IntWritable).V != int32(binary.BigEndian.Uint32(recs[i].V)) {
			t.Fatalf("position %d: SortRecs holds input %d, SortPairs input %v",
				i, binary.BigEndian.Uint32(recs[i].V), got[i].Value)
		}
	}
}

// TestSortMatchesStableSort is the differential property test: every
// comparator, the sizes either side of each path boundary (the insertion
// fallback ends at 12), and the input shapes a shuffle produces.
func TestSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, sc := range sortCases {
		for _, n := range []int{0, 1, 2, 12, 13, 1000} {
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

// BenchmarkSortPairs sorts one WordCount-shaped batch with the plain stable
// sort SortPairs must match, and with SortPairs using Text's prefix.
func BenchmarkSortPairs(b *testing.B) {
	src := zipfWords(8192)
	work := make([]wio.Pair, len(src))
	cmp := types.TextRawComparator{}
	b.Run("stable-reference", func(b *testing.B) {
		reportPerRec(b, len(src), func() {
			copy(work, src)
			slices.SortStableFunc(work, func(a, b wio.Pair) int { return cmp.Compare(a.Key, b.Key) })
		})
	})
	b.Run("prefix", func(b *testing.B) {
		reportPerRec(b, len(src), func() {
			copy(work, src)
			engine.SortPairs(work, cmp)
		})
	})
}
