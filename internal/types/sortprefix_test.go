package types

import (
	"math"
	"math/rand"
	"testing"

	"m3r/internal/wio"
)

// prefixComparator is what the five standard comparators all are.
type prefixComparator interface {
	wio.RawComparator
	wio.SortPrefixer
	wio.RawSortPrefixer
}

// prefixCorpus builds, per comparator, the keys that sit on the edges of
// its prefix — keys that share one, keys one byte either side of the eight
// it holds, NUL padding, the ends of the numeric ranges — plus random ones.
func prefixCorpus(rng *rand.Rand) map[string]struct {
	cmp  prefixComparator
	keys []wio.Writable
} {
	var texts []wio.Writable
	for _, s := range []string{
		"", "\x00", "a", "ab", "ab\x00", "ab\x00\x00", "ab\x00c", "b",
		"abcdefg", "abcdefg\x00", "abcdefgh", "abcdefgh\x00", "abcdefghi", "abcdefgi", "abcdefg\x00i",
		"\xff\xff\xff\xff\xff\xff\xff\xff", "\xff\xff\xff\xff\xff\xff\xff\xff\xff",
	} {
		texts = append(texts, NewText(s))
	}
	alphabet := []byte{0, 'a', 'b', 0xff}
	for i := 0; i < 200; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			b[j] = alphabet[rng.Intn(len(alphabet))]
		}
		texts = append(texts, &Text{B: b})
	}

	var ints, longs, doubles []wio.Writable
	for _, v := range []int64{math.MinInt64, math.MinInt32, -2, -1, 0, 1, 2, 15, 16, 17, math.MaxInt32, math.MaxInt64} {
		ints = append(ints, NewInt(int32(v)))
		longs = append(longs, NewLong(v))
	}
	negNaN := math.Float64frombits(math.Float64bits(math.NaN()) | 1<<63)
	for _, v := range []float64{negNaN, math.Inf(-1), -1.5, math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1.5, math.Inf(1), math.NaN()} {
		doubles = append(doubles, NewDouble(v))
	}
	for i := 0; i < 200; i++ {
		ints = append(ints, NewInt(int32(rng.Uint32())))
		longs = append(longs, NewLong(int64(rng.Uint64())))
		doubles = append(doubles, NewDouble(math.Float64frombits(rng.Uint64())))
	}

	// Pairs: the homogeneous corpus, then first components of every class —
	// the four with a prefix and classes whose names sort before, between
	// and after them — so batches that order by class name are covered.
	var pairs []wio.Writable
	for _, p := range pairCorpus() {
		pairs = append(pairs, p)
	}
	firsts := [][]wio.Writable{texts[:17], ints[:12], longs[:12], doubles[:9], {
		NewBool(false), NewBool(true), Null(), NewVLong(-3), NewVLong(3),
		NewBytes([]byte("ab")), NewPair(NewInt(1), NewInt(2)),
	}}
	for _, class := range firsts {
		for _, first := range class {
			pairs = append(pairs, NewPair(first, NewInt(0)), NewPair(first, NewInt(-1)))
		}
	}

	return map[string]struct {
		cmp  prefixComparator
		keys []wio.Writable
	}{
		"text":   {TextRawComparator{}, texts},
		"int":    {IntRawComparator{}, ints},
		"long":   {LongRawComparator{}, longs},
		"double": {DoubleRawComparator{}, doubles},
		"pair":   {PairRawComparator{}, pairs},
	}
}

// TestSortPrefixContract walks every pair of corpus keys through each
// SortPrefix implementation: the typed and raw prefixes of a key agree, a
// smaller prefix means a smaller key, and equal exact prefixes mean equal
// keys — under Compare and under CompareRaw.
func TestSortPrefixContract(t *testing.T) {
	for name, c := range prefixCorpus(rand.New(rand.NewSource(15))) {
		t.Run(name, func(t *testing.T) {
			type keyed struct {
				k      wio.Writable
				raw    []byte
				prefix uint64
				exact  bool
			}
			keys := make([]keyed, len(c.keys))
			decided := 0
			for i, k := range c.keys {
				raw, err := wio.Marshal(k)
				if err != nil {
					t.Fatal(err)
				}
				p, exact := c.cmp.SortPrefix(k)
				if rp, rexact := c.cmp.SortPrefixRaw(raw); rp != p || rexact != exact {
					t.Fatalf("key %v: SortPrefix (%#x, %v), SortPrefixRaw (%#x, %v)", k, p, exact, rp, rexact)
				}
				keys[i] = keyed{k, raw, p, exact}
			}
			for _, a := range keys {
				for _, b := range keys {
					mem, raw := sign(c.cmp.Compare(a.k, b.k)), sign(c.cmp.CompareRaw(a.raw, b.raw))
					switch {
					case a.prefix < b.prefix:
						decided++
						if mem >= 0 || raw >= 0 {
							t.Fatalf("prefix(%v) %#x < prefix(%v) %#x, but Compare %d, CompareRaw %d",
								a.k, a.prefix, b.k, b.prefix, mem, raw)
						}
					case a.prefix == b.prefix && a.exact && b.exact:
						decided++
						if mem != 0 || raw != 0 {
							t.Fatalf("%v and %v share exact prefix %#x, but Compare %d, CompareRaw %d",
								a.k, b.k, a.prefix, mem, raw)
						}
					}
				}
			}
			// A prefix that never decides would pass the contract and be
			// useless: most ordered pairs of a corpus must be settled by it.
			if ordered := len(keys) * (len(keys) + 1) / 2; decided < ordered/2 {
				t.Errorf("prefix decided %d of %d ordered pairs", decided, ordered)
			}
		})
	}
}
