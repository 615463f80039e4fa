package types_test

import (
	"bytes"
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"m3r/internal/types"
	"m3r/internal/wio"
)

// roundTrip serializes and reparses a writable into out.
func roundTrip(t *testing.T, in, out wio.Writable) {
	t.Helper()
	b, err := wio.Marshal(in)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if err := wio.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
}

func TestRoundTripProperty(t *testing.T) {
	if err := quick.Check(func(v int32) bool {
		out := &types.IntWritable{}
		roundTrip(t, types.NewInt(v), out)
		return out.Get() == v
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(v int64) bool {
		out := &types.LongWritable{}
		roundTrip(t, types.NewLong(v), out)
		vl := &types.VLongWritable{}
		roundTrip(t, types.NewVLong(v), vl)
		return out.Get() == v && vl.V == v
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(v float64) bool {
		out := &types.DoubleWritable{}
		roundTrip(t, types.NewDouble(v), out)
		return out.Get() == v || (math.IsNaN(v) && math.IsNaN(out.Get()))
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(s string) bool {
		out := &types.Text{}
		roundTrip(t, types.NewText(s), out)
		return out.String() == s
	}, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(b []byte) bool {
		out := &types.BytesWritable{}
		roundTrip(t, types.NewBytes(b), out)
		return bytes.Equal(out.B, b)
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestTextReuse(t *testing.T) {
	txt := types.NewText("first value here")
	ptr := &txt.B[0]
	txt.Set("second")
	if &txt.B[0] != ptr {
		t.Error("Set should reuse the backing array when capacity allows")
	}
	if txt.String() != "second" {
		t.Errorf("got %q", txt)
	}
	txt.SetBytes([]byte("third!"))
	if txt.String() != "third!" {
		t.Errorf("got %q", txt)
	}
	if txt.Len() != 6 {
		t.Errorf("len %d", txt.Len())
	}
}

func TestCompareOrder(t *testing.T) {
	if types.NewInt(1).CompareTo(types.NewInt(2)) >= 0 {
		t.Error("1 < 2")
	}
	if types.NewInt(2).CompareTo(types.NewInt(2)) != 0 {
		t.Error("2 == 2")
	}
	if types.NewLong(-5).CompareTo(types.NewLong(-10)) <= 0 {
		t.Error("-5 > -10")
	}
	if types.NewText("a").CompareTo(types.NewText("b")) >= 0 {
		t.Error("a < b")
	}
	if types.NewDouble(1.5).CompareTo(types.NewDouble(1.4)) <= 0 {
		t.Error("1.5 > 1.4")
	}
	if types.NewBool(false).CompareTo(types.NewBool(true)) >= 0 {
		t.Error("false < true")
	}
	if types.Null().CompareTo(types.Null()) != 0 {
		t.Error("null == null")
	}
}

func TestNullWritableSingleton(t *testing.T) {
	a := types.Null()
	b, err := wio.New(types.NullName)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("NullWritable must be a singleton")
	}
	data, err := wio.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Errorf("NullWritable serializes to %d bytes, want 0", len(data))
	}
}

// TestRawComparatorsAgree: the raw comparators must order serialized forms
// exactly as CompareTo orders values.
func TestRawComparatorsAgree(t *testing.T) {
	if err := quick.Check(func(a, b int32) bool {
		ba, _ := wio.Marshal(types.NewInt(a))
		bb, _ := wio.Marshal(types.NewInt(b))
		raw := types.IntRawComparator{}.CompareRaw(ba, bb)
		nat := types.NewInt(a).CompareTo(types.NewInt(b))
		return sign(raw) == sign(nat)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b int64) bool {
		ba, _ := wio.Marshal(types.NewLong(a))
		bb, _ := wio.Marshal(types.NewLong(b))
		raw := types.LongRawComparator{}.CompareRaw(ba, bb)
		nat := types.NewLong(a).CompareTo(types.NewLong(b))
		return sign(raw) == sign(nat)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	if err := quick.Check(func(a, b string) bool {
		ba, _ := wio.Marshal(types.NewText(a))
		bb, _ := wio.Marshal(types.NewText(b))
		raw := types.TextRawComparator{}.CompareRaw(ba, bb)
		nat := types.NewText(a).CompareTo(types.NewText(b))
		return sign(raw) == sign(nat)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func sign(v int) int {
	switch {
	case v < 0:
		return -1
	case v > 0:
		return 1
	}
	return 0
}

// TestRawComparatorSortEquivalence sorts serialized Texts both ways and
// compares the results.
func TestRawComparatorSortEquivalence(t *testing.T) {
	words := []string{"pear", "apple", "fig", "apple pie", "", "zebra", "fig"}
	ser := make([][]byte, len(words))
	for i, w := range words {
		ser[i], _ = wio.Marshal(types.NewText(w))
	}
	sort.Slice(ser, func(i, j int) bool {
		return types.TextRawComparator{}.CompareRaw(ser[i], ser[j]) < 0
	})
	sorted := append([]string(nil), words...)
	sort.Strings(sorted)
	for i := range sorted {
		out := &types.Text{}
		if err := wio.Unmarshal(ser[i], out); err != nil {
			t.Fatal(err)
		}
		if out.String() != sorted[i] {
			t.Fatalf("position %d: raw sort %q, string sort %q", i, out, sorted[i])
		}
	}
}

func TestRawComparatorFor(t *testing.T) {
	if types.RawComparatorFor(types.TextName) == nil {
		t.Error("Text should have a raw comparator")
	}
	if types.RawComparatorFor("unknown.Class") != nil {
		t.Error("unknown class should have no raw comparator")
	}
}

func TestHashCodes(t *testing.T) {
	if types.NewInt(42).HashCode() != 42 {
		t.Error("int hash should be the value")
	}
	if types.NewText("x").HashCode() == types.NewText("y").HashCode() {
		t.Error("different texts should (here) hash differently")
	}
}

// TestTextHashCodeGolden: Text.HashCode is 32-bit FNV-1a, to the bit. The
// stock partitioner places a key by it, so a value that moved would move
// keys between reducers — and between the places a job sequence's cached
// partitions live at (§3.2.2.2).
func TestTextHashCodeGolden(t *testing.T) {
	for s, want := range map[string]uint32{
		"": 0x811c9dc5, "a": 0xe40c292c, "b": 0xe70c2de5, "foobar": 0xbf9cf968,
		"word0000": 0x3a22360d, "ab\x00": 0x3b481cfe,
	} {
		if got := types.NewText(s).HashCode(); got != want {
			t.Errorf("Text(%q).HashCode() = %#x, want %#x", s, got, want)
		}
	}
	err := quick.Check(func(b []byte) bool {
		h := fnv.New32a()
		h.Write(b)
		return (&types.Text{B: b}).HashCode() == h.Sum32()
	}, nil)
	if err != nil {
		t.Error(err)
	}
}
