package kvstore

import (
	"testing"
	"unsafe"

	"m3r/internal/sysml"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// TestSpilledBlockFloatsShareOneSlab: a spilled block's objects all join
// one cache entry, so its read-back is one run (spill.PairDecoder.OneEntry):
// the pairs read as written, every float body lies in one slab right after
// the body before it, with its capacity clipped to its length, and a second
// read's bodies lie in a slab of their own, not in the first read's.
func TestSpilledBlockFloatsShareOneSlab(t *testing.T) {
	const n = 40
	s, _ := budgetedStore(t, 1) // admits nothing: the block spills, and never readmits
	ps := make([]wio.Pair, n)
	for i := range ps {
		ps[i] = wio.Pair{Key: types.NewInt(int32(i)), Value: sysml.RandomBlock(int32(1+i%7), 3, int64(i), 0)}
	}
	if err := put(s, "/a", ps); err != nil {
		t.Fatal(err)
	}
	info, ok := s.GetInfo("/a")
	if !ok || len(info.Blocks) != 1 || s.SpilledBlocks() != 1 {
		t.Fatalf("ok %v, %d blocks, %d spilled; want one spilled block", ok, len(info.Blocks), s.SpilledBlocks())
	}
	addr := func(v []float64) uintptr { return uintptr(unsafe.Pointer(unsafe.SliceData(v))) }
	var spans [][2]uintptr
	for read := range 2 {
		r, err := s.CreateReader(0, "/a", info.Blocks[0])
		if err != nil {
			t.Fatal(err)
		}
		got := r.Pairs()
		if len(got) != n {
			t.Fatalf("read %d: %d pairs, want %d", read, len(got), n)
		}
		var prev []float64
		for i, p := range got {
			if !wio.Equal(p.Key, ps[i].Key) || !wio.Equal(p.Value, ps[i].Value) {
				t.Fatalf("read %d pair %d: %v/%v, written %v/%v", read, i, p.Key, p.Value, ps[i].Key, ps[i].Value)
			}
			v := p.Value.(*sysml.Block).V
			if cap(v) != len(v) {
				t.Errorf("read %d pair %d: body len %d cap %d", read, i, len(v), cap(v))
			}
			if i > 0 && addr(v) != addr(prev)+8*uintptr(len(prev)) {
				t.Errorf("read %d: body %d does not follow body %d in one slab", read, i, i-1)
			}
			prev = v
		}
		first := got[0].Value.(*sysml.Block).V
		spans = append(spans, [2]uintptr{addr(first), addr(prev) + 8*uintptr(len(prev))})
	}
	if at := spans[1][0]; at >= spans[0][0] && at <= spans[0][1] {
		t.Error("the second read's bodies start inside the first read's slab")
	}
}
