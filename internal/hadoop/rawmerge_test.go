package hadoop

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"

	"m3r/internal/engine"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
)

func marshalInt(t *testing.T, v int32) []byte {
	t.Helper()
	b, err := wio.Marshal(types.NewInt(v))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMergerProducesGlobalOrder merges several sorted segments and checks
// global sorted order with stable tie-breaks.
func TestMergerProducesGlobalOrder(t *testing.T) {
	dir := t.TempDir()
	var streams []engine.RecSource
	// Three sorted runs with interleaved and duplicate keys.
	runs := [][]int32{
		{1, 4, 7, 7, 100},
		{2, 4, 8},
		{0, 4, 9, 101},
	}
	for i, run := range runs {
		path := filepath.Join(dir, "run", string(rune('a'+i)))
		os.MkdirAll(filepath.Dir(path), 0o755)
		f, _ := os.Create(path)
		w := bufio.NewWriter(f)
		sw := spill.NewSegmentWriter(w, spill.CodecNone)
		for _, v := range run {
			if err := sw.Write(spill.Rec{K: marshalInt(t, v), V: []byte{byte(i)}}); err != nil {
				t.Fatal(err)
			}
		}
		total, _, err := sw.Finish()
		if err != nil {
			t.Fatal(err)
		}
		w.Flush()
		f.Close()
		s, err := spill.OpenSegment(path, spill.Segment{Off: 0, Len: total})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, s)
	}
	// The map-side merge of a job with IntWritable keys.
	cmp := types.IntRawComparator{}
	rj := &engine.ResolvedJob{SortCmp: cmp, GroupCmp: cmp, RawSortCmp: cmp, RawGroupCmp: cmp, GroupsBySort: true}
	m, err := rj.OpenRawMerge(streams, types.IntName, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	var got []int32
	var srcOfFours []byte
	for {
		r, ok, err := m.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		out := &types.IntWritable{}
		wio.Unmarshal(r.K, out)
		got = append(got, out.Get())
		if out.Get() == 4 {
			srcOfFours = append(srcOfFours, r.V[0])
		}
	}
	want := []int32{0, 1, 2, 4, 4, 4, 7, 7, 8, 9, 100, 101}
	if len(got) != len(want) {
		t.Fatalf("merged %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: %d want %d (all: %v)", i, got[i], want[i], got)
		}
	}
	// Ties resolve by stream index: sources 0, 1, 2.
	if string(srcOfFours) != "\x00\x01\x02" {
		t.Errorf("tie-break order: %v", srcOfFours)
	}
}
