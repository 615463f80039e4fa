package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"m3r/internal/types"
	"m3r/internal/wio"
)

// referenceFrame is the frame of recs written the plain way: one contiguous
// payload, each object marshaled onto its end unless, with dedup, an object
// of more than identityEntryBytes was written before, then the table and
// the footer.
func referenceFrame(t *testing.T, recs []kvRec, dedup bool) []byte {
	t.Helper()
	var payload, table []byte
	seen := make(map[wio.Writable][2]uint64)
	object := func(v wio.Writable) {
		if s, ok := seen[v]; ok && dedup {
			table = binary.AppendUvarint(table, s[0]<<1|1)
			table = binary.AppendUvarint(table, s[1])
			return
		}
		b, err := wio.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		table = binary.AppendUvarint(table, uint64(len(b))<<1)
		if len(b) > identityEntryBytes {
			seen[v] = [2]uint64{uint64(len(payload)), uint64(len(b))}
		}
		payload = append(payload, b...)
	}
	for _, r := range recs {
		table = binary.AppendUvarint(table, uint64(r.part))
		object(r.key)
		object(r.value)
	}
	frame := append(payload, table...)
	frame = binary.BigEndian.AppendUint64(frame, uint64(len(payload)))
	return binary.BigEndian.AppendUint64(frame, uint64(len(recs)))
}

// frameRecs are records over three partitions whose payload spans many
// chunks: small keys, a 100-byte value sent again and again, empty objects,
// and a value above the chunk ceiling, so back-references reach into
// earlier chunks.
func frameRecs() []kvRec {
	shared := types.NewBytes(bytes.Repeat([]byte{'s'}, 100))
	var recs []kvRec
	for i := range 3000 {
		var v wio.Writable = types.NewInt(int32(i))
		switch {
		case i%7 == 0:
			v = shared
		case i%500 == 1:
			v = types.Null()
		case i == 1234:
			v = types.NewBytes(bytes.Repeat([]byte{'h'}, 3<<maxChunkShift))
		}
		recs = append(recs, kvRec{i % 3, types.NewText(fmt.Sprintf("key-%05d", i)), v})
	}
	return append(recs, kvRec{1, types.Null(), types.Null()}, kvRec{2, shared, shared})
}

// TestShipIsTheReferenceFrame: the frame Ship sends is the one the plain
// writer makes, with and without dedup, and what arrives — the same bytes,
// or a copy as tcp delivers — lays out per partition in collect order, the
// views pointing into what arrived.
func TestShipIsTheReferenceFrame(t *testing.T) {
	recs := frameRecs()
	for _, dedup := range []bool{false, true} {
		for _, copied := range []bool{false, true} {
			t.Run(fmt.Sprintf("dedup=%v/copied=%v", dedup, copied), func(t *testing.T) {
				b := GetBuffer()
				defer b.Release()
				for _, r := range recs {
					if _, err := b.Collect(r.part, r.key, r.value, dedup); err != nil {
						t.Fatal(err)
					}
				}
				var sent []byte
				n, hits, err := b.Ship(3, func(f []byte) ([]byte, error) {
					sent = bytes.Clone(f)
					if copied {
						return bytes.Clone(f), nil
					}
					return f, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				if want := referenceFrame(t, recs, dedup); !bytes.Equal(sent, want) || n != len(want) {
					t.Fatalf("shipped %d bytes (%d reported) differ from the reference's %d", len(sent), n, len(want))
				}
				if dedup && hits == 0 {
					t.Error("no back-reference made")
				}
				if copied {
					poisonBytes(b.sc.wire)
				}
				for p := range 3 {
					got := b.Partition(p)
					i := 0
					for _, r := range recs {
						if r.part != p {
							continue
						}
						kb, _ := wio.Marshal(r.key)
						vb, _ := wio.Marshal(r.value)
						if i >= len(got) || !bytes.Equal(got[i].K, kb) || !bytes.Equal(got[i].V, vb) {
							t.Fatalf("partition %d record %d arrives differently", p, i)
						}
						i++
					}
					if i != len(got) {
						t.Fatalf("partition %d: %d records arrived, %d sent", p, len(got), i)
					}
				}
			})
		}
	}
}

// FuzzDecodeFrame decodes arbitrary bytes as an arrived frame into a new
// buffer: records or an ErrCorruptFrame, never a panic, and no room made
// for more records than the table can hold (a record is at least three
// table bytes).
func FuzzDecodeFrame(f *testing.F) {
	b := GetBuffer()
	for _, r := range frameRecs()[:15] {
		if _, err := b.Collect(r.part, r.key, r.value, true); err != nil {
			f.Fatal(err)
		}
	}
	if _, _, err := b.Ship(3, func(frame []byte) ([]byte, error) {
		f.Add(bytes.Clone(frame), uint8(3))
		return frame, nil
	}); err != nil {
		f.Fatal(err)
	}
	b.Release()
	f.Fuzz(func(t *testing.T, frame []byte, parts uint8) {
		b := Buffer{sc: new(scratch)} // a new scratch: its capacity is what Decode made
		err := b.Decode(frame, int(parts%8)+1)
		if n := max(cap(b.meta), cap(b.sc.recs)); n > len(frame)/3 {
			t.Fatalf("decoding %d bytes made room for %d records", len(frame), n)
		}
		if err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("error %v is not a corrupt-frame error", err)
		}
	})
}
