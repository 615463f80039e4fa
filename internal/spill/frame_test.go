package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"testing"

	"m3r/internal/types"
	"m3r/internal/wio"
)

// referenceFrame is the frame of recs written the plain way: one contiguous
// payload, each object marshaled onto its end unless, with dedup, an object
// of more than floor bytes was written before, then the table and the
// footer.
func referenceFrame(t *testing.T, recs []kvRec, dedup bool, floor int) []byte {
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
		if len(b) > floor {
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

// TestShipIsTheReferenceFrame: the pieces Ship sends — every chunk, the
// table and footer behind the last or after it — are, end to end, the frame
// the plain writer makes,
// with and without dedup, for a buffer that remembers objects over 32 bytes
// and for one that remembers every object; and what arrives — the same
// bytes, or a copy as tcp delivers — lays out per partition in collect
// order, the views pointing into what arrived.
func TestShipIsTheReferenceFrame(t *testing.T) {
	recs := frameRecs()
	for _, kind := range []struct {
		name  string
		get   func() *Buffer
		floor int
	}{{"", GetBuffer, identityEntryBytes}, {"object/", GetObjectBuffer, -1}} {
		for _, dedup := range []bool{false, true} {
			for _, copied := range []bool{false, true} {
				t.Run(fmt.Sprintf("%sdedup=%v/copied=%v", kind.name, dedup, copied), func(t *testing.T) {
					shipReference(t, kind.get(), recs, dedup, copied, kind.floor)
				})
			}
		}
	}
}

func shipReference(t *testing.T, b *Buffer, recs []kvRec, dedup, copied bool, floor int) {
	defer b.Release()
	for _, r := range recs {
		if _, err := b.Collect(r.part, r.key, r.value, dedup); err != nil {
			t.Fatal(err)
		}
	}
	var sent []byte
	n, pieces, hits, err := b.Ship(3, func(f []byte) ([]byte, error) {
		sent = append(sent, f...)
		if copied {
			return bytes.Clone(f), nil
		}
		return f, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceFrame(t, recs, dedup, floor); !bytes.Equal(sent, want) || n != len(want) {
		t.Fatalf("shipped %d bytes (%d reported) differ from the reference's %d", len(sent), n, len(want))
	}
	chunks := b.a.Chunks()
	want := len(chunks) + 1
	if last := chunks[len(chunks)-1]; cap(last)-len(last) >= len(b.sc.wire) {
		want-- // the table rode behind the last chunk
	}
	if pieces != want || len(chunks) < 2 {
		t.Fatalf("%d pieces crossed, want %d for %d chunks", pieces, want, len(chunks))
	}
	if dedup && hits == 0 {
		t.Error("no back-reference made")
	}
	if copied {
		poisonBytes(b.sc.wire)
		for _, c := range b.a.Chunks() {
			poisonBytes(c)
		}
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
}

// cutFrame cuts frame into pieces at the offsets cuts names, two bytes
// each, big-endian, taken modulo the frame's length plus one.
func cutFrame(frame, cuts []byte) [][]byte {
	at := []int{0, len(frame)}
	for ; len(cuts) >= 2; cuts = cuts[2:] {
		at = append(at, int(binary.BigEndian.Uint16(cuts))%(len(frame)+1))
	}
	slices.Sort(at)
	pieces := make([][]byte, 0, len(at)-1)
	for i := 1; i < len(at); i++ {
		pieces = append(pieces, frame[at[i-1]:at[i]])
	}
	return pieces
}

// FuzzDecodeFrame decodes arbitrary bytes, cut into pieces where the fuzzer
// says, as an arrived frame into a new buffer: records or an
// ErrCorruptFrame — an object across a cut too — never a panic, and no room
// made for more records than the table can hold (a record is at least three
// table bytes).
func FuzzDecodeFrame(f *testing.F) {
	b := GetBuffer()
	for _, r := range frameRecs()[:15] {
		if _, err := b.Collect(r.part, r.key, r.value, true); err != nil {
			f.Fatal(err)
		}
	}
	var frame []byte
	if _, _, _, err := b.Ship(3, func(piece []byte) ([]byte, error) {
		frame = append(frame, piece...)
		return piece, nil
	}); err != nil {
		f.Fatal(err)
	}
	b.Release()
	// Uncut: the whole frame a piece, as a buffer of one chunk sends it; cut
	// before the table, as one whose last chunk has no room for it; cut
	// inside an object too.
	table := binary.BigEndian.AppendUint16(nil, uint16(binary.BigEndian.Uint64(frame[len(frame)-16:])))
	f.Add(frame, []byte{}, uint8(3))
	f.Add(frame, table, uint8(3))
	f.Add(frame, append([]byte{0, 3}, table...), uint8(3))
	f.Fuzz(func(t *testing.T, frame, cuts []byte, parts uint8) {
		b := Buffer{sc: new(scratch)} // a new scratch: its capacity is what Decode made
		err := b.Decode(cutFrame(frame, cuts), int(parts%8)+1)
		if n := max(cap(b.meta), cap(b.sc.recs)); n > len(frame)/3 {
			t.Fatalf("decoding %d bytes made room for %d records", len(frame), n)
		}
		if err != nil && !errors.Is(err, ErrCorruptFrame) {
			t.Fatalf("error %v is not a corrupt-frame error", err)
		}
	})
}

// TestOneChunkBufferIsOneFrame: a buffer whose records fit one chunk with
// room for the table and footer crosses as one piece — frames equal chunks —
// in place or copied, and arrives as what was collected.
func TestOneChunkBufferIsOneFrame(t *testing.T) {
	for _, copied := range []bool{false, true} {
		b := GetObjectBuffer()
		for i := range 20 {
			if _, err := b.Collect(i%2, types.NewText(fmt.Sprintf("k%02d", i)), types.NewInt(int32(i)), false); err != nil {
				t.Fatal(err)
			}
		}
		chunks := len(b.a.Chunks())
		_, pieces, _, err := b.Ship(2, func(f []byte) ([]byte, error) {
			if copied {
				return bytes.Clone(f), nil
			}
			return f, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if chunks != 1 || pieces != chunks {
			t.Errorf("copied %v: %d pieces for %d chunks, want one", copied, pieces, chunks)
		}
		for p := range 2 {
			for j, r := range b.Partition(p) {
				if want := fmt.Sprintf("k%02d", 2*j+p); string(r.K[1:]) != want {
					t.Errorf("copied %v: partition %d record %d key %q, want %q", copied, p, j, r.K, want)
				}
			}
		}
		b.Release()
	}
}
