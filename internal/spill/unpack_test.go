package spill

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
	"unsafe"

	"m3r/internal/types"
	"m3r/internal/wio"
)

// unpackRecs are (IntWritable, BytesWritable) records of one object buffer
// whose values run through the sizes that matter to the ownership rule —
// one byte, either side of wio.OwnedFloor, 2 KiB, and more than a ceiling —
// with one value sent from the first chunk to the last.
func unpackRecs() (recs []kvRec, shared wio.Writable) {
	sizes := []int{1, wio.OwnedFloor - 1, wio.OwnedFloor, 2048, 2<<objectMaxChunkShift + 1}
	shared = types.NewBytes(bytes.Repeat([]byte{'s'}, 3*wio.OwnedFloor))
	for i := range 200 {
		var v wio.Writable = types.NewBytes(bytes.Repeat([]byte{byte('a' + i%26)}, sizes[i%len(sizes)]))
		if i%40 == 0 {
			v = shared
		}
		recs = append(recs, kvRec{i % 2, types.NewInt(int32(i)), v})
	}
	return recs, shared
}

// inside reports whether b's bytes lie in one of pieces.
func inside(b []byte, pieces [][]byte) bool {
	for _, p := range pieces {
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		if at := uintptr(unsafe.Pointer(unsafe.SliceData(b))); len(b) > 0 && at >= lo && at < lo+uintptr(cap(p)) {
			return true
		}
	}
	return false
}

// TestUnpackOwnsWhatItPointsInto is the arrival's ownership rule. An object
// buffer ships, over the in-process loopback (what arrives is the sent
// chunk) and as tcp delivers (a copy), and unpacks: every pair arrives in
// collect order per partition as it was sent, every back-reference as the one
// object, a value of wio.OwnedFloor bytes or more as a view of its arrived
// piece unless that piece is under half full, and no other value as one.
// Then, with every chunk the buffer keeps poisoned at its release and
// overwritten by the next buffer's records, the values still read as sent:
// a chunk a value points into was handed over, never reused.
func TestUnpackOwnsWhatItPointsInto(t *testing.T) {
	defer PoisonRecycledBlocks.Store(PoisonRecycledBlocks.Swap(true))
	recs, shared := unpackRecs()
	for _, copied := range []bool{false, true} {
		t.Run(fmt.Sprintf("copied=%v", copied), func(t *testing.T) {
			b := GetObjectBuffer()
			for _, r := range recs {
				if _, err := b.Collect(r.part, r.key, r.value, true); err != nil {
					t.Fatal(err)
				}
			}
			var arrived [][]byte
			if _, _, _, err := b.Ship(2, func(f []byte) ([]byte, error) {
				if copied {
					f = bytes.Clone(f)
				}
				arrived = append(arrived, f)
				return f, nil
			}); err != nil {
				t.Fatal(err)
			}
			var got [2][]wio.Pair
			if err := b.Unpack(types.IntName, types.BytesName, false, func(p int, kv wio.Pair) { got[p] = append(got[p], kv) }); err != nil {
				t.Fatal(err)
			}
			payload := arrived[:len(arrived)-1]
			var sharedGot wio.Writable
			i := [2]int{}
			for _, r := range recs {
				kv := got[r.part][i[r.part]]
				i[r.part]++
				if !wio.Equal(kv.Key, r.key) || !wio.Equal(kv.Value, r.value) {
					t.Fatalf("record %v arrived changed", r.key)
				}
				v := kv.Value.(*types.BytesWritable).B
				if r.value == shared {
					if sharedGot == nil {
						sharedGot = kv.Value
					} else if kv.Value != sharedGot {
						t.Fatal("a back-reference arrived as an object of its own")
					}
				}
				if inside(v, payload) {
					if len(v) < wio.OwnedFloor {
						t.Fatalf("a %d-byte value points into what arrived", len(v))
					}
					for _, p := range payload {
						if inside(v, [][]byte{p}) && 2*len(p) < cap(p) {
							t.Fatalf("a %d-byte value points into a piece of %d bytes of %d", len(v), len(p), cap(p))
						}
					}
				}
			}
			views := 0
			for _, kvs := range got {
				for _, kv := range kvs {
					if inside(kv.Value.(*types.BytesWritable).B, payload) {
						views++
					}
				}
			}
			if views == 0 {
				t.Fatal("no value points into what arrived")
			}
			b.Release()
			// The next buffer reuses what the pool kept, written over.
			next := GetObjectBuffer()
			for _, r := range recs {
				if _, err := next.Collect(r.part, r.key, types.NewBytes(bytes.Repeat([]byte{'X'}, 3000)), false); err != nil {
					t.Fatal(err)
				}
			}
			next.Release()
			i = [2]int{}
			for _, r := range recs {
				kv := got[r.part][i[r.part]]
				i[r.part]++
				if !wio.Equal(kv.Value, r.value) {
					t.Fatalf("record %v: its value changed after its buffer was released", r.key)
				}
			}
		})
	}
}

// TestUnpackRejectsAReferenceToNoObject: a back-reference must name an
// object the frame decoded before, at its start and of its length; bytes
// inside one, or a prefix of one, decode to nothing and fail the arrival
// with ErrCorruptFrame.
func TestUnpackRejectsAReferenceToNoObject(t *testing.T) {
	// Two IntWritables, then a record whose key refers back to a given
	// span of them.
	frame := func(off, n uint64) [][]byte {
		payload := []byte{0, 0, 0, 1, 0, 0, 0, 2}
		table := []uint64{0, 4 << 1, 4 << 1, 0, off<<1 | 1, n, 4<<1 | 1, 4}
		var tb []byte
		for _, v := range table {
			tb = binary.AppendUvarint(tb, v)
		}
		tb = binary.BigEndian.AppendUint64(tb, uint64(len(payload)))
		tb = binary.BigEndian.AppendUint64(tb, 2)
		return [][]byte{payload, tb}
	}
	for _, tc := range []struct {
		off, n uint64
		ok     bool
	}{{0, 4, true}, {2, 4, false}, {0, 2, false}, {1, 3, false}} {
		b := GetObjectBuffer()
		if err := b.Decode(frame(tc.off, tc.n), 1); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		var got []wio.Pair
		err := b.Unpack(types.IntName, types.IntName, false, func(_ int, kv wio.Pair) { got = append(got, kv) })
		switch {
		case tc.ok && (err != nil || got[1].Key != got[0].Key || got[1].Value != got[0].Value):
			t.Errorf("%+v: %v; want the first record's objects again", tc, err)
		case !tc.ok && !errors.Is(err, ErrCorruptFrame):
			t.Errorf("%+v: %v, want ErrCorruptFrame", tc, err)
		}
		b.Release()
	}
}
