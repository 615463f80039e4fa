package wio_test

import (
	"bytes"
	"testing"

	"m3r/internal/testenv"
	"m3r/internal/wio"
)

// Zero-size writables: making one allocates nothing, so a decode of them
// allocates only what the decoder itself does.
type (
	noneA struct{}
	noneB struct{}
	noneC struct{}
)

func (*noneA) WriteTo(*wio.Writer) error    { return nil }
func (*noneA) ReadFields(*wio.Reader) error { return nil }
func (*noneB) WriteTo(*wio.Writer) error    { return nil }
func (*noneB) ReadFields(*wio.Reader) error { return nil }
func (*noneC) WriteTo(*wio.Writer) error    { return nil }
func (*noneC) ReadFields(*wio.Reader) error { return nil }

func init() {
	wio.Register("wio_test.decoder.NoneA", func() wio.Writable { return new(noneA) })
	wio.Register("wio_test.decoder.NoneB", func() wio.Writable { return new(noneB) })
	wio.Register("wio_test.decoder.NoneC", func() wio.Writable { return new(noneC) })
}

// TestDecoderNamesAllocateNothing: a pooled decoder starting a new stream
// whose classes are registered looks each name up in the bytes it arrived
// in and keeps the registry's own string, so the names cost no allocation.
func TestDecoderNamesAllocateNothing(t *testing.T) {
	if testenv.Race {
		t.Skip("allocation counts are not stable under the race detector")
	}
	var buf bytes.Buffer
	enc := wio.NewEncoder(&buf, false)
	for i := 0; i < 4; i++ {
		for _, v := range []wio.Writable{new(noneA), new(noneB), new(noneC)} {
			if err := enc.Encode(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	decodeAll := func(t *testing.T, d *wio.Decoder) {
		t.Helper()
		for i := 0; i < 12; i++ {
			if _, err := d.Decode(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.DecodeEnd(); err != nil {
			t.Fatal(err)
		}
	}
	for _, owned := range []bool{false, true} {
		var d wio.Decoder
		d.ResetBytes(stream, owned)
		decodeAll(t, &d)
		if n := testing.AllocsPerRun(100, func() {
			d.ResetBytes(stream, owned)
			decodeAll(t, &d)
		}); n != 0 {
			t.Errorf("owned=%v: a new stream of three registered classes: %v allocs, want 0", owned, n)
		}
	}
}

// TestDecoderUnknownName: a name the registry does not know fails the
// decode with the error Factory gives for it, in either mode.
func TestDecoderUnknownName(t *testing.T) {
	const name = "wio_test.decoder.NotRegistered"
	_, want := wio.Factory(name)
	if want == nil {
		t.Fatal("Factory of an unregistered name succeeded")
	}
	var w wio.Writer
	w.WriteByte(1) // a new object
	w.WriteUvarint(0)
	w.WriteString(name)
	for _, mode := range []string{"slice", "stream"} {
		var d *wio.Decoder
		if mode == "slice" {
			d = new(wio.Decoder)
			d.ResetBytes(w.Bytes(), false)
		} else {
			d = wio.NewDecoder(bytes.NewReader(w.Bytes()))
		}
		if _, err := d.Decode(); err == nil || err.Error() != want.Error() {
			t.Errorf("%s mode: got %v, want %v", mode, err, want)
		}
	}
}
