package wio_test

import (
	"bytes"
	"testing"

	"m3r/internal/wio"
)

// TestDecoderUnknownName: a name the registry does not know fails the
// decode with the error Factory gives for it.
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
	d := wio.NewDecoder(bytes.NewReader(w.Bytes()))
	if _, err := d.Decode(); err == nil || err.Error() != want.Error() {
		t.Errorf("got %v, want %v", err, want)
	}
}
