package server

import (
	"bytes"
	"runtime"
	"testing"

	"m3r/internal/wio"
)

// TestWireCountsAreBounded: a submitted job configuration and a job listing
// each start with an entry count read off the socket. A message of at most
// 12 bytes that claims 2²⁰ or 2⁴⁰ entries must be an error that allocated
// under 1 MiB, not an allocation sized by the claim (nor a makeslice panic).
func TestWireCountsAreBounded(t *testing.T) {
	for _, claim := range []uint64{1 << 20, 1 << 40} {
		var w wio.Writer
		w.WriteUvarint(claim)
		w.WriteString("k")
		w.WriteString("v")
		in := w.Bytes()
		for name, decode := range map[string]func(r *wio.Reader) error{
			"readJob":          func(r *wio.Reader) error { _, err := readJob(r); return err },
			"readJobSummaries": func(r *wio.Reader) error { _, err := readJobSummaries(r); return err },
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := decode(wio.NewReader(bytes.NewReader(in)))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Errorf("%s accepted a %d-byte message claiming %d entries", name, len(in), claim)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
				t.Errorf("%s allocated %d bytes for a %d-byte message claiming %d entries", name, got, len(in), claim)
			}
		}
	}
}
