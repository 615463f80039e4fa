package x10

import "errors"

// ErrTransport is the distinct cause wrapped by every transport delivery
// failure (a connection dropped mid-shuffle, a dead frame server address,
// a half-written frame). Jobs whose cross-place sends fail surface it, so
// callers can tell a wire-layer fault from a UDF or format error with
// errors.Is.
var ErrTransport = errors.New("x10: transport failure")

// Transport is the wire layer between places: it moves already-encoded
// frames from one place to another and reports the bytes as they exist at
// the destination. The runtime's serialization boundary (ShipPairs, the
// M3R shuffle's per-destination buffers, spill.Buffer.Ship) produces and
// consumes the frames; the transport only carries them, so every backend is
// byte-identical at the payload level by construction.
//
// All places share one OS process under either backend. Inproc (the
// default) loops frames back through memory; TCPTransport sends each frame
// over a real socket to the destination place's FrameServer, which echoes
// it back — a loopback fixture for wire-cost measurement and transport-fault
// injection (see tcp.go), not a deployment mode.
type Transport interface {
	// Ship delivers frame from place `from` to place `to`, returning the
	// frame bytes as they arrived at the destination. A backend never
	// keeps or writes either slice. Who owns what arrived is the caller's
	// rule (spill.Buffer.Unpack): inproc returns frame itself, so a receiver whose
	// decoded values point into the result has taken the sender's buffer
	// and the sender must not reuse it; tcp returns a buffer read off the
	// socket, the receiver's from the start, and the sent frame is the
	// sender's to reuse as soon as Ship returns.
	Ship(from, to int, frame []byte) ([]byte, error)
	// Name identifies the backend ("inproc", "tcp").
	Name() string
	// Close releases backend resources. Idempotent.
	Close() error
}

// inprocTransport is the loopback backend: all places live in one OS
// process and a shipped frame "arrives" as the same bytes that were sent.
// This is the seed behavior, byte for byte — the serialization round trip
// still happens (the runtime encodes before Ship and decodes after), only
// the wire in between is memory.
type inprocTransport struct{}

// Inproc returns the in-process loopback transport, the default backend.
func Inproc() Transport { return inprocTransport{} }

func (inprocTransport) Ship(from, to int, frame []byte) ([]byte, error) { return frame, nil }
func (inprocTransport) Name() string                                    { return "inproc" }
func (inprocTransport) Close() error                                    { return nil }

// RemoteTransport reports whether the runtime's cross-place frames leave
// the process (anything but the inproc backend). The engines use it to
// decide whether to maintain the NET_* job counters.
func (rt *Runtime) RemoteTransport() bool { return rt.transport.Name() != "inproc" }

// ShipFrame routes one already-encoded frame from place `from` to place
// `to` through the runtime's transport, returning the frame as delivered.
// The M3R engine's shuffle uses it directly: a map task's buffer toward a
// remote place ships itself piece by piece (spill.Buffer.Ship), the
// destination place indexes what arrived, and this is the wire in between.
func (rt *Runtime) ShipFrame(from, to int, frame []byte) ([]byte, error) {
	return rt.transport.Ship(from, to, frame)
}
