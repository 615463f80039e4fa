// TCP place transport: the x10 wire layer over real sockets, as an
// in-process loopback fixture.
//
// The frame protocol is deliberately tiny — length-prefixed frames over a
// persistent connection, wio-framed like internal/server's jobtracker
// protocol:
//
//	request:  op byte (frameOpShip), uvarint from, uvarint to, bytes frame
//	response: status byte (0 ok / 1 error), bytes frame | string error
//
// A TCPTransport keeps one connection per (from, to) place pair and reuses
// it across ships; a broken connection is redialed once per ship
// (NET_REDIALS) before the failure surfaces as ErrTransport. Dial and I/O
// timeouts follow internal/server's conventions (10s dial, 30s per
// exchange).
//
// The other end is FrameServer: it stands for one place, validates that
// every frame is addressed to it, and echoes the frame back. No state lives
// behind a frame server — places, cache, pool and tasks stay in the one
// process that runs the engine — so this backend exists for two things:
// measuring what framing and a socket cost per record, and injecting
// transport faults (FailAfterFrames, a dead address, a misrouted frame).
// The echo is what lets a test or benchmark decode bytes that really passed
// through the framing code and a socket, which is why it stays.
package x10

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"m3r/internal/sim"
	"m3r/internal/wio"
)

const frameOpShip = 1

// Transport-level timeout defaults, shared conventions with
// internal/server (dialTimeout / DefaultIOTimeout there).
const (
	DefaultDialTimeout = 10 * time.Second
	DefaultIOTimeout   = 30 * time.Second
)

// TCPOptions configures a TCPTransport.
type TCPOptions struct {
	// DialTimeout bounds connection establishment per dial; zero
	// falls back to DefaultDialTimeout.
	DialTimeout time.Duration
	// IOTimeout bounds each ship exchange (request write + response read);
	// zero falls back to DefaultIOTimeout, negative disables deadlines.
	IOTimeout time.Duration
	// Stats receives the NET_* counters; when nil, the runtime the
	// transport is installed into binds its own sink at NewRuntime.
	Stats *sim.Stats
}

// TCPTransport ships frames to per-place frame servers over TCP.
type TCPTransport struct {
	addrs []string // frame server address per place id
	dial  time.Duration
	io    time.Duration
	stats *sim.Stats

	mu     sync.Mutex
	pairs  map[[2]int]*pairConn
	closed bool
}

// pairConn is the reusable connection for one (from, to) place pair. Its
// mutex serializes ships on the pair, so concurrent senders to the same
// destination each get their own stream ordering.
type pairConn struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	w    *wio.Writer
	r    *wio.Reader
}

// NewTCPTransport returns a transport shipping to the given frame server
// addresses, index-aligned with place ids.
func NewTCPTransport(addrs []string, opts TCPOptions) *TCPTransport {
	dial := opts.DialTimeout
	if dial <= 0 {
		dial = DefaultDialTimeout
	}
	ioT := opts.IOTimeout
	switch {
	case ioT == 0:
		ioT = DefaultIOTimeout
	case ioT < 0:
		ioT = 0
	}
	return &TCPTransport{
		addrs: append([]string(nil), addrs...),
		dial:  dial,
		io:    ioT,
		stats: opts.Stats,
		pairs: make(map[[2]int]*pairConn),
	}
}

// Name implements Transport.
func (t *TCPTransport) Name() string { return "tcp" }

// pair returns (creating if needed) the connection slot for (from, to).
func (t *TCPTransport) pair(from, to int) (*pairConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("x10: %w: transport is closed", ErrTransport)
	}
	k := [2]int{from, to}
	pc, ok := t.pairs[k]
	if !ok {
		pc = &pairConn{}
		t.pairs[k] = pc
	}
	return pc, nil
}

// Ship implements Transport: deliver frame to place to's frame server and
// return the bytes as they arrived there. The connection for the pair is reused;
// on an I/O failure the ship redials once (NET_REDIALS) before giving up
// with ErrTransport.
func (t *TCPTransport) Ship(from, to int, frame []byte) ([]byte, error) {
	if to < 0 || to >= len(t.addrs) {
		return nil, fmt.Errorf("x10: %w: no worker for place %d", ErrTransport, to)
	}
	pc, err := t.pair(from, to)
	if err != nil {
		return nil, err
	}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	redialed := false
	for {
		if pc.conn == nil {
			conn, err := net.DialTimeout("tcp", t.addrs[to], t.dial)
			if err != nil {
				return nil, fmt.Errorf("x10: %w: dialing worker for place %d at %s: %v",
					ErrTransport, to, t.addrs[to], err)
			}
			pc.conn = conn
			pc.bw = bufio.NewWriter(conn)
			pc.w = wio.NewWriter(pc.bw)
			pc.r = wio.NewReader(bufio.NewReader(conn))
		}
		payload, remote, err := t.exchange(pc, from, to, frame)
		if err == nil {
			t.stats.Add(sim.NetFrames, 1)
			t.stats.Add(sim.NetBytes, int64(len(frame)))
			return payload, nil
		}
		pc.reset()
		if remote {
			// The server answered with a protocol error (wrong place,
			// rejected frame): redialing cannot help.
			return nil, fmt.Errorf("x10: %w: worker for place %d: %v", ErrTransport, to, err)
		}
		if redialed {
			return nil, fmt.Errorf("x10: %w: shipping %d->%d via %s: %v",
				ErrTransport, from, to, t.addrs[to], err)
		}
		redialed = true
		t.stats.Add(sim.NetRedials, 1)
	}
}

// exchange performs one ship request/response on the pair's connection.
// remote=true marks a server-reported protocol error (not retriable).
func (t *TCPTransport) exchange(pc *pairConn, from, to int, frame []byte) (payload []byte, remote bool, err error) {
	if t.io > 0 {
		pc.conn.SetDeadline(time.Now().Add(t.io))
	}
	if err := pc.w.WriteByte(frameOpShip); err != nil {
		return nil, false, err
	}
	if err := pc.w.WriteUvarint(uint64(from)); err != nil {
		return nil, false, err
	}
	if err := pc.w.WriteUvarint(uint64(to)); err != nil {
		return nil, false, err
	}
	if err := pc.w.WriteBytes(frame); err != nil {
		return nil, false, err
	}
	if err := pc.bw.Flush(); err != nil {
		return nil, false, err
	}
	status, err := pc.r.ReadByte()
	if err != nil {
		return nil, false, err
	}
	if status != 0 {
		msg, merr := pc.r.ReadString()
		if merr != nil {
			return nil, false, merr
		}
		return nil, true, errors.New(msg)
	}
	payload, err = pc.r.ReadBytes()
	if err != nil {
		return nil, false, err
	}
	return payload, false, nil
}

// reset drops the pair's broken connection so the next ship redials.
func (pc *pairConn) reset() {
	if pc.conn != nil {
		pc.conn.Close()
		pc.conn, pc.bw, pc.w, pc.r = nil, nil, nil, nil
	}
}

// Close implements Transport: drop every pooled connection. Idempotent.
func (t *TCPTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for _, pc := range t.pairs {
		pc.mu.Lock()
		pc.reset()
		pc.mu.Unlock()
	}
	t.pairs = nil
	return nil
}

// FrameServerOptions configures a frame server.
type FrameServerOptions struct {
	// IOTimeout bounds each response write (reads block indefinitely: an
	// idle persistent connection is legitimate). Zero falls back to
	// DefaultIOTimeout, negative disables deadlines.
	IOTimeout time.Duration
	// FailAfterFrames, when positive, shuts the whole server down —
	// listener and live connections — after serving that many frames. This
	// is the fault-injection hook: a place that dies mid-shuffle, for the
	// connection-drop tests.
	FailAfterFrames int64
}

// FrameServer is the far end of the TCP transport: it serves ship requests
// for exactly one place, echoing each frame back to the sender after it has
// crossed the socket.
type FrameServer struct {
	ln    net.Listener
	place int
	io    time.Duration
	fail  int64

	served atomic.Int64
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ServeFrames starts a frame server for one place on addr (e.g.
// "127.0.0.1:0").
func ServeFrames(addr string, place int, opts FrameServerOptions) (*FrameServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	ioT := opts.IOTimeout
	switch {
	case ioT == 0:
		ioT = DefaultIOTimeout
	case ioT < 0:
		ioT = 0
	}
	s := &FrameServer{
		ln:    ln,
		place: place,
		io:    ioT,
		fail:  opts.FailAfterFrames,
		conns: make(map[net.Conn]struct{}),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *FrameServer) Addr() string { return s.ln.Addr().String() }

// Served reports how many frames this server has echoed.
func (s *FrameServer) Served() int64 { return s.served.Load() }

func (s *FrameServer) acceptLoop() {
	backoff := 5 * time.Millisecond
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			time.Sleep(backoff)
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = 5 * time.Millisecond
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// handle serves ship requests on one persistent connection until it closes.
func (s *FrameServer) handle(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	r := wio.NewReader(br)
	w := wio.NewWriter(bw)
	for {
		op, err := r.ReadByte()
		if err != nil {
			return
		}
		if op != frameOpShip {
			s.reply(conn, w, bw, fmt.Sprintf("x10: unknown frame op %d", op), nil)
			return
		}
		if _, err := r.ReadUvarint(); err != nil { // from
			return
		}
		to, err := r.ReadUvarint()
		if err != nil {
			return
		}
		frame, err := r.ReadBytes()
		if err != nil {
			return
		}
		if int(to) != s.place {
			s.reply(conn, w, bw, fmt.Sprintf("x10: frame for place %d reached worker for place %d", to, s.place), nil)
			continue
		}
		// Counted before the reply leaves, so a caller that has its answer
		// already sees the frame in Served.
		n := s.served.Add(1)
		if err := s.reply(conn, w, bw, "", frame); err != nil {
			return
		}
		if s.fail > 0 && n >= s.fail {
			// Fault injection: the place "dies" — every connection drops
			// and the listener closes, so redials fail too.
			s.Close()
			return
		}
	}
}

// reply writes one response frame (errMsg == "" means success).
func (s *FrameServer) reply(conn net.Conn, w *wio.Writer, bw *bufio.Writer, errMsg string, frame []byte) error {
	if s.io > 0 {
		conn.SetWriteDeadline(time.Now().Add(s.io))
	}
	if errMsg != "" {
		if err := w.WriteByte(1); err != nil {
			return err
		}
		if err := w.WriteString(errMsg); err != nil {
			return err
		}
		return bw.Flush()
	}
	if err := w.WriteByte(0); err != nil {
		return err
	}
	if err := w.WriteBytes(frame); err != nil {
		return err
	}
	return bw.Flush()
}

// Close shuts the server down: the listener stops accepting and every live
// connection drops. Idempotent.
func (s *FrameServer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	return err
}
