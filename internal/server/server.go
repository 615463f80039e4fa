// Package server implements M3R's "server mode" (§5.3): an engine wrapped
// behind a jobtracker-like wire protocol on localhost TCP. Clients submit
// serialized job configurations; the server resolves component names
// through the shared registry (Hadoop's class loading) and runs the jobs
// on whatever engine it wraps — so "it is possible to simply replace the
// Hadoop server daemon with the M3R one" holds here too: the same client
// works against a server wrapping either engine.
//
// The wire protocol is one request per connection, wio-framed:
//
//	request:  op byte, then op-specific payload
//	response: status byte (0 ok / 1 error), then payload or error string
//
// Ops: submit-sync (run job, return report), submit-async (return job id),
// poll (job id → state [+ report]), fs-id (the engine's dfs instance id),
// kill (job id → state; cancels a running async job).
package server

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/wio"
)

// Protocol ops.
const (
	opSubmitSync  = 1
	opSubmitAsync = 2
	opPoll        = 3
	opFSID        = 4
	opListJobs    = 5
	opKill        = 6
)

// Job states reported by poll.
const (
	StateUnknown   = "unknown"
	StateRunning   = "running"
	StateSucceeded = "succeeded"
	StateFailed    = "failed"
	StateKilled    = "killed"
)

// DefaultCompletedJobRetention bounds how many terminal (succeeded or
// failed) job states a server keeps for poll/list. A long-lived server-mode
// daemon runs an unbounded sequence of jobs; retaining every jobState — and
// through it every job's full counter set — forever is a leak, so once the
// bound is exceeded the oldest terminal states are evicted and poll answers
// StateUnknown for them, exactly as it does for an id it never saw. Running
// jobs are never evicted.
const DefaultCompletedJobRetention = 256

// DefaultIOTimeout bounds each connection's request read and response
// write, so a stalled or half-dead client cannot pin a handler goroutine
// forever. Job execution time is never under this deadline — only the wire
// I/O on either side of it.
const DefaultIOTimeout = 30 * time.Second

// Accept-loop backoff bounds: transient accept errors (EMFILE,
// ECONNABORTED, ...) are retried with exponential backoff instead of
// silently killing the daemon's accept loop.
const (
	acceptBackoffBase = 5 * time.Millisecond
	acceptBackoffCap  = time.Second
)

// Options configures a server beyond its engine and address.
type Options struct {
	// RetainCompleted bounds retained terminal job states; non-positive
	// falls back to DefaultCompletedJobRetention.
	RetainCompleted int
	// IOTimeout bounds per-connection request reads and response writes;
	// zero falls back to DefaultIOTimeout, negative disables deadlines.
	IOTimeout time.Duration
}

// Server wraps an engine behind the TCP protocol.
type Server struct {
	eng       engine.Engine
	ln        net.Listener
	retain    int
	ioTimeout time.Duration

	mu      sync.Mutex
	seq     int
	jobs    map[string]*jobState
	done    []string // terminal job ids, oldest first, for bounded eviction
	syncLCs map[*engine.JobLifecycle]struct{}
	wg      sync.WaitGroup
}

type jobState struct {
	id     string
	seq    int // submission order, for the list-jobs view
	queue  string
	state  string
	report *engine.Report
	errMsg string
	lc     *engine.JobLifecycle // non-nil while running, for kill/shutdown
}

// Serve starts a server for eng on addr (e.g. "127.0.0.1:0") with the
// default completed-job retention.
func Serve(eng engine.Engine, addr string) (*Server, error) {
	return ServeWithOptions(eng, addr, Options{})
}

// ServeWithOptions starts a server with explicit options.
func ServeWithOptions(eng engine.Engine, addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serveListener(eng, ln, opts), nil
}

// serveListener wraps an already-listening socket — the seam that lets
// tests inject accept faults.
func serveListener(eng engine.Engine, ln net.Listener, opts Options) *Server {
	if opts.RetainCompleted <= 0 {
		opts.RetainCompleted = DefaultCompletedJobRetention
	}
	switch {
	case opts.IOTimeout == 0:
		opts.IOTimeout = DefaultIOTimeout
	case opts.IOTimeout < 0:
		opts.IOTimeout = 0
	}
	s := &Server{
		eng:       eng,
		ln:        ln,
		retain:    opts.RetainCompleted,
		ioTimeout: opts.IOTimeout,
		jobs:      make(map[string]*jobState),
		syncLCs:   make(map[*engine.JobLifecycle]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting connections and waits for in-flight work (running
// jobs finish server-side).
func (s *Server) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Shutdown drains the server gracefully: it stops accepting connections,
// gives in-flight jobs and handlers up to grace to finish on their own,
// then kills every still-running job's lifecycle and waits for the drain to
// complete. With grace <= 0 running jobs are killed immediately.
func (s *Server) Shutdown(grace time.Duration) error {
	err := s.ln.Close()
	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	if grace > 0 {
		select {
		case <-finished:
			return err
		case <-time.After(grace):
		}
	}
	// Grace expired: cancel everything still running — async jobs tracked
	// by id and sync submissions tracked by lifecycle — then finish the
	// drain. Killed jobs tear down through the engines' cancellation paths,
	// so the wait below is bounded by task unwind, not job runtime.
	s.mu.Lock()
	for _, st := range s.jobs {
		st.lc.Kill(engine.ErrJobKilled)
	}
	for lc := range s.syncLCs {
		lc.Kill(engine.ErrJobKilled)
	}
	s.mu.Unlock()
	<-finished
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffBase
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return // listener closed: the only clean exit
			}
			// Transient accept failure: back off (capped) and keep
			// serving rather than silently retiring the daemon.
			time.Sleep(backoff)
			if backoff *= 2; backoff > acceptBackoffCap {
				backoff = acceptBackoffCap
			}
			continue
		}
		backoff = acceptBackoffBase
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

// armWrite lifts the request read deadline and bounds the response write.
// Called once per connection, after the request is decoded (and, for sync
// submission, after the job has run — execution time is never under the
// wire deadline).
func (s *Server) armWrite(conn net.Conn) {
	if s.ioTimeout > 0 {
		conn.SetReadDeadline(time.Time{})
		conn.SetWriteDeadline(time.Now().Add(s.ioTimeout))
	}
}

func (s *Server) handle(conn net.Conn) {
	if s.ioTimeout > 0 {
		// Bound the request read; armWrite lifts this once the request is
		// decoded and bounds the response write instead.
		conn.SetReadDeadline(time.Now().Add(s.ioTimeout))
	}
	r := wio.NewReader(conn)
	w := wio.NewWriter(conn)
	op, err := r.ReadByte()
	if err != nil {
		return
	}
	switch op {
	case opSubmitSync:
		job, err := readJob(r)
		if err != nil {
			s.armWrite(conn)
			writeErr(w, err)
			return
		}
		rep, err := s.runSync(job)
		s.armWrite(conn)
		if err != nil {
			writeErr(w, err)
			return
		}
		w.WriteByte(0)
		writeReport(w, rep)
	case opSubmitAsync:
		job, err := readJob(r)
		if err != nil {
			s.armWrite(conn)
			writeErr(w, err)
			return
		}
		id := s.startAsync(job)
		s.armWrite(conn)
		w.WriteByte(0)
		w.WriteString(id)
	case opPoll:
		id, err := r.ReadString()
		if err != nil {
			s.armWrite(conn)
			writeErr(w, err)
			return
		}
		s.mu.Lock()
		st := s.jobs[id]
		var state, errMsg string
		var report *engine.Report
		if st != nil {
			state, errMsg, report = st.state, st.errMsg, st.report
		}
		s.mu.Unlock()
		s.armWrite(conn)
		w.WriteByte(0)
		if st == nil {
			w.WriteString(StateUnknown)
			return
		}
		w.WriteString(state)
		switch state {
		case StateFailed, StateKilled:
			w.WriteString(errMsg)
		case StateSucceeded:
			writeReport(w, report)
		}
	case opKill:
		id, err := r.ReadString()
		if err != nil {
			s.armWrite(conn)
			writeErr(w, err)
			return
		}
		// Kill is asynchronous: flip the job's cancel source and answer with
		// the state as of this RPC. The submission goroutine records the
		// terminal StateKilled once the engine unwinds; clients poll for it.
		s.mu.Lock()
		st := s.jobs[id]
		state := StateUnknown
		if st != nil {
			state = st.state
			st.lc.Kill(engine.ErrJobKilled) // nil-safe no-op once terminal
		}
		s.mu.Unlock()
		s.armWrite(conn)
		w.WriteByte(0)
		w.WriteString(state)
	case opFSID:
		s.armWrite(conn)
		w.WriteByte(0)
		w.WriteString(s.eng.FileSystem())
	case opListJobs:
		// The job-queue administrative view (§5.3): every tracked job with
		// its queue and state, in submission order. Only retained states
		// are walked — a daemon that has run a million jobs answers in
		// O(retention + running), not O(all jobs ever submitted).
		type row struct {
			seq              int
			id, queue, state string
		}
		s.mu.Lock()
		jobs := make([]row, 0, len(s.jobs))
		for _, st := range s.jobs {
			jobs = append(jobs, row{st.seq, st.id, st.queue, st.state})
		}
		s.mu.Unlock()
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].seq < jobs[j].seq })
		s.armWrite(conn)
		w.WriteByte(0)
		w.WriteUvarint(uint64(len(jobs)))
		for _, st := range jobs {
			w.WriteString(st.id)
			w.WriteString(st.queue)
			w.WriteString(st.state)
		}
	default:
		s.armWrite(conn)
		writeErr(w, fmt.Errorf("server: unknown op %d", op))
	}
}

// runSync runs a synchronous submission under a tracked lifecycle so
// Shutdown can cancel it; sync jobs have no public id, so the kill RPC
// cannot target them.
func (s *Server) runSync(job *conf.JobConf) (*engine.Report, error) {
	lc := engine.NewJobLifecycle()
	defer lc.Stop()
	s.mu.Lock()
	s.syncLCs[lc] = struct{}{}
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		delete(s.syncLCs, lc)
		s.mu.Unlock()
	}()
	return engine.SubmitUnder(s.eng, job, lc)
}

func (s *Server) startAsync(job *conf.JobConf) string {
	lc := engine.NewJobLifecycle()
	s.mu.Lock()
	s.seq++
	id := fmt.Sprintf("remote_job_%04d", s.seq)
	st := &jobState{
		id:    id,
		seq:   s.seq,
		queue: job.GetDefault(conf.KeyJobQueueName, "default"),
		state: StateRunning,
		lc:    lc,
	}
	s.jobs[id] = st
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer lc.Stop()
		rep, err := engine.SubmitUnder(s.eng, job, lc)
		s.mu.Lock()
		defer s.mu.Unlock()
		switch {
		case err == nil:
			st.state = StateSucceeded
			st.report = rep
		case errors.Is(err, engine.ErrJobKilled):
			// Deliberate cancellation is its own terminal state; a deadline
			// expiry (ErrDeadlineExceeded) stays an ordinary failure.
			st.state = StateKilled
			st.errMsg = err.Error()
		default:
			st.state = StateFailed
			st.errMsg = err.Error()
		}
		st.lc = nil
		s.retire(st)
	}()
	return id
}

// retire records a job's transition to a terminal state and evicts the
// oldest terminal states beyond the retention bound, so a long-lived server
// holds a bounded number of finished jobs no matter how many it has run.
// Callers hold s.mu.
func (s *Server) retire(st *jobState) {
	s.done = append(s.done, st.id)
	for len(s.done) > s.retain {
		delete(s.jobs, s.done[0])
		s.done = s.done[1:]
	}
}

func readJob(r *wio.Reader) (*conf.JobConf, error) {
	c := conf.New()
	if err := c.ReadFields(r); err != nil {
		return nil, fmt.Errorf("server: reading job configuration: %w", err)
	}
	return conf.WrapJob(c), nil
}

func writeErr(w *wio.Writer, err error) {
	w.WriteByte(1)
	w.WriteString(err.Error())
}

func writeReport(w *wio.Writer, rep *engine.Report) {
	w.WriteString(rep.JobID)
	w.WriteString(rep.JobName)
	w.WriteString(rep.Engine)
	w.WriteString(rep.Queue)
	w.WriteInt64(int64(rep.Wall))
	rep.Counters.WriteTo(w)
}

func readReport(r *wio.Reader) (*engine.Report, error) {
	rep := &engine.Report{Counters: counters.New()}
	var err error
	if rep.JobID, err = r.ReadString(); err != nil {
		return nil, err
	}
	if rep.JobName, err = r.ReadString(); err != nil {
		return nil, err
	}
	if rep.Engine, err = r.ReadString(); err != nil {
		return nil, err
	}
	if rep.Queue, err = r.ReadString(); err != nil {
		return nil, err
	}
	wall, err := r.ReadInt64()
	if err != nil {
		return nil, err
	}
	rep.Wall = durationOf(wall)
	if err := rep.Counters.ReadFields(r); err != nil {
		return nil, err
	}
	return rep, nil
}
