package server

import (
	"fmt"
	"net"
	"time"

	"m3r/internal/conf"
	"m3r/internal/engine"
	"m3r/internal/wio"
)

func durationOf(ns int64) time.Duration { return time.Duration(ns) }

// dialTimeout bounds connection establishment so a client against a dead
// address fails promptly instead of hanging in the kernel's connect queue.
const dialTimeout = 10 * time.Second

// Client submits jobs to a server. It implements engine.Engine, so a
// client program is oblivious to whether its JobClient talks to an
// in-process engine (integrated mode) or a server (server mode) — the
// paper's two deployment modes (§5.3).
type Client struct {
	addr string
	fsID string
}

// Dial connects a client to the server at addr.
func Dial(addr string) (*Client, error) {
	c := &Client{addr: addr}
	// Resolve the server engine's filesystem id eagerly, both as a
	// connectivity check and because formats resolve it from job confs.
	fsID, err := c.fetchFSID()
	if err != nil {
		return nil, err
	}
	c.fsID = fsID
	return c, nil
}

// Name implements engine.Engine.
func (c *Client) Name() string { return "remote" }

// FileSystem implements engine.Engine.
func (c *Client) FileSystem() string { return c.fsID }

// Close implements engine.Engine.
func (c *Client) Close() error { return nil }

func (c *Client) call(op byte, writeReq func(w *wio.Writer) error) (*wio.Reader, net.Conn, error) {
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, nil, err
	}
	w := wio.NewWriter(conn)
	if err := w.WriteByte(op); err != nil {
		conn.Close()
		return nil, nil, err
	}
	if writeReq != nil {
		if err := writeReq(w); err != nil {
			conn.Close()
			return nil, nil, err
		}
	}
	r := wio.NewReader(conn)
	status, err := r.ReadByte()
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if status != 0 {
		msg, _ := r.ReadString()
		conn.Close()
		return nil, nil, fmt.Errorf("server: %s", msg)
	}
	return r, conn, nil
}

func (c *Client) fetchFSID() (string, error) {
	r, conn, err := c.call(opFSID, nil)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	return r.ReadString()
}

// Submit implements engine.Engine: a synchronous remote submission.
func (c *Client) Submit(job *conf.JobConf) (*engine.Report, error) {
	r, conn, err := c.call(opSubmitSync, job.WriteTo)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return readReport(r)
}

// SubmitAsync submits without waiting; poll with Poll.
func (c *Client) SubmitAsync(job *conf.JobConf) (string, error) {
	r, conn, err := c.call(opSubmitAsync, job.WriteTo)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	return r.ReadString()
}

// JobStatus is one poll result.
type JobStatus struct {
	State  string
	Report *engine.Report
	Err    string
}

// Poll queries an async job's state.
func (c *Client) Poll(jobID string) (*JobStatus, error) {
	r, conn, err := c.call(opPoll, func(w *wio.Writer) error {
		return w.WriteString(jobID)
	})
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	st := &JobStatus{}
	if st.State, err = r.ReadString(); err != nil {
		return nil, err
	}
	switch st.State {
	case StateFailed, StateKilled:
		if st.Err, err = r.ReadString(); err != nil {
			return nil, err
		}
	case StateSucceeded:
		if st.Report, err = readReport(r); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// Kill asks the server to cancel a running async job, returning the job's
// state as of the RPC. Killing is asynchronous — the job reaches
// StateKilled once the engine unwinds; poll (or WaitFor) for it.
func (c *Client) Kill(jobID string) (string, error) {
	r, conn, err := c.call(opKill, func(w *wio.Writer) error {
		return w.WriteString(jobID)
	})
	if err != nil {
		return "", err
	}
	defer conn.Close()
	return r.ReadString()
}

// JobSummary is one row of the server's job-queue listing.
type JobSummary struct {
	ID    string
	Queue string
	State string
}

// ListJobs returns every async job the server tracks, in submission
// order, with its queue — the job-queue administrative interface (§5.3).
func (c *Client) ListJobs() ([]JobSummary, error) {
	r, conn, err := c.call(opListJobs, nil)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return readJobSummaries(r)
}

// readJobSummaries decodes a job listing. Its count comes off the wire, so
// nothing is allocated on its word: the slice grows as rows arrive.
func readJobSummaries(r *wio.Reader) ([]JobSummary, error) {
	n, err := r.ReadUvarint()
	if err != nil {
		return nil, err
	}
	var out []JobSummary
	for i := uint64(0); i < n; i++ {
		var js JobSummary
		if js.ID, err = r.ReadString(); err != nil {
			return nil, err
		}
		if js.Queue, err = r.ReadString(); err != nil {
			return nil, err
		}
		if js.State, err = r.ReadString(); err != nil {
			return nil, err
		}
		out = append(out, js)
	}
	return out, nil
}

// WaitFor polls until the job leaves the running state.
func (c *Client) WaitFor(jobID string, interval time.Duration) (*JobStatus, error) {
	for {
		st, err := c.Poll(jobID)
		if err != nil {
			return nil, err
		}
		if st.State != StateRunning {
			return st, nil
		}
		time.Sleep(interval)
	}
}
