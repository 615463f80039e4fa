// Job lifecycle control: a per-job cancel source that the engines check
// cooperatively at record and task boundaries. M3R's design point is *no*
// task-level resilience (§2.2) — but a production server (§5.3) still needs
// to kill a runaway job, bound it with a deadline, and drain gracefully on
// shutdown. JobLifecycle is that control plane: engines thread one through
// a job's execution, hot paths poll Err (a single atomic load), and blocked
// waits select on Done.
package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"m3r/internal/conf"
	"m3r/internal/wio"
)

// ErrJobKilled is the terminal error of a job cancelled by an explicit
// Kill (the server's kill RPC, or Shutdown past its grace period).
var ErrJobKilled = errors.New("job killed")

// ErrDeadlineExceeded is the terminal error of a job cancelled by its
// m3r.job.deadline.ms watchdog.
var ErrDeadlineExceeded = errors.New("job deadline exceeded")

// JobLifecycle is a job-scoped cancel source. The zero value is ready to
// use after NewJobLifecycle; a nil *JobLifecycle is valid everywhere and
// means "never cancelled", so call sites need no guards.
//
// Kill is first-wins: the first cause sticks, later calls are no-ops. The
// engines fold the cause into the job's terminal error, so callers can
// errors.Is against ErrJobKilled / ErrDeadlineExceeded.
type JobLifecycle struct {
	cancelled atomic.Bool // fast-path flag, read per record

	mu    sync.Mutex
	cause error
	done  chan struct{}
	timer *time.Timer
}

// NewJobLifecycle returns a live, uncancelled lifecycle.
func NewJobLifecycle() *JobLifecycle {
	return &JobLifecycle{done: make(chan struct{})}
}

// Err returns the cancellation cause, or nil while the job may keep
// running. Nil-receiver safe; the common path is one atomic load.
func (lc *JobLifecycle) Err() error {
	if lc == nil || !lc.cancelled.Load() {
		return nil
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.cause
}

// Done returns a channel closed on cancellation. A nil receiver returns a
// nil channel, which blocks forever in a select — exactly the "never
// cancelled" behaviour call sites want.
func (lc *JobLifecycle) Done() <-chan struct{} {
	if lc == nil {
		return nil
	}
	return lc.done
}

// Kill cancels the job with the given cause (ErrJobKilled if nil). Only
// the first call takes effect.
func (lc *JobLifecycle) Kill(cause error) {
	if lc == nil {
		return
	}
	if cause == nil {
		cause = ErrJobKilled
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.cause != nil {
		return
	}
	lc.cause = cause
	lc.cancelled.Store(true)
	close(lc.done)
}

// SetDeadline arms a watchdog that Kills the job with ErrDeadlineExceeded
// after d. A second call re-arms. Non-positive d is ignored.
func (lc *JobLifecycle) SetDeadline(d time.Duration) {
	if lc == nil || d <= 0 {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.timer != nil {
		lc.timer.Stop()
	}
	lc.timer = time.AfterFunc(d, func() { lc.Kill(ErrDeadlineExceeded) })
}

// Stop disarms the deadline watchdog (if any). Engines call it once the
// job reaches a terminal state so a late timer cannot fire into a reused
// address.
func (lc *JobLifecycle) Stop() {
	if lc == nil {
		return
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	if lc.timer != nil {
		lc.timer.Stop()
		lc.timer = nil
	}
}

// ApplyDeadlineConf arms the watchdog from the job's m3r.job.deadline.ms
// key, if set. Engines call it at the top of SubmitControlled so the
// deadline covers setup, execution, and commit alike.
func (lc *JobLifecycle) ApplyDeadlineConf(job *conf.JobConf) {
	if lc == nil || job == nil {
		return
	}
	if ms := job.GetInt(conf.KeyJobDeadlineMS, 0); ms > 0 {
		lc.SetDeadline(time.Duration(ms) * time.Millisecond)
	}
}

// cancelPairIter is a reduce input stream read through the job's cancel
// check (PairMerges.Open): one atomic load per pair, returning the
// cancellation cause as the stream error so DriveReduce unwinds through its
// normal error path (merge close, committer abort).
type cancelPairIter struct {
	in PairIter
	lc *JobLifecycle
}

func (c *cancelPairIter) Next() (wio.Pair, bool, error) {
	if err := c.lc.Err(); err != nil {
		return wio.Pair{}, false, err
	}
	return c.in.Next()
}

// LifecycleSubmitter is the optional engine capability of running a job
// under an externally held lifecycle, so a server can kill it later.
// Engine.Submit is equivalent to SubmitControlled with a nil lifecycle.
type LifecycleSubmitter interface {
	SubmitControlled(job *conf.JobConf, lc *JobLifecycle) (*Report, error)
}

// SubmitUnder runs job on eng under lc when the engine supports lifecycle
// control; an engine without SubmitControlled runs uncontrolled (a kill or
// shutdown then cannot interrupt it, only outlast it).
func SubmitUnder(eng Engine, job *conf.JobConf, lc *JobLifecycle) (*Report, error) {
	if ls, ok := eng.(LifecycleSubmitter); ok {
		return ls.SubmitControlled(job, lc)
	}
	return eng.Submit(job)
}
