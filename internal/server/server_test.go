package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
)

// stubEngine runs no real work: Submit returns immediately (or an error),
// which lets the retention test push hundreds of jobs through a server
// without a cluster.
type stubEngine struct {
	mu   sync.Mutex
	n    int
	fail func(n int) bool
}

func (e *stubEngine) Name() string       { return "stub" }
func (e *stubEngine) FileSystem() string { return "stub-fs" }
func (e *stubEngine) Close() error       { return nil }

func (e *stubEngine) Submit(job *conf.JobConf) (*engine.Report, error) {
	e.mu.Lock()
	e.n++
	n := e.n
	e.mu.Unlock()
	if e.fail != nil && e.fail(n) {
		return nil, fmt.Errorf("stub: job %d failed", n)
	}
	return &engine.Report{
		JobID:    fmt.Sprintf("stub_%04d", n),
		JobName:  job.JobName(),
		Engine:   "stub",
		Queue:    job.GetDefault(conf.KeyJobQueueName, "default"),
		Counters: counters.New(),
	}, nil
}

// trackedJobs returns how many job states the server currently retains.
func trackedJobs(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// TestServerBoundsCompletedJobRetention runs a long async job sequence —
// the long-lived server-mode daemon in miniature — and checks terminal
// states are evicted beyond the bound instead of accumulating forever,
// oldest first, with evicted ids polling as unknown and retained ones still
// serving their reports.
func TestServerBoundsCompletedJobRetention(t *testing.T) {
	const retain, jobs = 8, 100
	srv, err := ServeWithOptions(&stubEngine{fail: func(n int) bool { return n%5 == 0 }}, "127.0.0.1:0", Options{RetainCompleted: retain})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	ids := make([]string, 0, jobs)
	for i := 0; i < jobs; i++ {
		job := conf.NewJob()
		job.SetJobName(fmt.Sprintf("seq-%03d", i))
		id, err := client.SubmitAsync(job)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, id)
		// Wait for terminal state so the sequence is deterministic: at most
		// one job is ever running, so retention alone decides the map size.
		if _, err := client.WaitFor(id, time.Millisecond); err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
	}

	if got := trackedJobs(srv); got != retain {
		t.Fatalf("server retains %d job states after %d jobs, want %d", got, jobs, retain)
	}
	// The oldest jobs are gone; polling them reports unknown, like any
	// id the server never saw.
	st, err := client.Poll(ids[0])
	if err != nil || st.State != StateUnknown {
		t.Fatalf("evicted job poll: %+v err=%v", st, err)
	}
	// The newest jobs are still served, reports (or failure causes) intact.
	last, err := client.Poll(ids[len(ids)-1])
	if err != nil {
		t.Fatal(err)
	}
	switch last.State {
	case StateSucceeded:
		if last.Report == nil {
			t.Fatal("retained succeeded job lost its report")
		}
	case StateFailed:
		if last.Err == "" {
			t.Fatal("retained failed job lost its error")
		}
	default:
		t.Fatalf("last job state %q", last.State)
	}
	// The admin list view shrinks with the retention window too.
	listed, err := client.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != retain {
		t.Fatalf("ListJobs returned %d rows, want %d", len(listed), retain)
	}
}

// TestServerRetentionNeverEvictsRunning: a slow job older than the whole
// retention window must survive eviction while it runs.
func TestServerRetentionNeverEvictsRunning(t *testing.T) {
	release := make(chan struct{})
	eng := &blockingEngine{release: release, entered: make(chan struct{})}
	srv, err := ServeWithOptions(eng, "127.0.0.1:0", Options{RetainCompleted: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	slow, err := client.SubmitAsync(conf.NewJob()) // blocks in Submit
	if err != nil {
		t.Fatal(err)
	}
	// SubmitAsync only starts the job's goroutine: wait until it is the one
	// blocked in Submit, or a churn job could take the blocking slot and
	// its WaitFor below would never return.
	<-eng.entered
	for i := 0; i < 10; i++ { // churn far past the retention bound
		id, err := client.SubmitAsync(conf.NewJob())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.WaitFor(id, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	st, err := client.Poll(slow)
	if err != nil || st.State != StateRunning {
		t.Fatalf("old running job: %+v err=%v", st, err)
	}
	close(release)
	st, err = client.WaitFor(slow, time.Millisecond)
	if err != nil || st.State != StateSucceeded {
		t.Fatalf("released job: %+v err=%v", st, err)
	}
}

// blockingEngine blocks the first Submit until released, closing entered
// once it is inside; later submits return immediately.
type blockingEngine struct {
	release <-chan struct{}
	entered chan struct{}
	once    sync.Once
}

func (e *blockingEngine) Name() string       { return "stub" }
func (e *blockingEngine) FileSystem() string { return "stub-fs" }
func (e *blockingEngine) Close() error       { return nil }

func (e *blockingEngine) Submit(job *conf.JobConf) (*engine.Report, error) {
	blocked := false
	e.once.Do(func() { blocked = true; close(e.entered) })
	if blocked {
		<-e.release
	}
	return &engine.Report{JobID: "stub", Engine: "stub", Counters: counters.New()}, nil
}
