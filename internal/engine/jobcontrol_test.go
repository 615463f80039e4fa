package engine

import (
	"errors"
	"testing"
	"time"

	"m3r/internal/conf"
)

func TestJobLifecycleNilReceiver(t *testing.T) {
	var lc *JobLifecycle
	if err := lc.Err(); err != nil {
		t.Fatalf("nil lifecycle Err = %v", err)
	}
	if ch := lc.Done(); ch != nil {
		t.Fatal("nil lifecycle Done should be a nil channel")
	}
	// None of these may panic.
	lc.Kill(ErrJobKilled)
	lc.SetDeadline(time.Millisecond)
	lc.Stop()
	lc.ApplyDeadlineConf(conf.NewJob())
}

func TestJobLifecycleKillFirstWins(t *testing.T) {
	lc := NewJobLifecycle()
	if err := lc.Err(); err != nil {
		t.Fatalf("fresh lifecycle Err = %v", err)
	}
	select {
	case <-lc.Done():
		t.Fatal("fresh lifecycle already done")
	default:
	}
	lc.Kill(nil) // nil cause defaults to ErrJobKilled
	lc.Kill(ErrDeadlineExceeded)
	if !errors.Is(lc.Err(), ErrJobKilled) {
		t.Fatalf("Err = %v, want ErrJobKilled (first cause wins)", lc.Err())
	}
	select {
	case <-lc.Done():
	default:
		t.Fatal("Done not closed after Kill")
	}
}

func TestJobLifecycleDeadline(t *testing.T) {
	lc := NewJobLifecycle()
	lc.SetDeadline(5 * time.Millisecond)
	select {
	case <-lc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("deadline watchdog never fired")
	}
	if !errors.Is(lc.Err(), ErrDeadlineExceeded) {
		t.Fatalf("Err = %v, want ErrDeadlineExceeded", lc.Err())
	}
}

func TestJobLifecycleStopDisarmsWatchdog(t *testing.T) {
	lc := NewJobLifecycle()
	lc.SetDeadline(20 * time.Millisecond)
	lc.Stop()
	time.Sleep(60 * time.Millisecond)
	if err := lc.Err(); err != nil {
		t.Fatalf("stopped watchdog still fired: %v", err)
	}
}

func TestApplyDeadlineConf(t *testing.T) {
	lc := NewJobLifecycle()
	job := conf.NewJob()
	lc.ApplyDeadlineConf(job) // no key: no watchdog
	time.Sleep(10 * time.Millisecond)
	if err := lc.Err(); err != nil {
		t.Fatalf("no-deadline job cancelled: %v", err)
	}
	job.SetInt(conf.KeyJobDeadlineMS, 5)
	lc.ApplyDeadlineConf(job)
	select {
	case <-lc.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("conf-armed watchdog never fired")
	}
	if !errors.Is(lc.Err(), ErrDeadlineExceeded) {
		t.Fatalf("Err = %v, want ErrDeadlineExceeded", lc.Err())
	}
}
