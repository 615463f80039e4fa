package integration_test

import (
	"strings"
	"testing"
	"time"

	"m3r/internal/lab"
	"m3r/internal/server"
	"m3r/internal/wordcount"
)

// TestServerModeWordCount runs a job through the TCP jobtracker protocol
// against an M3R server — §5.3's server mode: the client code is the same
// as for a local engine.
func TestServerModeWordCount(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/text", 32<<10, 3); err != nil {
		t.Fatalf("generate: %v", err)
	}
	srv, err := server.Serve(c.M3R, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()

	client, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	if client.FileSystem() != c.M3R.FileSystem() {
		t.Errorf("client fs id %q, want %q", client.FileSystem(), c.M3R.FileSystem())
	}

	rep, err := client.Submit(wordcount.NewJob("/data/text", "/out/remote", 2, true))
	if err != nil {
		t.Fatalf("remote submit: %v", err)
	}
	if rep.Engine != "m3r" || rep.JobName != "wordcount" {
		t.Errorf("report: %+v", rep)
	}
	want, err := wordcount.CountReference(c.FS, "/data/text")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, readTextOutput(t, c.FS, "/out/remote"), want)
}

// TestServerModeAsync exercises the submit/poll protocol, including a
// failing job.
func TestServerModeAsync(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/text", 8<<10, 9); err != nil {
		t.Fatalf("generate: %v", err)
	}
	srv, err := server.Serve(c.M3R, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	client, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}

	id, err := client.SubmitAsync(wordcount.NewJob("/data/text", "/out/a", 2, false))
	if err != nil {
		t.Fatalf("async submit: %v", err)
	}
	st, err := client.WaitFor(id, time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateSucceeded || st.Report == nil {
		t.Fatalf("state: %+v", st)
	}

	// A job with a bad mapper class must fail remotely with the cause.
	bad := wordcount.NewJob("/data/text", "/out/b", 2, false)
	bad.SetMapperClass("does.not.Exist")
	id, err = client.SubmitAsync(bad)
	if err != nil {
		t.Fatalf("async submit: %v", err)
	}
	st, err = client.WaitFor(id, time.Millisecond)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if st.State != server.StateFailed || !strings.Contains(st.Err, "does.not.Exist") {
		t.Fatalf("bad job state: %+v", st)
	}

	// Polling an unknown id reports unknown.
	st, err = client.Poll("bogus")
	if err != nil || st.State != server.StateUnknown {
		t.Fatalf("unknown poll: %+v err=%v", st, err)
	}
}

// TestServerModeHadoopBackend: the same client protocol drives a server
// wrapping the Hadoop engine — engines are interchangeable behind the
// daemon, as the paper's server mode demonstrates with BigSheets.
func TestServerModeHadoopBackend(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/text", 8<<10, 9); err != nil {
		t.Fatalf("generate: %v", err)
	}
	srv, err := server.Serve(c.Hadoop, "127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer srv.Close()
	client, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	rep, err := client.Submit(wordcount.NewJob("/data/text", "/out/h", 2, false))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if rep.Engine != "hadoop" {
		t.Errorf("engine: %s", rep.Engine)
	}
}
