package integration_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/server"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// cacheReadingMapper proves tasks can read the distributed cache: it
// prefixes every word with the cache file's contents.
type cacheReadingMapper struct {
	mapred.Base
	prefix string
	err    error
}

func (m *cacheReadingMapper) Configure(job *conf.JobConf) {
	files := mapred.GetCacheFiles(job)
	if len(files) == 0 {
		m.err = fmt.Errorf("no distributed cache files")
		return
	}
	b, err := mapred.ReadCacheFile(job, files[0])
	if err != nil {
		m.err = err
		return
	}
	m.prefix = string(b)
}

func (m *cacheReadingMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	if m.err != nil {
		return m.err
	}
	return out.Collect(types.NewText(m.prefix+value.(*types.Text).String()), types.NewInt(1))
}

func init() {
	mapred.RegisterMapper("test.CacheReadingMapper", func() mapred.Mapper { return &cacheReadingMapper{} })
}

// TestDistributedCache: both engines expose registered cache files to
// tasks (§5.3).
func TestDistributedCache(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	dfs.WriteFile(c.FS, "/in/f", []byte("alpha\nbeta\n"))
	dfs.WriteFile(c.FS, "/cache/prefix.txt", []byte("PFX-"))
	for _, name := range []string{"hadoop", "m3r"} {
		job := conf.NewJob()
		job.AddInputPath("/in")
		job.SetOutputPath("/out/dc-" + name)
		job.SetMapperClass("test.CacheReadingMapper")
		job.SetReducerClass("examples.WordCount$Reduce")
		job.SetNumReduceTasks(1)
		job.SetMapOutputKeyClass(types.TextName)
		job.SetMapOutputValueClass(types.IntName)
		job.SetOutputKeyClass(types.TextName)
		job.SetOutputValueClass(types.IntName)
		mapred.AddCacheFile(job, "/cache/prefix.txt")
		var err error
		if name == "hadoop" {
			_, err = c.Hadoop.Submit(job)
		} else {
			_, err = c.M3R.Submit(job)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines := readTextOutput(t, c.FS, "/out/dc-"+name)
		if len(lines) != 2 || lines[0] != "PFX-alpha\t1" || lines[1] != "PFX-beta\t1" {
			t.Errorf("%s output: %v", name, lines)
		}
	}
	// Unregistered files are refused.
	job := conf.NewJob()
	job.Set(conf.KeyFSInstance, c.M3R.FileSystem())
	if _, err := mapred.ReadCacheFile(job, "/cache/prefix.txt"); err == nil {
		t.Error("unregistered cache file should be refused")
	}
}

// TestJobQueues: jobs carry their administrative queue through reports
// and the server's listing (§5.3).
func TestJobQueues(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/t", 8<<10, 3); err != nil {
		t.Fatal(err)
	}
	job := wordcount.NewJob("/data/t", "/out/q1", 1, true)
	job.Set(conf.KeyJobQueueName, "interactive")
	rep, err := c.M3R.Submit(job)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queue != "interactive" {
		t.Errorf("queue: %q", rep.Queue)
	}
	rep, err = c.Hadoop.Submit(wordcount.NewJob("/data/t", "/out/q2", 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queue != "default" {
		t.Errorf("default queue: %q", rep.Queue)
	}

	// Server-side listing.
	srv, err := server.Serve(c.M3R, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	j1 := wordcount.NewJob("/data/t", "/out/q3", 1, true)
	j1.Set(conf.KeyJobQueueName, "batch")
	id1, err := client.SubmitAsync(j1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := client.SubmitAsync(wordcount.NewJob("/data/t", "/out/q4", 1, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitFor(id1, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitFor(id2, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	jobs, err := client.ListJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("listed %d jobs", len(jobs))
	}
	if jobs[0].ID != id1 || jobs[0].Queue != "batch" || jobs[0].State != server.StateSucceeded {
		t.Errorf("job 1: %+v", jobs[0])
	}
	if jobs[1].Queue != "default" {
		t.Errorf("job 2: %+v", jobs[1])
	}
}

// TestConcurrentSubmissions: one M3R instance runs several jobs at once,
// sharing places and cache safely — the "M3R instance runs all jobs in
// the HMR job sequence submitted to it" design plus thread safety.
func TestConcurrentSubmissions(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 3})
	if err := wordcount.Generate(c.FS, "/data/t", 32<<10, 3); err != nil {
		t.Fatal(err)
	}
	want, err := wordcount.CountReference(c.FS, "/data/t")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 6)
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out := fmt.Sprintf("/out/conc%d", i)
			_, errs[i] = c.M3R.Submit(wordcount.NewJob("/data/t", out, 3, true))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent job %d: %v", i, err)
		}
	}
	for i := 0; i < 6; i++ {
		checkCounts(t, readTextOutput(t, c.FS, fmt.Sprintf("/out/conc%d", i)), want)
	}
}
