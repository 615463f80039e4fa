package integration_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/lab"
	"m3r/internal/server"
	"m3r/internal/wordcount"
)

// poolGridLeg extends the shuffle lifecycle grid with the engine-pool axes:
// the engine's per-place pool size and the job's cap within it.
type poolGridLeg struct {
	jobCap int64 // per-job cap inside the pool; 0 = pool limit governs
}

func (l poolGridLeg) name(pool int64) string {
	return fmt.Sprintf("P%d_c%d", pool, l.jobCap)
}

func (l poolGridLeg) apply(job *conf.JobConf) *conf.JobConf {
	if l.jobCap > 0 {
		job.SetInt64(conf.KeyM3RShuffleBudget, l.jobCap)
	}
	return job
}

// TestEnginePoolLifecycleEquivalenceWordCount extends the lifecycle
// equivalence grid with the engine-pool axes: engine pool size × per-job cap.
// Output must stay byte-identical to the unlimited pool's at every point, the
// pool must drain to zero after every job (the end-of-job guarantee), and
// the regime counters must hold: a starvation
// pool spills everything and never evicts, a roomy pool with no cap stays
// uncontended.
func TestEnginePoolLifecycleEquivalenceWordCount(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2}) // reference engine: explicit unlimited budget
	if err := wordcount.Generate(c.FS, "/data/P", 64<<10, 9); err != nil {
		t.Fatal(err)
	}
	refJob := wordcount.NewJob("/data/P", "/out/ref", 3, true)
	refJob.SetInt64(conf.KeyM3RShuffleBudget, 0) // opt out of any env pool cap
	if _, err := c.M3R.Submit(refJob); err != nil {
		t.Fatal(err)
	}
	refParts := readRawParts(t, c.FS, "/out/ref")
	want, err := wordcount.CountReference(c.FS, "/data/P")
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, readTextOutput(t, c.FS, "/out/ref"), want)

	legs := []poolGridLeg{{jobCap: 0}, {jobCap: 2 << 10}}
	// A conf.DefaultsEnv per-job cap (the tight-budget CI leg's 4 KiB)
	// applies to the legs that set none, which then legitimately spill.
	defaults, err := conf.EnvDefaults()
	if err != nil {
		t.Fatal(err)
	}
	envCap := defaults.Has(conf.KeyM3RShuffleBudget)
	for _, pool := range []int64{1, 8 << 10, 1 << 26} {
		pool := pool
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) {
			pc := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: pool})
			if err := wordcount.Generate(pc.FS, "/data/P", 64<<10, 9); err != nil {
				t.Fatal(err)
			}
			for _, leg := range legs {
				out := "/out/" + leg.name(pool)
				rep, err := pc.M3R.Submit(leg.apply(wordcount.NewJob("/data/P", out, 3, true)))
				if err != nil {
					t.Fatalf("%s: %v", leg.name(pool), err)
				}
				assertSameParts(t, leg.name(pool), readRawParts(t, pc.FS, out), refParts)
				if held := pc.M3R.ShufflePoolHeldBytes(); held != 0 {
					t.Fatalf("%s: pool holds %d bytes after the job finished", leg.name(pool), held)
				}

				spilled := rep.Counters.Value(counters.M3RGroup, counters.SpilledRuns)
				evicted := rep.Counters.Value(counters.M3RGroup, counters.EvictedResidentRuns)
				contended := rep.Counters.Value(counters.M3RGroup, counters.PoolContendedBytes)
				switch {
				case pool == 1:
					// Starvation pool: nothing reserves, so every encodable
					// run spills, every admission contends, and there is
					// never a resident victim to evict.
					if spilled == 0 || contended == 0 {
						t.Errorf("%s: starvation pool spilled=%d contended=%d", leg.name(pool), spilled, contended)
					}
					if evicted != 0 {
						t.Errorf("%s: EVICTED_RESIDENT_RUNS=%d with nothing resident", leg.name(pool), evicted)
					}
				case pool == 1<<26 && leg.jobCap == 0 && !envCap:
					// Roomy pool, no cap: the lifecycle machinery stays cold.
					if spilled != 0 || evicted != 0 || contended != 0 {
						t.Errorf("%s: roomy pool touched the spill path (spilled=%d evicted=%d contended=%d)",
							leg.name(pool), spilled, evicted, contended)
					}
				}
				if evicted > spilled {
					t.Errorf("%s: evicted %d of %d spilled runs", leg.name(pool), evicted, spilled)
				}
				if evicted > 0 && contended == 0 {
					t.Errorf("%s: evictions without contention", leg.name(pool))
				}
			}
		})
	}
}

// TestServerModeTwoJobPooledEquivalence is the two-job server-mode
// equivalence pin: the same two jobs, run serially and then concurrently
// (submit-async) against one pooled engine — racing for one per-place pool
// — must produce byte-identical outputs, and the pool must drain to zero
// after each phase.
func TestServerModeTwoJobPooledEquivalence(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: 4 << 10}) // small pool: concurrent jobs contend
	if err := wordcount.Generate(c.FS, "/data/two", 48<<10, 17); err != nil {
		t.Fatal(err)
	}
	want, err := wordcount.CountReference(c.FS, "/data/two")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.Serve(c.M3R, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := server.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: serial through the same server.
	for i, out := range []string{"/out/serial0", "/out/serial1"} {
		if _, err := client.Submit(wordcount.NewJob("/data/two", out, 3, true)); err != nil {
			t.Fatalf("serial job %d: %v", i, err)
		}
		if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
			t.Fatalf("pool holds %d bytes after serial job %d", held, i)
		}
	}
	serial0 := readRawParts(t, c.FS, "/out/serial0")
	serial1 := readRawParts(t, c.FS, "/out/serial1")
	checkCounts(t, readTextOutput(t, c.FS, "/out/serial0"), want)

	// Phase 2: the same two jobs concurrently via submit-async — the
	// motivating server-mode workload, racing on one pool.
	id0, err := client.SubmitAsync(wordcount.NewJob("/data/two", "/out/conc0", 3, true))
	if err != nil {
		t.Fatal(err)
	}
	id1, err := client.SubmitAsync(wordcount.NewJob("/data/two", "/out/conc1", 3, true))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{id0, id1} {
		st, err := client.WaitFor(id, time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != server.StateSucceeded {
			t.Fatalf("concurrent job %s: %+v", id, st)
		}
	}
	assertSameParts(t, "concurrent job 0", readRawParts(t, c.FS, "/out/conc0"), serial0)
	assertSameParts(t, "concurrent job 1", readRawParts(t, c.FS, "/out/conc1"), serial1)
	if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
		t.Fatalf("pool holds %d bytes after the concurrent pair", held)
	}
}

// TestConcurrentSubmitsSharedEngine hammers one pooled engine with
// concurrent direct submits over the same input — shared cache, shared
// stats, shared pool, interleaved spill scratch — and checks every job's
// output is byte-identical to a serial reference and the pool drains to
// zero. Under CI's -race legs this doubles as the concurrent-submit data
// race pin for the engine state jobs now share.
func TestConcurrentSubmitsSharedEngine(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: 4 << 10})
	if err := wordcount.Generate(c.FS, "/data/cc", 32<<10, 23); err != nil {
		t.Fatal(err)
	}
	ref := wordcount.NewJob("/data/cc", "/out/cc_ref", 3, true)
	if _, err := c.M3R.Submit(ref); err != nil {
		t.Fatal(err)
	}
	refParts := readRawParts(t, c.FS, "/out/cc_ref")

	const jobs = 4
	var wg sync.WaitGroup
	errs := make([]error, jobs)
	for i := 0; i < jobs; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = c.M3R.Submit(wordcount.NewJob("/data/cc", fmt.Sprintf("/out/cc_%d", i), 3, true))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent job %d: %v", i, err)
		}
	}
	for i := 0; i < jobs; i++ {
		assertSameParts(t, fmt.Sprintf("concurrent job %d", i),
			readRawParts(t, c.FS, fmt.Sprintf("/out/cc_%d", i)), refParts)
	}
	if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
		t.Fatalf("pool holds %d bytes after all concurrent jobs", held)
	}
}

// TestConcurrentCappedJobsUnpooledEngine: on an engine whose pool has no
// limit, two jobs with their own tight caps reserve in the same per-place
// pools. Run concurrently, each must write what it wrote alone, both must
// spill, and the pool must read zero afterwards.
func TestConcurrentCappedJobsUnpooledEngine(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2, ShuffleBudgetBytes: -1})
	if err := wordcount.Generate(c.FS, "/data/cap", 64<<10, 31); err != nil {
		t.Fatal(err)
	}
	jobs := []struct {
		reducers int
		cap      int64
	}{{3, 4 << 10}, {2, 2 << 10}}
	job := func(i int, out string) *conf.JobConf {
		j := wordcount.NewJob("/data/cap", out, jobs[i].reducers, true)
		j.SetInt64(conf.KeyM3RShuffleBudget, jobs[i].cap)
		return j
	}
	serial := make([]map[string][]byte, len(jobs))
	for i := range jobs {
		out := fmt.Sprintf("/out/cap_serial%d", i)
		if _, err := c.M3R.Submit(job(i, out)); err != nil {
			t.Fatalf("serial job %d: %v", i, err)
		}
		serial[i] = readRawParts(t, c.FS, out)
	}

	var wg sync.WaitGroup
	spilled := make([]int64, len(jobs))
	errs := make([]error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := c.M3R.Submit(job(i, fmt.Sprintf("/out/cap_conc%d", i)))
			if errs[i] = err; err == nil {
				spilled[i] = rep.Counters.Value(counters.M3RGroup, counters.SpilledRuns)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent job %d: %v", i, err)
		}
		assertSameParts(t, fmt.Sprintf("concurrent job %d", i),
			readRawParts(t, c.FS, fmt.Sprintf("/out/cap_conc%d", i)), serial[i])
		if spilled[i] == 0 {
			t.Errorf("concurrent job %d spilled nothing under a %d-byte cap", i, jobs[i].cap)
		}
	}
	if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
		t.Fatalf("pool holds %d bytes after the concurrent capped jobs", held)
	}
}
