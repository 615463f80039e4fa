package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/engine"
	"m3r/internal/sim"
)

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// tracedRep runs one sequence under a root span carrying the process's
// CPU seconds and collector activity over the rep. It returns the span
// (nil while the tracer is off) and the raw wall. The calibration loops
// around it are recorded for env.calib_s.
func (r *runner) tracedRep(tr *tracer, s *site, eng engine.Engine, kind string) (*span, float64, error) {
	if err := s.inst.reset(eng); err != nil {
		return nil, 0, err
	}
	quiesce()
	var m0, m1 runtime.MemStats
	r.calibrate()
	runtime.ReadMemStats(&m0)
	cpu0 := cpuSeconds()
	var sp *span
	if tr != nil {
		sp = tr.start(nil, "bench", kind)
		tr.rep.Store(sp)
	}
	_, wall, err := r.rep(s, eng)
	if tr != nil {
		tr.end(sp)
		tr.rep.Store(nil)
	}
	if err != nil {
		return nil, 0, err
	}
	sp.add("cpu_s", cpuSeconds()-cpu0)
	runtime.ReadMemStats(&m1)
	sp.add("gc_cycles", float64(m1.NumGC-m0.NumGC))
	sp.add("gc_pause_s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e9)
	r.calibrate()
	return sp, wall, nil
}

// runTraced is the traced run: one cold M3R rep, the Hadoop reps and the
// warm M3R reps under the tracer, an untraced M3R rep on a second cluster
// before each warm one for the overhead, then the ladder and the modelled
// track.
func (r *runner) runTraced(p protocol, spansPath string) (map[string]float64, error) {
	tr := newTracer()
	tr.on.Store(true)
	r.settle()
	traced, err := r.newSite("traced", sim.Zero(), tr)
	if err != nil {
		return nil, err
	}
	defer traced.c.close()
	plain, err := r.newSite("plain", sim.Zero(), nil)
	if err != nil {
		return nil, err
	}
	defer plain.c.close()

	cold, _, err := r.tracedRep(tr, traced, traced.c.mEng, "rep.m3r.cold")
	if err != nil {
		return nil, err
	}
	var hadoopReps []*span
	var hadoopRaw []float64
	for i := 0; i < p.tracedHadoop; i++ {
		sp, raw, err := r.tracedRep(tr, traced, traced.c.hEng, "rep.hadoop")
		if err != nil {
			return nil, err
		}
		hadoopReps = append(hadoopReps, sp)
		hadoopRaw = append(hadoopRaw, raw)
		if i == 0 {
			r.verify(traced, "traced first rep")
		}
	}
	if _, _, err := r.tracedRep(nil, plain, plain.c.mEng, ""); err != nil { // populate the plain cluster's cache
		return nil, err
	}
	var warm []*span
	var overhead, plainRaw []float64
	for i := 0; i < p.tracedPairs; i++ {
		_, plainWall, err := r.tracedRep(nil, plain, plain.c.mEng, "")
		if err != nil {
			return nil, err
		}
		sp, tracedWall, err := r.tracedRep(tr, traced, traced.c.mEng, "rep.m3r.warm")
		if err != nil {
			return nil, err
		}
		warm, plainRaw = append(warm, sp), append(plainRaw, plainWall)
		// Raw seconds: the two reps are a fraction of a second apart, and
		// scaling each by its own calibration loops would only add their noise.
		overhead = append(overhead, tracedWall/plainWall-1)
	}
	r.verify(traced, "traced last rep")

	tr.mu.Lock()
	spans, jobs := tr.spans, tr.jobs
	tr.mu.Unlock()
	kids := children(spans)
	out := make(map[string]float64)
	m3rLayers(out, kids, cold, warm)
	hadoopLayers(out, kids, hadoopReps)
	out["env.calib_s"] = median(r.calibs)
	out["env.calib_spread"] = iqrShare(r.calibs)
	out["env.m3r_wall_raw_s"] = median(plainRaw)
	out["env.hadoop_wall_raw_s"] = median(hadoopRaw)
	// Each traced rep against the untraced rep run just before it.
	out["env.trace_overhead_frac"] = median(overhead)

	// The ladder replays the sequence's first shuffle-bearing job.
	var shuffleJob *conf.JobConf
	var shuffleCPU float64
	for _, j := range jobs {
		if j.engine == "m3r" && j.job.NumReduceTasks() > 0 {
			shuffleJob = j.job
			break
		}
	}
	if shuffleJob == nil {
		return nil, fmt.Errorf("%s: no shuffle-bearing job was submitted", r.w.name)
	}
	for _, rep := range warm {
		for _, j := range kids[rep.ID] {
			if j.Layer == "m3r" && j.Name == shuffleJob.JobName() {
				shuffleCPU += j.Attrs["cpu_s"] / float64(len(warm))
				break
			}
		}
	}
	l, done, err := newLadder(tr, traced.c.fs, filepath.Join(r.workDir, "ladder"), shuffleJob)
	if err != nil {
		return nil, err
	}
	m3r := func(name string) float64 { return out["m3r"+"."+name] }
	rungs, err := l.run(p.ladderPasses, 1-ratio(m3r("local_pairs"), m3r("reduce_input_recs"), 0))
	done()
	if err != nil {
		return nil, err
	}
	for k, v := range rungs {
		out[k] = v
	}
	out["ladder.coverage"] = rungs["ladder.sum_s"] / shuffleCPU

	if err := r.modelTrack(out); err != nil {
		return nil, err
	}
	if spansPath != "" {
		if err := tr.write(spansPath); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// attrSum adds one attribute over the job spans of a rep.
func attrSum(jobs []*span, key string) float64 {
	var s float64
	for _, j := range jobs {
		s += j.Attrs[key]
	}
	return s
}

func attrMax(jobs []*span, key string) float64 {
	var m float64
	for _, j := range jobs {
		m = max(m, j.Attrs[key])
	}
	return m
}

// dfsTotals adds up the file-handle spans under a rep's jobs.
func dfsTotals(kids map[int64][]*span, jobs []*span) (readBytes, readS, writeBytes, writeS float64) {
	for _, j := range jobs {
		for _, h := range kids[j.ID] {
			if h.Layer != "dfs" {
				continue
			}
			if h.Name == "read" {
				readBytes += h.Attrs["bytes"]
				readS += h.Attrs["busy_ns"] / 1e9
			} else {
				writeBytes += h.Attrs["bytes"]
				writeS += h.Attrs["busy_ns"] / 1e9
			}
		}
	}
	return
}

func jobsOf(kids map[int64][]*span, rep *span, layer string) []*span {
	var out []*span
	for _, k := range kids[rep.ID] {
		if k.Layer == layer {
			out = append(out, k)
		}
	}
	return out
}

func ratio(num, den, whenNone float64) float64 {
	if den == 0 {
		return whenNone
	}
	return num / den
}

// m3rLayers fills the in-situ M3R metrics: the mean over the warm reps,
// except the ones the cold rep owns (cache misses and the dfs reads that
// serve them).
func m3rLayers(out map[string]float64, kids map[int64][]*span, cold *span, warm []*span) {
	n := float64(len(warm))
	acc := func(layer, name string, v float64) { out[layer+"."+name] += v / n }
	stat := func(k string) string { return "stats." + k }
	var warmMisses, spilledRecs float64 // totals over the warm reps; only their ratios are reported
	for _, rep := range warm {
		jobs := jobsOf(kids, rep, "m3r")
		var jobS float64
		for _, j := range jobs {
			jobS += j.seconds()
		}
		acc("m3r", "job_s", jobS)
		acc("m3r", "jobs", float64(len(jobs)))
		acc("m3r", "driver_gap_s", float64(selfNs(rep, kids[rep.ID]))/1e9)
		acc("m3r", "map_output_recs", attrSum(jobs, counters.MapOutputRecords))
		acc("m3r", "reduce_input_recs", attrSum(jobs, counters.ReduceInputRecords))
		acc("m3r", "local_pairs", attrSum(jobs, stat(sim.LocalPairs)))
		acc("m3r", "cloned_pairs", attrSum(jobs, stat(sim.ClonedPairs)))
		acc("m3r", "aliased_pairs", attrSum(jobs, stat(sim.AliasedPairs)))
		acc("m3r", "cache_hits", attrSum(jobs, stat(sim.CacheHits)))
		warmMisses += attrSum(jobs, stat(sim.CacheMisses))
		acc("m3r", "cache_resident_bytes", attrMax(jobs, counters.CacheResidentBytes))
		acc("m3r", "cache_spilled_entries", attrSum(jobs, counters.CacheSpilledEntries))
		acc("m3r", "cache_readmitted_entries", attrSum(jobs, counters.CacheReadmittedEntries))
		acc("m3r", "evicted_runs", attrSum(jobs, counters.EvictedResidentRuns))
		acc("m3r", "pool_contended_bytes", attrSum(jobs, counters.PoolContendedBytes))
		acc("m3r", "budget_released_bytes", attrSum(jobs, counters.BudgetReleasedBytes))
		acc("m3r", "spill_queue_depth", attrMax(jobs, counters.SpillQueueDepth))
		spilledRecs += attrSum(jobs, counters.SpilledRecords)
		acc("x10", "remote_bytes", attrSum(jobs, stat(sim.RemoteBytes)))
		acc("x10", "remote_transfers", attrSum(jobs, stat(sim.RemoteTransfers)))
		acc("wio", "dedup_hits", attrSum(jobs, stat(sim.DedupHits)))
		acc("spill", "stored_bytes", attrSum(jobs, stat(sim.SpillBytes)))
		acc("spill", "raw_bytes", attrSum(jobs, stat(sim.SpillRawBytes)))
		acc("spill", "files", attrSum(jobs, stat(sim.SpillFiles)))
		rb, _, wb, ws := dfsTotals(kids, jobs)
		acc("dfs", "warm_read_bytes", rb)
		acc("dfs", "write_bytes", wb)
		acc("dfs", "write_s", ws)
		acc("dfs", "meta_ops", attrSum(jobs, "dfs.meta_ops")+rep.Attrs["dfs.meta_ops"])
		acc("go", "cpu_s", rep.Attrs["cpu_s"])
		acc("go", "gc_cycles", rep.Attrs["gc_cycles"])
		acc("go", "gc_pause_s", rep.Attrs["gc_pause_s"])
	}
	get := func(name string) float64 { return out["m3r"+"."+name] }
	set := func(name string, v float64) { out["m3r"+"."+name] = v }
	set("alias_ratio", ratio(get("aliased_pairs"), get("aliased_pairs")+get("cloned_pairs"), 0))
	set("cache_hit_ratio", ratio(get("cache_hits"), get("cache_hits")+warmMisses/n, 0))
	// The share of reduce input that stayed in memory through the shuffle.
	set("resident_ratio", 1-ratio(spilledRecs/n, get("reduce_input_recs"), 0))
	out["spill.ratio"] = ratio(out["spill.stored_bytes"], out["spill.raw_bytes"], 1)

	coldJobs := jobsOf(kids, cold, "m3r")
	set("cache_misses", attrSum(coldJobs, stat(sim.CacheMisses)))
	out["dfs.read_bytes"], out["dfs.read_s"], _, _ = dfsTotals(kids, coldJobs)
}

func hadoopLayers(out map[string]float64, kids map[int64][]*span, reps []*span) {
	n := float64(len(reps))
	acc := func(name string, v float64) { out["hadoop."+name] += v / n }
	for _, rep := range reps {
		jobs := jobsOf(kids, rep, "hadoop")
		var jobS float64
		for _, j := range jobs {
			jobS += j.seconds()
		}
		acc("job_s", jobS)
		acc("tasks_launched", attrSum(jobs, "stats."+sim.TasksLaunched))
		acc("shuffle_fetch_bytes", attrSum(jobs, "stats."+sim.ShuffleFetchBytes))
		acc("spill_stored_bytes", attrSum(jobs, "stats."+sim.SpillBytes))
		acc("task_retries", attrSum(jobs, "stats."+sim.TaskRetries))
		rb, rs, wb, ws := dfsTotals(kids, jobs)
		acc("dfs_read_bytes", rb)
		acc("dfs_read_s", rs)
		acc("dfs_write_bytes", wb)
		acc("dfs_write_s", ws)
	}
}

// modelTrack runs one sequence per engine under sim.Default(), the cost
// model the paper's figures are reproduced with, and checks the figure's
// shape: each band is one operation. The numbers are reported, not gated.
func (r *runner) modelTrack(out map[string]float64) error {
	s, err := r.newSite("model", sim.Default(), nil)
	if err != nil {
		return err
	}
	defer s.c.close()
	start := time.Now()
	mReports, _, err := r.rep(s, s.c.mEng)
	if err != nil {
		return err
	}
	mWall := time.Since(start).Seconds()
	start = time.Now()
	hReports, _, err := r.rep(s, s.c.hEng)
	if err != nil {
		return err
	}
	hWall := time.Since(start).Seconds()
	out["sim.model_m3r_wall_s"] = mWall
	out["sim.model_hadoop_wall_s"] = hWall
	out["sim.model_speedup_x"] = hWall / mWall
	// The bands are for the full sizes; at -smoke sizes the per-task model
	// costs swamp the work and the figures have no shape to keep.
	if r.w.shapes != nil && r.scale == 1 {
		for _, c := range r.w.shapes(hReports, mReports) {
			var err error
			if !c.ok {
				err = fmt.Errorf("got %s", c.got)
			}
			r.ops.check("shape "+c.name, err)
		}
	}
	return nil
}
