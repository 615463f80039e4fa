package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/kvstore"
	"m3r/internal/mapred"
	"m3r/internal/spill"
	"m3r/internal/wio"
	"m3r/internal/x10"
)

const (
	ladderDFSSize = 4 << 20 // bytes written and read back by the dfs rungs
	ladderPoolOps = 20000
)

// ladder replays one job's own records, single-threaded, through each
// layer's public entry point: what a record costs at each rung when
// nothing else runs. The job is the workload's first shuffle-bearing job,
// taken from the conf a traced Submit saw.
type ladder struct {
	tr     *tracer
	fs     *dfs.HDFS
	dir    string // local scratch for spill files
	job    *conf.JobConf
	rj     *engine.ResolvedJob
	splits []formats.InputSplit
	seq    int // passes made, for a fresh output directory each
	// tempOutput: the engine keeps this job's output in the cache only, so
	// the formats.write rung is not on its path.
	tempOutput bool

	passes map[string][]float64 // metric → one value per pass
	path   map[string][]float64 // seconds per pass of the rungs on the default M3R path
}

func newLadder(tr *tracer, fs *dfs.HDFS, dir string, captured *conf.JobConf) (*ladder, func(), error) {
	job := captured.CloneJob()
	fsID := dfs.RegisterInstance(fs)
	job.Set(conf.KeyFSInstance, fsID)
	rj, err := engine.Resolve(job)
	if err != nil {
		dfs.DropInstance(fsID)
		return nil, nil, err
	}
	// What the M3R engine does before running the job's map side.
	rj.SubstituteImmutableRunner()
	splits, err := rj.InputFormat.GetSplits(job, places*2)
	if err != nil {
		dfs.DropInstance(fsID)
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		dfs.DropInstance(fsID)
		return nil, nil, err
	}
	l := &ladder{
		tr: tr, fs: fs, dir: dir, job: job, rj: rj, splits: splits,
		tempOutput: job.IsTemporaryOutput(job.OutputPath()),
		passes:     make(map[string][]float64), path: make(map[string][]float64),
	}
	return l, func() { dfs.DropInstance(fsID) }, nil
}

// rungResult is what one rung measured in one pass.
type rungResult struct {
	ns      float64 // time inside the rung's calls
	mallocs float64 // heap objects allocated inside the calls
}

// rung runs body, which makes the rung's calls through call; each call is
// one span, and only time and allocations inside calls count.
func (l *ladder) rung(pass *span, layer, name string, body func(call func(func() error) error) error) (rungResult, error) {
	sp := l.tr.start(pass, layer, name)
	var res rungResult
	var m0, m1 runtime.MemStats
	call := func(f func() error) error {
		c := l.tr.start(sp, layer, name+".call")
		runtime.ReadMemStats(&m0)
		start := time.Now()
		err := f()
		res.ns += float64(time.Since(start))
		runtime.ReadMemStats(&m1)
		res.mallocs += float64(m1.Mallocs - m0.Mallocs)
		l.tr.end(c)
		return err
	}
	err := body(call)
	l.tr.end(sp)
	if err != nil {
		return res, fmt.Errorf("ladder %s.%s: %w", layer, name, err)
	}
	return res, nil
}

func (l *ladder) put(layer, name string, v float64) {
	key := layer + "." + name
	l.passes[key] = append(l.passes[key], v)
}

// perRec records a rung's time (and, for the record path's twins, its
// allocations) per record.
func (l *ladder) perRec(layer, name string, res rungResult, recs int, twin bool) {
	n := float64(max(recs, 1))
	l.put(layer, name+"_ns_per_rec", res.ns/n)
	if twin {
		l.put(layer, name+"_allocs_per_rec", res.mallocs/n)
	}
}

func readAll(reader formats.RecordReader) ([]wio.Pair, error) {
	var out []wio.Pair
	for {
		k, v := reader.CreateKey(), reader.CreateValue()
		ok, err := reader.Next(k, v)
		if err != nil || !ok {
			return out, err
		}
		out = append(out, wio.Pair{Key: k, Value: v})
	}
}

func countPairs(runs [][]wio.Pair) int {
	n := 0
	for _, r := range runs {
		n += len(r)
	}
	return n
}

// run makes the given number of passes and returns the median of each metric.
// remoteShare is the share of the job's shuffled pairs that cross places
// when the engine runs it; ladder.sum_s counts the ship rung, which ships
// every pair, at that share.
func (l *ladder) run(passes int, remoteShare float64) (map[string]float64, error) {
	for p := 0; p < passes; p++ {
		pass := l.tr.start(nil, "ladder", fmt.Sprintf("pass%d", p))
		err := l.pass(pass)
		l.tr.end(pass)
		if err != nil {
			return nil, err
		}
	}
	out := make(map[string]float64, len(l.passes)+1)
	for k, v := range l.passes {
		out[k] = median(v)
	}
	var sum float64
	for name, v := range l.path {
		if name == "ship" {
			sum += remoteShare * median(v)
		} else {
			sum += median(v)
		}
	}
	out["ladder.sum_s"] = sum
	return out, nil
}

func (l *ladder) pass(pass *span) error {
	R := l.rj.NumReducers
	onPath := func(name string, res rungResult) { l.path[name] = append(l.path[name], res.ns/1e9) }

	// formats: read every split through the job's input format, fresh
	// holders per record, as the M3R engine does when it populates the cache.
	inputs := make([][]wio.Pair, len(l.splits))
	res, err := l.rung(pass, "formats", "read", func(call func(func() error) error) error {
		for i, s := range l.splits {
			if err := call(func() error {
				reader, err := l.rj.InputFormat.GetRecordReader(s, l.job)
				if err != nil {
					return err
				}
				inputs[i], err = readAll(reader)
				if cerr := reader.Close(); err == nil {
					err = cerr
				}
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	inRecs := countPairs(inputs)
	l.perRec("formats", "read", res, inRecs, false)

	// mapred: the job's MapRun over the cached pairs into a collecting
	// OutputCollector. An unmarked map side may reuse its output objects,
	// so its pairs are cloned on collect, as the engine's collector does.
	mapOut := make([][]wio.Pair, len(l.splits))
	ctxs := make([]*engine.TaskContext, len(l.splits))
	res, err = l.rung(pass, "mapred", "map", func(call func(func() error) error) error {
		for i, s := range l.splits {
			taskJob := l.job.CloneJob()
			ctx := engine.NewTaskContext(taskJob, fmt.Sprintf("ladder_m_%06d", i), s)
			ctxs[i] = ctx
			mr := l.rj.NewMapRun()
			mr.Configure(taskJob)
			immutable := engine.MapTaskImmutable(l.rj, s)
			collect := mapred.CollectorFunc(func(k, v wio.Writable) error {
				if !immutable {
					k, v = wio.MustClone(k), wio.MustClone(v)
				}
				mapOut[i] = append(mapOut[i], wio.Pair{Key: k, Value: v})
				return nil
			})
			pr, ok := mr.(engine.PairsRunner)
			if !ok {
				return fmt.Errorf("map runner %T cannot consume pairs", mr)
			}
			if err := call(func() error { return pr.RunPairs(inputs[i], collect, ctx) }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	outRecs := countPairs(mapOut)
	l.perRec("mapred", "map", res, outRecs, true)
	onPath("map", res)

	// Partition (not a rung: the partitioner is the job's own code).
	part := l.rj.NewPartitioner()
	buckets := make([][][]wio.Pair, len(l.splits)) // [split][partition]
	for i, pairs := range mapOut {
		buckets[i] = make([][]wio.Pair, R)
		for _, p := range pairs {
			q := part.GetPartition(p.Key, p.Value, R)
			buckets[i][q] = append(buckets[i][q], p)
		}
	}

	// engine: map-side sort of each (task, partition) batch.
	sorted := make([][][]wio.Pair, len(l.splits))
	res, err = l.rung(pass, "engine", "sort", func(call func(func() error) error) error {
		for i := range buckets {
			sorted[i] = make([][]wio.Pair, R)
			for q, b := range buckets[i] {
				cp := slices.Clone(b)
				sorted[i][q] = cp
				if err := call(func() error { engine.SortPairs(cp, l.rj.SortCmp); return nil }); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.perRec("engine", "sort", res, outRecs, true)
	if !l.rj.HasCombiner {
		onPath("sort", res)
	}

	// engine: the combiner over each batch. Without a configured combiner
	// engine.Combine returns its input at once, and the rung reads ~0.
	runs := sorted // what reaches the shuffle
	res, err = l.rung(pass, "engine", "combine", func(call func(func() error) error) error {
		combined := make([][][]wio.Pair, len(buckets))
		for i := range buckets {
			combined[i] = make([][]wio.Pair, R)
			for q, b := range buckets[i] {
				cp := slices.Clone(b)
				if err := call(func() error {
					out, err := engine.Combine(l.rj, cp, ctxs[i])
					combined[i][q] = out
					return err
				}); err != nil {
					return err
				}
			}
		}
		if l.rj.HasCombiner {
			runs = combined
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.perRec("engine", "combine", res, outRecs, false)
	if l.rj.HasCombiner {
		onPath("combine", res)
	}

	var flat [][]wio.Pair // every non-empty run, task-major
	for i := range runs {
		for _, r := range runs[i] {
			if len(r) > 0 {
				flat = append(flat, r)
			}
		}
	}
	shufRecs := countPairs(flat)

	// wio: the de-duplicating encoder and its decoder, one stream per run.
	encoded := make([][]byte, len(flat))
	res, err = l.rung(pass, "wio", "encode", func(call func(func() error) error) error {
		for i, r := range flat {
			if err := call(func() error {
				var buf bytes.Buffer
				enc := wio.NewEncoder(&buf, true)
				for _, p := range r {
					if err := enc.EncodePair(p); err != nil {
						return err
					}
				}
				encoded[i] = buf.Bytes()
				return enc.Close()
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.perRec("wio", "encode", res, shufRecs, false)

	res, err = l.rung(pass, "wio", "decode", func(call func(func() error) error) error {
		for i, r := range flat {
			if err := call(func() error {
				dec := wio.NewDecoder(bytes.NewReader(encoded[i]))
				for range r {
					if _, err := dec.DecodePair(); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.perRec("wio", "decode", res, shufRecs, true)

	res, err = l.rung(pass, "wio", "clone", func(call func(func() error) error) error {
		for _, r := range flat {
			if err := call(func() error {
				for _, p := range r {
					if _, err := wio.Clone(p.Key); err != nil {
						return err
					}
					if _, err := wio.Clone(p.Value); err != nil {
						return err
					}
				}
				return nil
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.perRec("wio", "clone", res, shufRecs, true)

	// x10: ShipPairs across places, in-process and over loopback TCP.
	ship := func(name string, rt *x10.Runtime, twin bool) (rungResult, error) {
		res, err := l.rung(pass, "x10", name, func(call func(func() error) error) error {
			for _, r := range flat {
				if err := call(func() error {
					_, err := rt.ShipPairs(0, 1, r, true)
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			l.perRec("x10", name, res, shufRecs, twin)
		}
		return res, err
	}
	inproc := x10.NewRuntime(x10.Options{Places: places})
	res, err = ship("ship_inproc", inproc, true)
	if cerr := inproc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	onPath("ship", res)
	if err := l.shipTCP(ship); err != nil {
		return err
	}

	// spill: a run to its on-disk segment and back, per codec.
	recs := make([][]spill.Rec, len(flat))
	for i, r := range flat {
		recs[i] = make([]spill.Rec, len(r))
		for j, p := range r {
			kb, err := wio.Marshal(p.Key)
			if err != nil {
				return err
			}
			vb, err := wio.Marshal(p.Value)
			if err != nil {
				return err
			}
			recs[i][j] = spill.Rec{K: kb, V: vb}
		}
	}
	for _, codec := range []spill.Codec{spill.CodecNone, spill.CodecFlate} {
		file := func(i int) string { return filepath.Join(l.dir, fmt.Sprintf("run_%s_%06d", codec, i)) }
		res, err = l.rung(pass, "spill", "encode_"+codec.String(), func(call func(func() error) error) error {
			for i := range recs {
				if err := call(func() error {
					er, err := spill.EncodeRun(recs[i], codec)
					if err != nil {
						return err
					}
					_, err = spill.WriteEncodedFile(file(i), er)
					return err
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.perRec("spill", "encode_"+codec.String(), res, shufRecs, false)

		res, err = l.rung(pass, "spill", "decode_"+codec.String(), func(call func(func() error) error) error {
			for i := range recs {
				if err := call(func() error {
					s, err := spill.OpenFile(file(i))
					if err != nil {
						return err
					}
					for {
						_, ok, err := s.Next()
						if err != nil {
							s.Close()
							return err
						}
						if !ok {
							return s.Close()
						}
					}
				}); err != nil {
					return err
				}
				if err := os.Remove(file(i)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		l.perRec("spill", "decode_"+codec.String(), res, shufRecs, codec == spill.CodecNone)
	}

	// engine: the budget pool — plain reserve/release, and admission that
	// has to evict a victim first.
	res, err = l.rung(pass, "engine", "pool", func(call func(func() error) error) error {
		jb := engine.NewBudgetPool(1<<40).Job("ladder", 0)
		return call(func() error {
			for i := 0; i < ladderPoolOps; i++ {
				if !jb.Reserve(4096) {
					return fmt.Errorf("reserve refused")
				}
				jb.Release(4096)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.put("engine", "pool_ns_per_op", res.ns/ladderPoolOps)

	res, err = l.rung(pass, "engine", "pool_evict", func(call func(func() error) error) error {
		jb := engine.NewBudgetPool(8192).Job("ladder", 0)
		return call(func() error {
			for i := 0; i < ladderPoolOps; i++ {
				if !jb.Reserve(8192) { // the victim fills the pool
					return fmt.Errorf("victim refused")
				}
				admitted, _, err := jb.ReserveEvicting(4096, func(int64) (int64, error) { return 8192, nil })
				if err != nil || !admitted {
					return fmt.Errorf("evicting admission failed: %v", err)
				}
				jb.Release(4096)
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	l.put("engine", "pool_evict_ns_per_op", res.ns/ladderPoolOps)

	// engine: the reduce-side merge of each partition's runs, serial and
	// staged, and the reducer over the merged stream.
	readers := func(q int) []engine.RunReader {
		var out []engine.RunReader
		for i := range runs {
			if len(runs[i][q]) > 0 {
				out = append(out, engine.NewSliceRunReader(runs[i][q]))
			}
		}
		return out
	}
	merged := make([][]wio.Pair, R)
	drain := func(open func(q int) (*engine.MergeIter, error), keep bool) func(call func(func() error) error) error {
		return func(call func(func() error) error) error {
			for q := 0; q < R; q++ {
				if err := call(func() error {
					it, err := open(q)
					if err != nil {
						return err
					}
					var out []wio.Pair
					for {
						p, ok, err := it.Next()
						if err != nil {
							it.Close()
							return err
						}
						if !ok {
							break
						}
						if keep {
							out = append(out, p)
						}
					}
					merged[q] = out
					return it.Close()
				}); err != nil {
					return err
				}
			}
			return nil
		}
	}
	res, err = l.rung(pass, "engine", "merge_staged", drain(func(q int) (*engine.MergeIter, error) {
		return engine.NewParallelMergeIter(readers(q), l.rj.SortCmp, 2)
	}, false))
	if err != nil {
		return err
	}
	l.perRec("engine", "merge_staged", res, shufRecs, false)
	res, err = l.rung(pass, "engine", "merge", drain(func(q int) (*engine.MergeIter, error) {
		return engine.NewMergeIter(readers(q), l.rj.SortCmp)
	}, true))
	if err != nil {
		return err
	}
	l.perRec("engine", "merge", res, shufRecs, true)
	onPath("merge", res)

	reduced := make([][]wio.Pair, R)
	res, err = l.rung(pass, "engine", "reduce", func(call func(func() error) error) error {
		for q := 0; q < R; q++ {
			taskJob := l.job.CloneJob()
			ctx := engine.NewTaskContext(taskJob, fmt.Sprintf("ladder_r_%06d", q), nil)
			reducer := l.rj.NewReduceRun()
			reducer.Configure(taskJob)
			collect := mapred.CollectorFunc(func(k, v wio.Writable) error {
				if !l.rj.ReduceImmutable {
					k, v = wio.MustClone(k), wio.MustClone(v)
				}
				reduced[q] = append(reduced[q], wio.Pair{Key: k, Value: v})
				return nil
			})
			if err := call(func() error {
				return engine.DriveReduce(reducer, l.rj.GroupCmp, engine.SlicePairs(merged[q]), collect, ctx, false)
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.perRec("engine", "reduce", res, shufRecs, false)
	onPath("reduce", res)

	// kvstore: the cached input — one block per split, written pair by
	// pair and read back at the owning place, as cache population and a
	// warm map task do.
	kvrt := x10.NewRuntime(x10.Options{Places: places})
	store := kvstore.New(kvrt)
	infos := make([]kvstore.BlockInfo, len(inputs))
	blockPath := func(i int) string { return fmt.Sprintf("/ladder/split-%05d", i) }
	res, err = l.rung(pass, "kvstore", "write", func(call func(func() error) error) error {
		for i, pairs := range inputs {
			if err := call(func() error {
				w, err := store.CreateWriter(i%places, blockPath(i), "")
				if err != nil {
					return err
				}
				for _, p := range pairs {
					w.Append(p)
				}
				infos[i], err = w.Close()
				return err
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		l.perRec("kvstore", "write", res, inRecs, true)
		res, err = l.rung(pass, "kvstore", "read", func(call func(func() error) error) error {
			for i := range inputs {
				if err := call(func() error {
					r, err := store.CreateReader(i%places, blockPath(i), infos[i])
					if err != nil {
						return err
					}
					for {
						if _, ok := r.Next(); !ok {
							return nil
						}
					}
				}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if cerr := kvrt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	l.perRec("kvstore", "read", res, inRecs, false)

	// formats: the reduce output through the job's output format, into HDFS.
	l.seq++
	outDir := fmt.Sprintf("/ladder/out-%d", l.seq)
	l.job.SetOutputPath(outDir)
	outRecsWritten := countPairs(reduced)
	res, err = l.rung(pass, "formats", "write", func(call func(func() error) error) error {
		of, err := l.rj.NewOutputFormat()
		if err != nil {
			return err
		}
		for q := 0; q < R; q++ {
			if err := call(func() error {
				w, err := of.GetRecordWriter(l.job, fmt.Sprintf("part-%05d", q))
				if err != nil {
					return err
				}
				for _, p := range reduced[q] {
					if err := w.Write(p.Key, p.Value); err != nil {
						w.Close()
						return err
					}
				}
				return w.Close()
			}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.perRec("formats", "write", res, outRecsWritten, false)
	if !l.tempOutput {
		onPath("write", res)
	}

	// dfs: raw HDFS throughput, block cutting and replication included.
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	blob := outDir + "/blob"
	res, err = l.rung(pass, "dfs", "write", func(call func(func() error) error) error {
		return call(func() error {
			w, err := l.fs.Create(blob)
			if err != nil {
				return err
			}
			for n := 0; n < ladderDFSSize; n += len(buf) {
				if _, err := w.Write(buf); err != nil {
					w.Close()
					return err
				}
			}
			return w.Close()
		})
	})
	if err != nil {
		return err
	}
	l.put("dfs", "write_mb_per_s", ladderDFSSize/1e6/(res.ns/1e9))
	res, err = l.rung(pass, "dfs", "read", func(call func(func() error) error) error {
		return call(func() error {
			f, err := l.fs.Open(blob)
			if err != nil {
				return err
			}
			_, err = io.Copy(io.Discard, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	l.put("dfs", "read_mb_per_s", ladderDFSSize/1e6/(res.ns/1e9))
	return l.fs.Delete(outDir, true)
}

// shipTCP runs the ship rung over loopback sockets: one frame server per
// place, as `m3rrun worker` processes would be.
func (l *ladder) shipTCP(ship func(string, *x10.Runtime, bool) (rungResult, error)) error {
	var servers []*x10.FrameServer
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	addrs := make([]string, places)
	for p := range addrs {
		s, err := x10.ServeFrames("127.0.0.1:0", p, x10.FrameServerOptions{})
		if err != nil {
			return err
		}
		servers = append(servers, s)
		addrs[p] = s.Addr()
	}
	rt := x10.NewRuntime(x10.Options{
		Places:    places,
		Transport: x10.NewTCPTransport(addrs, x10.TCPOptions{}),
	})
	_, err := ship("ship_tcp", rt, false)
	if cerr := rt.Close(); err == nil {
		err = cerr
	}
	return err
}
