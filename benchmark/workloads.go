package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/microbench"
	"m3r/internal/sysml"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// workload names one job sequence and the cluster knobs it runs under.
// Sizes are the full sizes; -smoke divides them by 32.
type workload struct {
	name string
	// blockBytes is the HDFS block size; zero means the default, 256 KiB.
	blockBytes int64
	// poolBytes, when positive, is the M3R engine pool and cache budget
	// per place; zero leaves both unbounded (the paper's design point).
	poolBytes func(scale int) int64
	// prepare writes the workload's inputs into the cluster's HDFS and
	// returns the sequence bound to that cluster.
	prepare func(c *cluster, seed int64, scale int) (*instance, error)
	// shapes are the bands the modelled track must stay inside, each one
	// operation. hadoop and m3r are the engines' per-job reports of one
	// sim.Default() sequence.
	shapes func(hadoop, m3r []*engine.Report) []shapeCheck
}

// instance is one workload bound to one cluster.
type instance struct {
	// rep runs one job sequence on eng, including the deletes a client of
	// the sequence issues between its jobs, and returns the job reports.
	rep func(eng engine.Engine) ([]*engine.Report, error)
	// reset removes the output rep left on eng's filesystem so the next
	// rep starts from the same state. It is not part of the sequence.
	reset func(eng engine.Engine) error
	// check reads the output the last rep on eng left, compares it with
	// the reference, and returns a digest of the record stream so the two
	// engines' outputs can be compared with each other.
	check func(eng engine.Engine) (digest string, err error)
	// reduceOutputRecs is REDUCE_OUTPUT_RECORDS summed over one sequence.
	reduceOutputRecs int64
}

// shapeCheck is one band of the paper's figures on the modelled track.
type shapeCheck struct {
	name string
	ok   bool
	got  string
}

var workloads = []*workload{
	{name: "wordcount", prepare: prepareWordCount, shapes: speedupAtLeast("fig8", 1.3)},
	{name: "shuffle_remote", blockBytes: shuffleBlock, prepare: prepareShuffleRemote, shapes: shuffleRemoteShapes},
	{name: "sort_spill", prepare: prepareSortSpill, poolBytes: sortSpillPool},
	{name: "pagerank_iter", prepare: preparePageRank, shapes: speedupAtLeast("fig11", 2)},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// Full sizes. They are a quarter to a half of the sizes the issue's sizing
// runs timed, cut so that 92 runs of the benchmark fit the driver's time
// cap; sample counts are not cut. See README.md, "How sizes were chosen".
const (
	wordCountBytes   = 2 << 20
	sortSpillBytes   = 1 << 20
	shufflePairs     = 8000
	shuffleValue     = 2048
	shuffleBlock     = 8 << 20 // one block, so one map task, per 4 MB partition file
	pageRankNodes    = 800
	pageRankBlock    = 100
	pageRankIters    = 5
	pageRankAlpha    = 0.85
	pageRankSparsity = 0.01
)

// sortSpillPool keeps the pool at 1/8 of the input per place, the ratio
// the issue's sizing runs used (512 KiB for 4 MiB).
func sortSpillPool(scale int) int64 { return sortSpillBytes / int64(scale) / 8 }

func totalWall(reports []*engine.Report) float64 {
	var s float64
	for _, r := range reports {
		s += r.Wall.Seconds()
	}
	return s
}

func speedupAtLeast(fig string, min float64) func(h, m []*engine.Report) []shapeCheck {
	return func(h, m []*engine.Report) []shapeCheck {
		x := totalWall(h) / totalWall(m)
		return []shapeCheck{{
			name: fmt.Sprintf("%s hadoop/m3r >= %g", fig, min),
			ok:   x >= min,
			got:  fmt.Sprintf("%.2fx", x),
		}}
	}
}

func shuffleRemoteShapes(h, m []*engine.Report) []shapeCheck {
	out := speedupAtLeast("fig6", 1.5)(h, m)
	i1, i2 := m[0].Wall.Seconds(), m[1].Wall.Seconds()
	return append(out, shapeCheck{
		name: "fig6 m3r iteration 2 <= iteration 1",
		ok:   i2 <= i1,
		got:  fmt.Sprintf("%.4fs vs %.4fs", i2, i1),
	})
}

func engineFS(eng engine.Engine) (dfs.FileSystem, error) {
	return dfs.Instance(eng.FileSystem())
}

func deleteIfExists(fs dfs.FileSystem, path string) error {
	if !fs.Exists(path) {
		return nil
	}
	return fs.Delete(path, true)
}

// counterSum adds one task counter over a sequence's reports.
func counterSum(reports []*engine.Report, group, name string) int64 {
	var n int64
	for _, r := range reports {
		n += r.Counters.Find(group, name).Value()
	}
	return n
}

func mapOutputRecs(reports []*engine.Report) int64 {
	return counterSum(reports, counters.TaskGroup, counters.MapOutputRecords)
}

// visitOutput streams the records under dir, part file by part file in
// path order, to visit. Text output yields one record per line (value
// nil); SequenceFile output yields the serialized key and value, so the
// random sync markers of the container never reach a comparison.
func visitOutput(fs dfs.FileSystem, dir string, seq bool, visit func(k, v []byte) error) (string, error) {
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var lenBuf [binary.MaxVarintLen64]byte
	feed := func(b []byte) {
		h.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(b)))])
		h.Write(b)
	}
	for _, f := range files {
		base := dfs.Base(f.Path)
		if f.IsDir || base == formats.SuccessMarker {
			continue
		}
		feed([]byte(base))
		emit := func(k, v []byte) error {
			feed(k)
			feed(v)
			return visit(k, v)
		}
		if !seq {
			data, err := dfs.ReadAll(fs, f.Path)
			if err != nil {
				return "", err
			}
			for _, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
				if err := emit(line, nil); err != nil {
					return "", err
				}
			}
			continue
		}
		pairs, err := formats.ReadSeqFileAll(fs, f.Path)
		if err != nil {
			return "", err
		}
		for _, p := range pairs {
			kb, err := wio.Marshal(p.Key)
			if err != nil {
				return "", err
			}
			vb, err := wio.Marshal(p.Value)
			if err != nil {
				return "", err
			}
			if err := emit(kb, vb); err != nil {
				return "", err
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// --- wordcount and sort_spill -------------------------------------------

const textInput = "/data/text"

func prepareWordCount(c *cluster, seed int64, scale int) (*instance, error) {
	if err := wordcount.Generate(c.fs, textInput, wordCountBytes/int64(scale), seed); err != nil {
		return nil, err
	}
	ref, err := wordcount.CountReference(c.fs, textInput)
	if err != nil {
		return nil, err
	}
	return textCountInstance(c, ref, func(out string) *conf.JobConf {
		return wordcount.NewJob(textInput, out, places, true)
	}), nil
}

// prepareSortSpill is WordCount's mapper and reducer with the combiner
// left out, under a pool an eighth of the input: every map-output record
// reaches the merge, and most of the shuffle goes through admission,
// eviction and the spill codec. The expected counts are recounted here,
// not taken from wordcount.CountReference, so the two workloads do not
// share an oracle.
func prepareSortSpill(c *cluster, seed int64, scale int) (*instance, error) {
	if err := wordcount.Generate(c.fs, textInput, sortSpillBytes/int64(scale), seed); err != nil {
		return nil, err
	}
	data, err := dfs.ReadAll(c.fs, textInput)
	if err != nil {
		return nil, err
	}
	ref := make(map[string]int32)
	for len(data) > 0 {
		i := bytes.IndexAny(data, " \n")
		if i < 0 {
			i = len(data)
		}
		if i > 0 {
			ref[string(data[:i])]++
		}
		data = data[min(i+1, len(data)):]
	}
	return textCountInstance(c, ref, func(out string) *conf.JobConf {
		job := conf.NewJob()
		job.SetJobName("sort_spill")
		job.SetInputFormatClass(formats.TextInputFormatName)
		job.SetOutputFormatClass(formats.TextOutputFormatName)
		job.AddInputPath(textInput)
		job.SetOutputPath(out)
		job.SetNumReduceTasks(places)
		job.SetMapperClass(wordcount.ImmutableMapperName)
		job.SetReducerClass(wordcount.SumReducerName)
		job.SetMapOutputKeyClass(types.TextName)
		job.SetMapOutputValueClass(types.IntName)
		job.SetOutputKeyClass(types.TextName)
		job.SetOutputValueClass(types.IntName)
		job.Set(conf.KeyM3RSpillCodec, "flate")
		job.SetInt(conf.KeyM3RSpillQueue, 4)
		return job
	}), nil
}

// textCountInstance is a one-job sequence whose text output is
// "word<TAB>count" lines that must equal ref.
func textCountInstance(c *cluster, ref map[string]int32, newJob func(out string) *conf.JobConf) *instance {
	outDir := func(eng engine.Engine) string { return "/out/" + eng.Name() }
	return &instance{
		reduceOutputRecs: int64(len(ref)),
		rep: func(eng engine.Engine) ([]*engine.Report, error) {
			return engine.RunSequence(eng, newJob(outDir(eng)))
		},
		reset: func(eng engine.Engine) error {
			fs, err := engineFS(eng)
			if err != nil {
				return err
			}
			return deleteIfExists(fs, outDir(eng))
		},
		check: func(eng engine.Engine) (string, error) {
			seen := 0
			digest, err := visitOutput(c.fs, outDir(eng), false, func(line, _ []byte) error {
				word, count, ok := bytes.Cut(line, []byte("\t"))
				if !ok {
					return fmt.Errorf("malformed output line %q", line)
				}
				n, err := strconv.Atoi(string(count))
				if err != nil {
					return fmt.Errorf("output line %q: %w", line, err)
				}
				if want, ok := ref[string(word)]; !ok || int(want) != n {
					return fmt.Errorf("word %q: got %d, reference %d", word, n, want)
				}
				seen++
				return nil
			})
			if err == nil && seen != len(ref) {
				err = fmt.Errorf("output has %d words, reference %d", seen, len(ref))
			}
			return digest, err
		},
	}
}

// --- shuffle_remote ------------------------------------------------------

func valueHash(v []byte) uint64 {
	h := fnv.New64a()
	h.Write(v)
	return h.Sum64()
}

// prepareShuffleRemote is the paper's shuffle microbenchmark at 100 %
// remote: three jobs, each reading the previous job's output, every record
// crossing places.
func prepareShuffleRemote(c *cluster, seed int64, scale int) (*instance, error) {
	cfgOf := func(engineName string) microbench.Config {
		return microbench.Config{
			Pairs: shufflePairs / scale, ValueBytes: shuffleValue, Percent: 100,
			Iterations: 3, Partitions: places,
			Dir: "/mb/" + engineName, Seed: seed,
		}
	}
	// The pipeline's intermediates live under Dir, so each engine gets its
	// own copy of the same input (same seed, same bytes).
	var want []uint64
	for _, name := range []string{"hadoop", "m3r"} {
		cfg := cfgOf(name)
		if err := microbench.Generate(c.fs, cfg); err != nil {
			return nil, err
		}
		if want != nil {
			continue
		}
		for q := 0; q < cfg.Partitions; q++ {
			pairs, err := formats.ReadSeqFileAll(c.fs, fmt.Sprintf("%s/part-%05d", cfg.InputDir(), q))
			if err != nil {
				return nil, err
			}
			for _, p := range pairs {
				want = append(want, valueHash(p.Value.(*types.BytesWritable).B))
			}
		}
		slices.Sort(want)
	}
	final := func(eng engine.Engine) string { return cfgOf(eng.Name()).Dir + "/final" }
	return &instance{
		reduceOutputRecs: int64(3 * len(want)),
		rep: func(eng engine.Engine) ([]*engine.Report, error) {
			return microbench.Run(eng, cfgOf(eng.Name()))
		},
		reset: func(eng engine.Engine) error {
			fs, err := engineFS(eng)
			if err != nil {
				return err
			}
			return deleteIfExists(fs, final(eng))
		},
		check: func(eng engine.Engine) (string, error) {
			var got []uint64
			digest, err := visitOutput(c.fs, final(eng), true, func(_, v []byte) error {
				var b types.BytesWritable
				if err := wio.Unmarshal(v, &b); err != nil {
					return err
				}
				got = append(got, valueHash(b.B))
				return nil
			})
			if err != nil {
				return digest, err
			}
			slices.Sort(got)
			if !slices.Equal(got, want) {
				return digest, fmt.Errorf("output values (%d) are not the input multiset (%d)", len(got), len(want))
			}
			return digest, nil
		},
	}, nil
}

// --- pagerank_iter -------------------------------------------------------

// preparePageRank writes G and p0 once; a rep is the MatVec + Scale loop
// of sysml.PageRank driven from here, because sysml.PageRank itself
// rewrites G on every call and so cannot be the timed unit.
func preparePageRank(c *cluster, seed int64, scale int) (*instance, error) {
	nodes := int32(pageRankNodes)
	if scale > 1 {
		nodes = 2 * pageRankBlock // the smallest graph with more than one block row
	}
	cfg := sysml.PageRankConfig{
		Nodes: nodes, BlockSize: pageRankBlock, Sparsity: pageRankSparsity,
		Alpha: pageRankAlpha, Iterations: pageRankIters, Seed: seed,
	}
	// WriteMat and ReadDense need only a filesystem: the inputs are written
	// to HDFS directly, once, and both engines read the same files.
	in := &sysml.Driver{FS: c.fs, Partitions: places, Dir: "/pr/in"}
	G, err := in.WriteMat("G", cfg.Nodes, cfg.Nodes, cfg.BlockSize, cfg.BlockSize, cfg.Seed, 1-cfg.Sparsity)
	if err != nil {
		return nil, err
	}
	p0, err := in.WriteMat("p0", cfg.Nodes, 1, cfg.BlockSize, 1, cfg.Seed+1, 0)
	if err != nil {
		return nil, err
	}
	ref := sysml.PageRankReference(cfg)
	teleport := (1 - cfg.Alpha) / float64(cfg.Nodes)
	dirOf := func(eng engine.Engine) string { return "/pr/" + eng.Name() }
	nb := int64(G.BlockRows())
	return &instance{
		// Per iteration: the multiply job emits one partial per block of G,
		// the aggregate job one block per block row; Scale is map-only.
		reduceOutputRecs: int64(cfg.Iterations) * (nb*nb + nb),
		rep: func(eng engine.Engine) ([]*engine.Report, error) {
			d, err := sysml.NewDriver(eng, dirOf(eng), places)
			if err != nil {
				return nil, err
			}
			p := p0
			for it := 0; it < cfg.Iterations; it++ {
				gp, err := d.MatVec(G, p, fmt.Sprintf("%s/temp_gp_%d", d.Dir, it))
				if err != nil {
					return d.Reports, fmt.Errorf("pagerank iteration %d: %w", it, err)
				}
				out := fmt.Sprintf("%s/temp_p_%d", d.Dir, it)
				if it == cfg.Iterations-1 {
					out = d.Dir + "/pagerank_out"
				}
				next, err := d.Scale(gp, cfg.Alpha, teleport, out)
				if err != nil {
					return d.Reports, fmt.Errorf("pagerank iteration %d: %w", it, err)
				}
				if err := deleteIfExists(d.FS, gp.Path); err != nil {
					return d.Reports, err
				}
				if p.Path != p0.Path {
					if err := deleteIfExists(d.FS, p.Path); err != nil {
						return d.Reports, err
					}
				}
				p = next
			}
			return d.Reports, nil
		},
		reset: func(eng engine.Engine) error {
			fs, err := engineFS(eng)
			if err != nil {
				return err
			}
			return deleteIfExists(fs, dirOf(eng))
		},
		check: func(eng engine.Engine) (string, error) {
			out := sysml.Mat{Path: dirOf(eng) + "/pagerank_out", Rows: cfg.Nodes, Cols: 1, RPB: cfg.BlockSize, CPB: 1}
			got, err := in.ReadDense(out)
			if err != nil {
				return "", err
			}
			// The last job is map-only, so which part file holds which
			// block differs between the engines; the digest is over the
			// assembled vector's bits instead of the part files' streams.
			h := sha256.New()
			for _, row := range got {
				var b [8]byte
				binary.BigEndian.PutUint64(b[:], math.Float64bits(row[0]))
				h.Write(b[:])
			}
			digest := fmt.Sprintf("%x", h.Sum(nil))
			for i, want := range ref {
				if math.Abs(got[i][0]-want) > 1e-9 {
					return digest, fmt.Errorf("rank[%d] = %g, reference %g", i, got[i][0], want)
				}
			}
			return digest, nil
		},
	}, nil
}
