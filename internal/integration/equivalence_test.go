package integration_test

import (
	"fmt"
	"math/rand"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/types"
	"m3r/internal/wio"
	wc "m3r/internal/wordcount"
)

// TestEngineEquivalenceRandomized is the paper's verification methodology
// as a property test: random job shapes over random data must produce
// identical output on the Hadoop engine and the M3R engine ("verified
// that they produced equivalent output", §6). Job shape dimensions:
// mapper variant, combiner on/off, reducer count, input size/skew, text
// vs sequence-file output.
func TestEngineEquivalenceRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2026))
	mappers := []string{
		"examples.WordCount$MutatingMap",
		"examples.WordCount$ImmutableMap",
		mapred.IdentityMapperName,
	}
	for trial := 0; trial < 8; trial++ {
		trial := trial
		mapperName := mappers[rng.Intn(len(mappers))]
		reducers := 1 + rng.Intn(5)
		combiner := rng.Intn(2) == 0 && mapperName != mapred.IdentityMapperName
		sizeKB := 4 + rng.Intn(60)
		seqOutput := rng.Intn(2) == 0 && mapperName != mapred.IdentityMapperName
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			c := newCluster(t, lab.Options{Nodes: 1 + rng.Intn(4)})
			if err := wc.Generate(c.FS, "/data/t", int64(sizeKB)<<10, int64(trial)); err != nil {
				t.Fatalf("generate: %v", err)
			}

			build := func(out string) *conf.JobConf {
				job := conf.NewJob()
				job.SetJobName(fmt.Sprintf("equiv-%d", trial))
				job.AddInputPath("/data/t")
				job.SetOutputPath(out)
				job.SetMapperClass(mapperName)
				job.SetNumReduceTasks(reducers)
				if mapperName == mapred.IdentityMapperName {
					job.SetReducerClass(mapred.IdentityReducerName)
					job.SetMapOutputKeyClass(types.LongName)
					job.SetMapOutputValueClass(types.TextName)
					job.SetOutputKeyClass(types.LongName)
					job.SetOutputValueClass(types.TextName)
				} else {
					job.SetReducerClass("examples.WordCount$Reduce")
					if combiner {
						job.SetCombinerClass("examples.WordCount$Reduce")
					}
					job.SetMapOutputKeyClass(types.TextName)
					job.SetMapOutputValueClass(types.IntName)
					job.SetOutputKeyClass(types.TextName)
					job.SetOutputValueClass(types.IntName)
				}
				if seqOutput {
					job.SetOutputFormatClass(formats.SequenceFileOutputFormatName)
				}
				return job
			}

			if _, err := c.Hadoop.Submit(build("/out/h")); err != nil {
				t.Fatalf("hadoop: %v", err)
			}
			if _, err := c.M3R.Submit(build("/out/m")); err != nil {
				t.Fatalf("m3r: %v", err)
			}

			hPairs := readAllOutput(t, c.FS, "/out/h", seqOutput)
			mPairs := readAllOutput(t, c.FS, "/out/m", seqOutput)
			if len(hPairs) != len(mPairs) {
				t.Fatalf("output sizes differ: hadoop %d vs m3r %d (mapper=%s reducers=%d combiner=%v)",
					len(hPairs), len(mPairs), mapperName, reducers, combiner)
			}
			for k, v := range hPairs {
				if mPairs[k] != v {
					t.Fatalf("key %q: hadoop %q vs m3r %q", k, v, mPairs[k])
				}
			}
		})
	}
}

// firstLetterPartitioner sends a Text key to the partition its first letter
// names ('a' → 0, 'b' → 1, ...), so an input file's vocabulary decides
// where a map task's whole output goes.
type firstLetterPartitioner struct{}

func (firstLetterPartitioner) Configure(*conf.JobConf) {}

func (firstLetterPartitioner) GetPartition(key, _ wio.Writable, numPartitions int) int {
	return int(key.(*types.Text).B[0]-'a') % numPartitions
}

func init() {
	mapred.RegisterPartitioner("test.FirstLetterPartitioner", func() mapred.Partitioner { return firstLetterPartitioner{} })
}

// TestEngineEquivalenceSkewFlip runs a job whose partition skew flips from
// one map task to the next — a task sends everything to partition 0, the
// next everything to partition 3 — on one place, under a partitioner that is
// not the stock one (so a combine table hashes a key once for itself and asks
// the partitioner besides), with and without the combiner. Whatever a task
// allocates is its own: the output must stay byte-identical to the Hadoop
// engine's.
func TestEngineEquivalenceSkewFlip(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 1})
	rng := rand.New(rand.NewSource(18))
	for f, shape := range []struct {
		letter byte
		words  int
	}{{'a', 3000}, {'d', 3000}, {'a', 50}, {'d', 5000}, {'b', 1}, {'a', 4000}} {
		var text []byte
		for w := 0; w < shape.words; w++ {
			text = fmt.Appendf(text, "%c%03d", shape.letter, rng.Intn(300))
			text = append(text, " \n"[min(w%12/11, 1)])
		}
		if err := dfs.WriteFile(c.FS, fmt.Sprintf("/in/skew/f%d", f), text); err != nil {
			t.Fatal(err)
		}
	}
	for _, combiner := range []bool{true, false} {
		build := func(out string) *conf.JobConf {
			job := wc.NewJob("/in/skew", out, 4, true)
			job.SetPartitionerClass("test.FirstLetterPartitioner")
			if !combiner {
				job.Unset(conf.KeyCombinerClass)
			}
			return job
		}
		leg := fmt.Sprintf("combiner=%v", combiner)
		if _, err := c.Hadoop.Submit(build("/out/skew-h-" + leg)); err != nil {
			t.Fatalf("%s: hadoop: %v", leg, err)
		}
		if _, err := c.M3R.Submit(build("/out/skew-m-" + leg)); err != nil {
			t.Fatalf("%s: m3r: %v", leg, err)
		}
		want := readRawParts(t, c.FS, "/out/skew-h-"+leg)
		if len(want["part-00000"]) == 0 || len(want["part-00003"]) == 0 || len(want["part-00002"]) != 0 {
			t.Fatalf("%s: the partitioner did not skew the output: part sizes %d %d %d %d", leg,
				len(want["part-00000"]), len(want["part-00001"]), len(want["part-00002"]), len(want["part-00003"]))
		}
		assertSameParts(t, leg, readRawParts(t, c.FS, "/out/skew-m-"+leg), want)
	}
}

// readAllOutput collects output pairs into a map of serialized key →
// aggregated serialized values (order-insensitive; counts multiplicity).
func readAllOutput(t *testing.T, fs dfs.FileSystem, dir string, seq bool) map[string]string {
	t.Helper()
	out := make(map[string]string)
	if !seq {
		for _, line := range readTextOutput(t, fs, dir) {
			out[line] = out[line] + "|"
		}
		return out
	}
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	for _, f := range files {
		base := dfs.Base(f.Path)
		if base == formats.SuccessMarker || f.IsDir {
			continue
		}
		pairs, err := formats.ReadSeqFileAll(fs, f.Path)
		if err != nil {
			t.Fatalf("read %s: %v", f.Path, err)
		}
		for _, p := range pairs {
			kb, _ := wio.Marshal(p.Key)
			vb, _ := wio.Marshal(p.Value)
			out[string(kb)] += string(vb) + "|"
		}
	}
	return out
}
