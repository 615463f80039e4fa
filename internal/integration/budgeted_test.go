// Budgeted-shuffle equivalence: under a shuffle budget the M3R engine holds
// every run as bytes from collect to merge — serialized at collect, sorted
// under the raw key comparator, resident as a segment or spilled through the
// codec, decoded once at the reducer — which is the Hadoop engine's
// representation, not the unbudgeted M3R one. These tests hold the two
// engines byte for byte where that representation decides the result: the
// sort order of serialized keys, the order among equal keys, what a reused
// map-output object looks like by the time it is read.
package integration_test

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// orderMapper reads lines "group order payload" and emits a (group, order)
// Pair key with the payload as value — the secondary-sort shape. It reuses
// one key and one value object for every record, which is legal for an
// unmarked map side: whoever collects must have copied them by the time
// Collect returns.
type orderMapper struct {
	mapred.Base
	group   types.Text
	order   types.IntWritable
	key     types.Pair
	payload types.Text
}

func (m *orderMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	f := bytes.Fields(value.(*types.Text).B)
	if len(f) != 3 {
		return fmt.Errorf("orderMapper: malformed line %q", value.(*types.Text).B)
	}
	n, err := strconv.Atoi(string(f[1]))
	if err != nil {
		return err
	}
	m.group.SetBytes(f[0])
	m.order.Set(int32(n))
	m.key.First, m.key.Second = &m.group, &m.order
	m.payload.SetBytes(f[2])
	return out.Collect(&m.key, &m.payload)
}

// freshOrderMapper is orderMapper allocating every object it emits, and
// marked for it.
type freshOrderMapper struct{ mapred.Base }

func (*freshOrderMapper) AssertImmutableOutput() {}

func (*freshOrderMapper) Map(key, value wio.Writable, out mapred.OutputCollector, r mapred.Reporter) error {
	return new(orderMapper).Map(key, value, out, r)
}

// pairFirstPartitioner sends a Pair key where its first component's first
// letter says, so a group is one reducer's and a vocabulary that skips
// letters leaves partitions empty.
type pairFirstPartitioner struct{}

func (pairFirstPartitioner) Configure(*conf.JobConf) {}

func (pairFirstPartitioner) GetPartition(key, _ wio.Writable, numPartitions int) int {
	return int(key.(*types.Pair).First.(*types.Text).B[0]-'a') % numPartitions
}

// pairFirstGrouper groups Pair keys by their first component.
type pairFirstGrouper struct{}

func (pairFirstGrouper) Compare(a, b wio.Writable) int {
	return a.(*types.Pair).First.(*types.Text).CompareTo(b.(*types.Pair).First)
}

// joinReducer emits the group's first key's first component with every
// value of the group, in the order the merge delivered them — which makes
// the order among equal sort keys part of the output.
type joinReducer struct{ mapred.Base }

func (*joinReducer) AssertImmutableOutput() {}

func (*joinReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	group := wio.MustClone(key.(*types.Pair).First)
	var joined []string
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		joined = append(joined, v.(*types.Text).String())
	}
	return out.Collect(group, types.NewText(strings.Join(joined, ",")))
}

func init() {
	mapred.RegisterMapper("test.OrderMapper", func() mapred.Mapper { return &orderMapper{} })
	mapred.RegisterMapper("test.FreshOrderMapper", func() mapred.Mapper { return &freshOrderMapper{} })
	mapred.RegisterPartitioner("test.PairFirstPartitioner", func() mapred.Partitioner { return pairFirstPartitioner{} })
	mapred.RegisterComparator("test.PairFirstGrouper", func() wio.Comparator { return pairFirstGrouper{} })
	mapred.RegisterReducer("test.JoinReducer", func() mapred.Reducer { return &joinReducer{} })
}

// writeOrderInput writes files input files of lines "group order payload":
// groups from the letters in groups, only four distinct orders, so most sort
// keys occur several times in a file and in several files, and the payload
// says which file and line a record came from.
func writeOrderInput(t *testing.T, fs dfs.FileSystem, dir, groups string, files, lines int) {
	t.Helper()
	for f := 0; f < files; f++ {
		var b bytes.Buffer
		for l := 0; l < lines; l++ {
			g := groups[(f*7+l*3)%len(groups)]
			fmt.Fprintf(&b, "%c%d %d f%dl%d\n", g, l%3, (l*5+f)%4, f, l)
		}
		if err := dfs.WriteFile(fs, fmt.Sprintf("%s/in%02d", dir, f), b.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
}

// orderJob is the secondary-sort job over dir: Pair keys under their
// registered raw comparator, partitioned by the group's first letter.
func orderJob(dir, out string, reducers int, mapper string) *conf.JobConf {
	job := conf.NewJob()
	job.SetJobName("order")
	job.SetInputFormatClass(formats.TextInputFormatName)
	job.SetOutputFormatClass(formats.TextOutputFormatName)
	job.AddInputPath(dir)
	job.SetOutputPath(out)
	job.SetNumReduceTasks(reducers)
	job.SetMapperClass(mapper)
	job.SetReducerClass("test.JoinReducer")
	job.SetPartitionerClass("test.PairFirstPartitioner")
	job.SetMapOutputKeyClass(types.PairName)
	job.SetMapOutputValueClass(types.TextName)
	job.SetOutputKeyClass(types.TextName)
	job.SetOutputValueClass(types.TextName)
	return job
}

// TestBudgetedShuffleEquivalence runs each job on the Hadoop engine, then on
// the M3R engine under a 4 KiB shuffle budget with the raw and the flate
// spill codec (and once unbudgeted, which pins that a difference is the
// budgeted path's), and requires the same part files, byte for byte.
func TestBudgetedShuffleEquivalence(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	if err := wordcount.Generate(c.FS, "/data/words", 96<<10, 23); err != nil {
		t.Fatal(err)
	}
	writeOrderInput(t, c.FS, "/data/order", "abcdefgh", 5, 400)
	// Only 'a' and 'c' groups: of four partitions, 1 and 3 get nothing.
	writeOrderInput(t, c.FS, "/data/sparse", "ac", 3, 200)

	wc := func(immutable, combiner bool) func(out string) *conf.JobConf {
		return func(out string) *conf.JobConf {
			job := wordcount.NewJob("/data/words", out, 3, immutable)
			if !combiner {
				job.Unset(conf.KeyCombinerClass)
			}
			return job
		}
	}
	cases := []struct {
		name string
		job  func(out string) *conf.JobConf
		// check, when set, looks at one budgeted M3R leg's report.
		check func(t *testing.T, rep counterReport)
	}{
		{"combiner/marked", wc(true, true), nil},
		{"combiner/unmarked", wc(false, true), nil},
		{"no-combiner/marked", wc(true, false), nil},
		{"no-combiner/unmarked", wc(false, false), nil},
		{"comparator-without-raw-form", func(out string) *conf.JobConf {
			// A custom SortComparator and nothing else: no raw comparator,
			// no sort prefix. The serialized keys sort through the
			// deserializing fallback, on both engines.
			job := wc(true, false)(out)
			job.Set(conf.KeySortComparatorClass, "test.DescComparator")
			return job
		}, nil},
		{"pair-key", func(out string) *conf.JobConf {
			// Every distinct (group, order) key is a group of its own.
			return orderJob("/data/order", out, 3, "test.FreshOrderMapper")
		}, nil},
		{"secondary-sort/marked", func(out string) *conf.JobConf {
			job := orderJob("/data/order", out, 3, "test.FreshOrderMapper")
			job.Set(conf.KeyGroupingComparatorClass, "test.PairFirstGrouper")
			return job
		}, nil},
		{"secondary-sort/unmarked-reusing", func(out string) *conf.JobConf {
			job := orderJob("/data/order", out, 3, "test.OrderMapper")
			job.Set(conf.KeyGroupingComparatorClass, "test.PairFirstGrouper")
			return job
		}, nil},
		{"empty-partition", func(out string) *conf.JobConf {
			job := orderJob("/data/sparse", out, 4, "test.FreshOrderMapper")
			job.Set(conf.KeyGroupingComparatorClass, "test.PairFirstGrouper")
			return job
		}, nil},
		{"whole-output-co-located", func(out string) *conf.JobConf {
			// One partition, at place 0: a map task there ships nothing, a
			// map task at place 1 keeps nothing.
			job := orderJob("/data/order", out, 1, "test.OrderMapper")
			job.Set(conf.KeyGroupingComparatorClass, "test.PairFirstGrouper")
			return job
		}, func(t *testing.T, rep counterReport) {
			local := rep.Value(counters.M3RGroup, counters.LocalShufflePairs)
			remote := rep.Value(counters.M3RGroup, counters.RemoteShufflePairs)
			if local == 0 || remote == 0 || local+remote != 5*400 {
				t.Errorf("%d co-located pairs and %d remote of %d: want tasks of both kinds", local, remote, 5*400)
			}
		}},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := fmt.Sprintf("/out/c%02d", i)
			if _, err := c.Hadoop.Submit(tc.job(base + "/hadoop")); err != nil {
				t.Fatalf("hadoop: %v", err)
			}
			want := readRawParts(t, c.FS, base+"/hadoop")
			var bytesOut int
			for _, b := range want {
				bytesOut += len(b)
			}
			if bytesOut == 0 {
				t.Fatal("the reference run wrote nothing")
			}
			for _, leg := range []struct {
				name   string
				budget int64
				codec  string
			}{{"unbudgeted", -1, ""}, {"b4096", 4096, "none"}, {"b4096-flate", 4096, "flate"}} {
				job := tc.job(base + "/" + leg.name)
				job.SetInt64(conf.KeyM3RShuffleBudget, leg.budget)
				if leg.codec != "" {
					job.Set(conf.KeyM3RSpillCodec, leg.codec)
				}
				rep, err := c.M3R.Submit(job)
				if err != nil {
					t.Fatalf("m3r %s: %v", leg.name, err)
				}
				assertSameParts(t, leg.name, readRawParts(t, c.FS, base+"/"+leg.name), want)
				if leg.budget > 0 {
					if rep.Counters.Value(counters.M3RGroup, counters.SpilledRuns) == 0 {
						t.Errorf("%s: nothing spilled under a %d-byte budget", leg.name, leg.budget)
					}
					if tc.check != nil {
						tc.check(t, rep.Counters)
					}
				}
			}
			if held := c.M3R.ShufflePoolHeldBytes(); held != 0 {
				t.Errorf("pool holds %d bytes after the jobs", held)
			}
		})
	}
}

// counterReport is the part of counters.Counters the checks read.
type counterReport interface {
	Value(group, name string) int64
}
