package integration_test

import (
	"bytes"
	"fmt"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/counters"
	"m3r/internal/lab"
	"m3r/internal/mapred"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// The jobs a budgeted M3R run cannot merge on prefixes alone, held to both
// oracles: a sort comparator with no raw form (keys are decoded at the
// merge's leaves and compared as objects) and a secondary sort (records
// order on the whole key; a named grouping comparator, with a raw form and
// without, cuts groups on its first two bytes, across sort prefixes).

// plainTextOrder is Text's byte order with no raw form and no prefix.
type plainTextOrder struct{}

func (plainTextOrder) Compare(a, b wio.Writable) int {
	return bytes.Compare(a.(*types.Text).B, b.(*types.Text).B)
}

func head2(b []byte) []byte { return b[:min(2, len(b))] }

// head2Grouping groups Text keys by their first two bytes.
type head2Grouping struct{}

func (head2Grouping) Compare(a, b wio.Writable) int {
	return bytes.Compare(head2(a.(*types.Text).B), head2(b.(*types.Text).B))
}

// head2RawGrouping is head2Grouping with a raw form: a serialized Text of
// under 128 bytes is one length byte and the bytes.
type head2RawGrouping struct{ head2Grouping }

func (head2RawGrouping) CompareRaw(a, b []byte) int { return bytes.Compare(head2(a[1:]), head2(b[1:])) }

// head2Partitioner keeps a group in one partition: FNV-1a of the two bytes.
type head2Partitioner struct{}

func (head2Partitioner) Configure(*conf.JobConf) {}

func (head2Partitioner) GetPartition(key, _ wio.Writable, numPartitions int) int {
	return int(wio.HashBytes(head2(key.(*types.Text).B)) % uint32(numPartitions))
}

func init() {
	mapred.RegisterComparator("test.raw.PlainTextOrder", func() wio.Comparator { return plainTextOrder{} })
	mapred.RegisterComparator("test.raw.Head2Grouping", func() wio.Comparator { return head2Grouping{} })
	mapred.RegisterComparator("test.raw.Head2RawGrouping", func() wio.Comparator { return head2RawGrouping{} })
	mapred.RegisterPartitioner("test.raw.Head2Partitioner", func() mapred.Partitioner { return head2Partitioner{} })
}

func TestRawReduceOrderEquivalence(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 3})
	orderInput(t, c.FS, "/in/order")
	const R = 3
	whole := func(k []byte) []byte { return k }
	cases := []struct {
		name    string
		set     func(job *conf.JobConf)
		groupOf func(k []byte) []byte
	}{
		{"sort-comparator-without-raw-form", func(job *conf.JobConf) {
			job.Set(conf.KeySortComparatorClass, "test.raw.PlainTextOrder")
		}, whole},
		{"secondary-sort/raw-grouping", func(job *conf.JobConf) {
			job.Set(conf.KeyGroupingComparatorClass, "test.raw.Head2RawGrouping")
			job.SetPartitionerClass("test.raw.Head2Partitioner")
		}, head2},
		{"secondary-sort/plain-grouping", func(job *conf.JobConf) {
			job.Set(conf.KeyGroupingComparatorClass, "test.raw.Head2Grouping")
			job.SetPartitionerClass("test.raw.Head2Partitioner")
		}, head2},
	}
	for i, tc := range cases {
		for _, mapper := range []string{"test.order.ReusingMapper", "test.order.FreshMapper"} {
			t.Run(tc.name+"/"+mapper, func(t *testing.T) {
				build := func(out string) *conf.JobConf {
					job := conf.NewJob()
					job.SetJobName("raw-" + tc.name)
					job.AddInputPath("/in/order")
					job.SetOutputPath(out)
					job.SetNumReduceTasks(R)
					job.SetMapperClass(mapper)
					job.SetReducerClass("test.order.concat")
					job.SetMapOutputKeyClass(types.TextName)
					job.SetMapOutputValueClass(types.TextName)
					job.SetOutputKeyClass(types.TextName)
					job.SetOutputValueClass(types.TextName)
					tc.set(job)
					return job
				}
				base := fmt.Sprintf("/out/raw/%d/%s", i, mapper)
				hJob := build(base + "/hadoop")
				hJob.SetInt(conf.KeySortBytes, 4096) // several spills a map task
				if _, err := c.Hadoop.Submit(hJob); err != nil {
					t.Fatalf("hadoop: %v", err)
				}
				want := readRawParts(t, c.FS, base+"/hadoop")
				assertSameParts(t, "hadoop vs reference", want,
					orderReferenceBy(t, c.FS, "/in/order", tc.groupOf, orderFolds["identity"], orderFolds["concat"], R))
				for _, codec := range []string{"none", "flate"} {
					job := build(base + "/m3r-" + codec)
					job.SetInt64(conf.KeyM3RShuffleBudget, 8192)
					job.Set(conf.KeyM3RSpillCodec, codec)
					rep, err := c.M3R.Submit(job)
					if err != nil {
						t.Fatalf("m3r %s: %v", codec, err)
					}
					assertSameParts(t, "m3r "+codec, readRawParts(t, c.FS, base+"/m3r-"+codec), want)
					if rep.Counters.Value(counters.M3RGroup, counters.SpilledRuns) == 0 {
						t.Errorf("m3r %s: nothing spilled under an 8 KiB budget", codec)
					}
				}
			})
		}
	}
}
