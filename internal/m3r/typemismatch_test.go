package m3r

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/hadoop"
	"m3r/internal/mapred"
	"m3r/internal/sim"
	"m3r/internal/spill"
	"m3r/internal/types"
	"m3r/internal/wio"
	"m3r/internal/wordcount"
)

// oddMapper is WordCount's mapper, except that the word "odd" is emitted
// with a LongWritable key or value (test.odd.side) where the job declares
// Text and IntWritable.
type oddMapper struct {
	mapred.Base
	badKey bool
}

func (m *oddMapper) Configure(job *conf.JobConf) { m.badKey = job.Get("test.odd.side") == "key" }

func (m *oddMapper) Map(_, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	for _, tok := range bytes.Fields(value.(*types.Text).B) {
		var k, v wio.Writable = types.NewText(string(tok)), types.NewInt(1)
		if string(tok) == "odd" {
			if m.badKey {
				k = types.NewLong(7)
			} else {
				v = types.NewLong(0)
			}
		}
		if err := out.Collect(k, v); err != nil {
			return err
		}
	}
	return nil
}

func init() {
	mapred.RegisterMapper("test.OddMapper", func() mapred.Mapper { return &oddMapper{} })
}

// TestMapOutputTypeMismatch: a mapper that collects one pair of a class the
// job did not declare fails the job with Hadoop's collect error on every
// engine and budget, with or without a combiner — not with wrong output, not
// with a panic in a comparator or reducer — and the failed job leaves no
// output directory, no open spill stream, no pool bytes and no checked-out
// encode buffer behind.
func TestMapOutputTypeMismatch(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	backing, err := dfs.NewHDFS(dfs.HDFSOptions{Root: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := dfs.WriteFile(backing, "/in/odd", []byte("a b a\nc odd b\na c\n")); err != nil {
		t.Fatal(err)
	}
	stats := sim.NewStats()
	he, err := hadoop.New(hadoop.Options{FS: backing, LocalDir: t.TempDir(), Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	me, err := New(Options{Backing: backing, Places: 2, ShuffleBudgetBytes: 1 << 20, Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { he.Close(); me.Close() })

	legs := []struct {
		name   string
		eng    engine.Engine
		budget int64 // conf.KeyM3RShuffleBudget; 0 opts out of the engine pool
	}{
		{"hadoop", he, 0},
		{"m3r-unbudgeted", me, 0},
		{"m3r-budgeted", me, 4 << 10},
	}
	n := 0
	check := func(t *testing.T, job *conf.JobConf, eng engine.Engine, want string) {
		t.Helper()
		out := job.OutputPath()
		streamBase, bufBase := spill.OpenStreamCount(), encodeBufsOut.Load()
		_, err := eng.Submit(job)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("error %v, want one that says %q", err, want)
		}
		if backing.Exists(out) || me.CachingFS().Exists(out) {
			t.Errorf("the failed job left %s behind", out)
		}
		if got := spill.OpenStreamCount(); got != streamBase {
			t.Errorf("OpenStreamCount %d, baseline %d", got, streamBase)
		}
		if got := encodeBufsOut.Load(); got != bufBase {
			t.Errorf("encode buffers out %d, baseline %d", got, bufBase)
		}
		if held := me.ShufflePoolHeldBytes(); held != 0 {
			t.Errorf("pool holds %d bytes after the failed job", held)
		}
	}
	for _, side := range []string{"key", "value"} {
		want := "Type mismatch in key from map: expected " + types.TextName + ", received " + types.LongName
		if side == "value" {
			want = "Type mismatch in value from map: expected " + types.IntName + ", received " + types.LongName
		}
		for _, combine := range []bool{false, true} {
			for _, leg := range legs {
				t.Run(fmt.Sprintf("%s/combine=%v/%s", side, combine, leg.name), func(t *testing.T) {
					n++
					out := fmt.Sprintf("/out/odd%d", n)
					job := conf.NewJob()
					job.SetInputFormatClass(formats.TextInputFormatName)
					job.AddInputPath("/in/odd")
					job.SetOutputPath(out)
					job.SetNumReduceTasks(2)
					job.SetMapperClass("test.OddMapper")
					job.SetReducerClass(wordcount.SumReducerName)
					if combine {
						job.SetCombinerClass(wordcount.SumReducerName)
					}
					job.SetMapOutputKeyClass(types.TextName)
					job.SetMapOutputValueClass(types.IntName)
					job.SetOutputKeyClass(types.TextName)
					job.SetOutputValueClass(types.IntName)
					job.Set("test.odd.side", side)
					job.SetInt64(conf.KeyM3RShuffleBudget, leg.budget)
					check(t, job, leg.eng, want)
				})
			}
		}
	}
	// A job that declares no value class: the task's first pair fixes it,
	// and a second class fails the job on either budget — the unbudgeted
	// shuffle's remote pairs are bytes of one class until they arrive, as a
	// budgeted one's are. The Hadoop engine refuses such a job outright.
	for _, leg := range legs {
		t.Run("value/undeclared/"+leg.name, func(t *testing.T) {
			n++
			job := conf.NewJob()
			job.SetInputFormatClass(formats.TextInputFormatName)
			job.AddInputPath("/in/odd")
			job.SetOutputPath(fmt.Sprintf("/out/odd%d", n))
			job.SetNumReduceTasks(2)
			job.SetMapperClass("test.OddMapper")
			job.SetReducerClass(wordcount.SumReducerName)
			job.SetMapOutputKeyClass(types.TextName)
			job.SetOutputKeyClass(types.TextName)
			job.Set("test.odd.side", "value")
			job.SetInt64(conf.KeyM3RShuffleBudget, leg.budget)
			want := "Type mismatch in value from map: expected " + types.IntName + ", received " + types.LongName
			if leg.eng == engine.Engine(he) {
				want = "needs map output key/value classes"
			}
			check(t, job, leg.eng, want)
		})
	}
}
