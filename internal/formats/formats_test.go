package formats_test

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/sim"
	"m3r/internal/types"
	"m3r/internal/wio"
)

// newJobFS creates a small simulated HDFS and a JobConf bound to it.
func newJobFS(t *testing.T, blockSize int64) (*conf.JobConf, *dfs.HDFS, func()) {
	t.Helper()
	fs, err := dfs.NewHDFS(dfs.HDFSOptions{
		Root:      t.TempDir(),
		Hosts:     []string{"node0", "node1"},
		BlockSize: blockSize,
		Stats:     sim.NewStats(),
	})
	if err != nil {
		t.Fatal(err)
	}
	id := dfs.RegisterInstance(fs)
	job := conf.NewJob()
	job.Set(conf.KeyFSInstance, id)
	return job, fs, func() { dfs.DropInstance(id) }
}

func TestSplitName(t *testing.T) {
	fsplit := &formats.FileSplit{Path: "/data/f", Start: 100, Len: 50}
	name, ok := formats.SplitName(fsplit)
	if !ok || name != "/data/f:100+50" {
		t.Errorf("file split name: %q ok=%v", name, ok)
	}
	tagged := &formats.TaggedInputSplit{Base: fsplit, InputFormatName: "F", MapperName: "M"}
	name, ok = formats.SplitName(tagged)
	if !ok || name != "/data/f:100+50" {
		t.Errorf("tagged split should delegate naming: %q ok=%v", name, ok)
	}
	_, ok = formats.SplitName(unnameableSplit{})
	if ok {
		t.Error("unnameable split must report !ok")
	}
}

type unnameableSplit struct{}

func (unnameableSplit) Length() int64       { return 0 }
func (unnameableSplit) Locations() []string { return nil }

// TestLineReaderSplitReassembly is the classic correctness property: for
// any content and any split boundaries, the union of all splits' records
// equals the file's lines, each exactly once.
func TestLineReaderSplitReassembly(t *testing.T) {
	_, fs, cleanup := newJobFS(t, 64)
	defer cleanup()

	fileSeq := 0
	check := func(lines []string, nSplits int) error {
		content := strings.Join(lines, "\n")
		if len(lines) > 0 {
			content += "\n"
		}
		fileSeq++
		path := fmt.Sprintf("/t/f%d", fileSeq)
		if err := dfs.WriteFile(fs, path, []byte(content)); err != nil {
			return err
		}
		size := int64(len(content))
		if size == 0 {
			return nil
		}
		splitSize := size / int64(nSplits)
		if splitSize < 1 {
			splitSize = 1
		}
		var got []string
		for off := int64(0); off < size; off += splitSize {
			l := splitSize
			if off+l > size {
				l = size - off
			}
			rr, err := formats.NewLineRecordReader(fs, &formats.FileSplit{Path: path, Start: off, Len: l})
			if err != nil {
				return err
			}
			k, v := rr.CreateKey(), rr.CreateValue()
			for {
				ok, err := rr.Next(k, v)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				got = append(got, v.(*types.Text).String())
			}
			rr.Close()
		}
		if len(got) != len(lines) {
			return fmt.Errorf("got %d lines, want %d (splits=%d)", len(got), len(lines), nSplits)
		}
		for i := range lines {
			if got[i] != lines[i] {
				return fmt.Errorf("line %d: got %q want %q", i, got[i], lines[i])
			}
		}
		return nil
	}

	// Deterministic edge cases.
	for _, tc := range []struct {
		lines   []string
		nSplits int
	}{
		{[]string{"a"}, 1},
		{[]string{"a", "b", "c"}, 2},
		{[]string{"", "", ""}, 2},
		{[]string{strings.Repeat("x", 200)}, 4},
		{[]string{"one", strings.Repeat("y", 100), "three", ""}, 3},
	} {
		if err := check(tc.lines, tc.nSplits); err != nil {
			t.Errorf("case %v: %v", tc.lines, err)
		}
	}

	// Randomized property.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := rng.Intn(40)
		lines := make([]string, n)
		for i := range lines {
			lines[i] = strings.Repeat("w", rng.Intn(50))
		}
		nSplits := 1 + rng.Intn(6)
		if err := check(lines, nSplits); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestTextInputFormatSplitsAndLocality(t *testing.T) {
	job, fs, cleanup := newJobFS(t, 64)
	defer cleanup()
	data := strings.Repeat("hello world\n", 30) // ~360 bytes, 6 blocks
	if err := dfs.WriteFile(fs, "/in/f", []byte(data)); err != nil {
		t.Fatal(err)
	}
	job.AddInputPath("/in")
	tif := &formats.TextInputFormat{}
	splits, err := tif.GetSplits(job, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) < 6 {
		t.Errorf("expected at least one split per block, got %d", len(splits))
	}
	var total int64
	for _, s := range splits {
		total += s.Length()
		if len(s.Locations()) == 0 {
			t.Error("split without locality")
		}
	}
	if total != int64(len(data)) {
		t.Errorf("split lengths sum to %d, want %d", total, len(data))
	}
}

func TestTextOutputFormat(t *testing.T) {
	job, fs, cleanup := newJobFS(t, 1024)
	defer cleanup()
	job.SetOutputPath("/out")
	tof := &formats.TextOutputFormat{}
	if err := tof.CheckOutputSpecs(job); err != nil {
		t.Fatalf("check: %v", err)
	}
	w, err := tof.GetRecordWriter(job, "part-00000")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(types.NewText("k"), types.NewInt(3))
	w.Write(types.NewText("x"), types.NewText("y z"))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := dfs.ReadAll(fs, "/out/part-00000")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "k\t3\nx\ty z\n" {
		t.Errorf("output: %q", got)
	}
	// Existing output rejected.
	if err := tof.CheckOutputSpecs(job); err == nil {
		t.Error("existing output dir must be rejected")
	}
	// Custom separator.
	job2 := job.CloneJob()
	job2.SetOutputPath("/out2")
	job2.Set(formats.KeyTextSeparator, ",")
	w2, _ := tof.GetRecordWriter(job2, "part-00000")
	w2.Write(types.NewText("a"), types.NewInt(1))
	w2.Close()
	got2, _ := dfs.ReadAll(fs, "/out2/part-00000")
	if string(got2) != "a,1\n" {
		t.Errorf("custom separator: %q", got2)
	}
}

func seqPairs(n int) []wio.Pair {
	ps := make([]wio.Pair, n)
	for i := range ps {
		ps[i] = wio.Pair{
			Key:   types.NewInt(int32(i)),
			Value: types.NewText(strings.Repeat("v", i%37) + fmt.Sprint(i)),
		}
	}
	return ps
}

func TestSeqFileRoundTrip(t *testing.T) {
	_, fs, cleanup := newJobFS(t, 1<<20)
	defer cleanup()
	ps := seqPairs(500)
	if err := formats.WriteSeqFile(fs, "/s", types.IntName, types.TextName, ps); err != nil {
		t.Fatal(err)
	}
	got, err := formats.ReadSeqFileAll(fs, "/s")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ps) {
		t.Fatalf("got %d records, want %d", len(got), len(ps))
	}
	for i := range ps {
		if !wio.Equal(got[i].Key, ps[i].Key) || !wio.Equal(got[i].Value, ps[i].Value) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

// TestSeqFileSplitReassembly: any byte-range partition of a SequenceFile
// yields each record exactly once across splits.
func TestSeqFileSplitReassembly(t *testing.T) {
	_, fs, cleanup := newJobFS(t, 1<<20)
	defer cleanup()
	ps := seqPairs(800)
	// A few records several splits long: a split that lies wholly inside one
	// finds its first sync marker past its own end and must read nothing,
	// not the records behind that marker a second time.
	for i := 100; i < len(ps); i += 250 {
		ps[i].Value = types.NewText(strings.Repeat("long", 5000))
	}
	if err := formats.WriteSeqFile(fs, "/s", types.IntName, types.TextName, ps); err != nil {
		t.Fatal(err)
	}
	st, _ := fs.Stat("/s")

	check := func(nSplits int64) error {
		splitSize := st.Size / nSplits
		if splitSize < 1 {
			splitSize = 1
		}
		seen := make(map[int32]int)
		for off := int64(0); off < st.Size; off += splitSize {
			l := splitSize
			if off+l > st.Size {
				l = st.Size - off
			}
			sr, err := formats.NewSeqReader(fs, "/s", off, l)
			if err != nil {
				return err
			}
			k, v := &types.IntWritable{}, &types.Text{}
			for {
				ok, err := sr.Next(k, v)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				seen[k.Get()]++
			}
			sr.Close()
		}
		if len(seen) != len(ps) {
			return fmt.Errorf("nSplits=%d: saw %d distinct keys, want %d", nSplits, len(seen), len(ps))
		}
		for k, c := range seen {
			if c != 1 {
				return fmt.Errorf("nSplits=%d: key %d seen %d times", nSplits, k, c)
			}
		}
		return nil
	}
	for _, n := range []int64{1, 2, 3, 5, 8, 13, 40, 97} {
		if err := check(n); err != nil {
			t.Error(err)
		}
	}
}

func TestSeqFileHeaderValidation(t *testing.T) {
	_, fs, cleanup := newJobFS(t, 1<<20)
	defer cleanup()
	dfs.WriteFile(fs, "/junk", []byte("this is not a sequence file at all"))
	if _, err := formats.NewSeqReader(fs, "/junk", 0, -1); err == nil {
		t.Error("junk file must be rejected")
	}
	if err := formats.WriteSeqFile(fs, "/ok", types.IntName, types.TextName, seqPairs(3)); err != nil {
		t.Fatal(err)
	}
	sr, err := formats.NewSeqReader(fs, "/ok", 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if sr.KeyClass() != types.IntName || sr.ValClass() != types.TextName {
		t.Errorf("header classes: %s/%s", sr.KeyClass(), sr.ValClass())
	}
	sr.Close()
}

func TestFileOutputCommitter(t *testing.T) {
	job, fs, cleanup := newJobFS(t, 1024)
	defer cleanup()
	job.SetOutputPath("/out")
	c := formats.NewFileOutputCommitter(fs)
	if err := c.SetupJob(job); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/out/_temporary") {
		t.Fatal("scratch dir missing")
	}

	taskJob := job.CloneJob()
	c.SetupTask(taskJob, "attempt_1")
	w, err := fs.Create(formats.TaskOutputPath(taskJob, "part-00000"))
	if err != nil {
		t.Fatal(err)
	}
	w.Write([]byte("data"))
	w.Close()
	if fs.Exists("/out/part-00000") {
		t.Fatal("file visible before commit")
	}
	if err := c.CommitTask(taskJob, "attempt_1"); err != nil {
		t.Fatal(err)
	}
	if !fs.Exists("/out/part-00000") {
		t.Fatal("file missing after commit")
	}

	// A second, aborted attempt leaves no trace.
	taskJob2 := job.CloneJob()
	c.SetupTask(taskJob2, "attempt_2")
	w2, _ := fs.Create(formats.TaskOutputPath(taskJob2, "part-00001"))
	w2.Write([]byte("junk"))
	w2.Close()
	if err := c.AbortTask(taskJob2, "attempt_2"); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/out/part-00001") {
		t.Fatal("aborted output leaked")
	}

	if err := c.CommitJob(job); err != nil {
		t.Fatal(err)
	}
	if fs.Exists("/out/_temporary") {
		t.Error("scratch dir not cleaned")
	}
	if !fs.Exists("/out/_SUCCESS") {
		t.Error("_SUCCESS marker missing")
	}
}

func TestDelegatingInputFormat(t *testing.T) {
	job, fs, cleanup := newJobFS(t, 1<<20)
	defer cleanup()
	dfs.WriteFile(fs, "/in1/f", []byte("a b\n"))
	formats.WriteSeqFile(fs, "/in2/f", types.IntName, types.TextName, seqPairs(3))

	formats.AddMultipleInput(job, "/in1", formats.TextInputFormatName, "MapperA")
	formats.AddMultipleInput(job, "/in2", formats.SequenceFileInputFormatName, "MapperB")
	if job.Get(conf.KeyInputFormatClass) != formats.DelegatingInputFormatName {
		t.Fatal("input format not switched")
	}
	dif := &formats.DelegatingInputFormat{}
	splits, err := dif.GetSplits(job, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 2 {
		t.Fatalf("splits: %d", len(splits))
	}
	mappers := map[string]bool{}
	for _, s := range splits {
		tag := s.(*formats.TaggedInputSplit)
		mappers[tag.MapperName] = true
		rr, err := dif.GetRecordReader(tag, job)
		if err != nil {
			t.Fatalf("reader for %s: %v", tag.MapperName, err)
		}
		k, v := rr.CreateKey(), rr.CreateValue()
		ok, err := rr.Next(k, v)
		if err != nil || !ok {
			t.Fatalf("first record: ok=%v err=%v", ok, err)
		}
		rr.Close()
	}
	if !mappers["MapperA"] || !mappers["MapperB"] {
		t.Errorf("mapper routing: %v", mappers)
	}
}

func TestPairReaderContract(t *testing.T) {
	ps := seqPairs(5)
	pr, err := formats.NewPairReader(ps, types.IntName, types.TextName)
	if err != nil {
		t.Fatal(err)
	}
	k, v := pr.CreateKey(), pr.CreateValue()
	count := 0
	for {
		ok, err := pr.Next(k, v)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		// The holders must be copies, not aliases of the stored pairs.
		if wio.Writable(k) == ps[count].Key {
			t.Fatal("PairReader aliased stored pair")
		}
		if !wio.Equal(k, ps[count].Key) {
			t.Fatalf("record %d key mismatch", count)
		}
		count++
	}
	if count != 5 {
		t.Errorf("records: %d", count)
	}
	if pr.Progress() != 1 {
		t.Error("progress at end should be 1")
	}
}

func TestFSResolution(t *testing.T) {
	job := conf.NewJob()
	if _, err := formats.FS(job); err == nil {
		t.Error("missing fs instance should error")
	}
	job.Set(conf.KeyFSInstance, "nonexistent-id")
	if _, err := formats.FS(job); err == nil {
		t.Error("unknown fs instance should error")
	}
}

// quick-check that FileSplits covers every input byte exactly once.
func TestFileSplitsCoverage(t *testing.T) {
	job, fs, cleanup := newJobFS(t, 128)
	defer cleanup()
	f := func(sz uint16, hint uint8) bool {
		size := int64(sz%5000) + 1
		path := fmt.Sprintf("/cov/f%d_%d", size, hint)
		if err := dfs.WriteFile(fs, path, make([]byte, size)); err != nil {
			return false
		}
		sub := job.CloneJob()
		sub.Set(conf.KeyInputPaths, path)
		splits, err := formats.FileSplits(sub, int(hint%8)+1)
		if err != nil {
			return false
		}
		covered := make(map[int64]bool)
		for _, s := range splits {
			fs := s.(*formats.FileSplit)
			for b := fs.Start; b < fs.Start+fs.Len; b++ {
				if covered[b] {
					return false // overlap
				}
				covered[b] = true
			}
		}
		return int64(len(covered)) == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestListInputFilesSkipsBookkeeping(t *testing.T) {
	job, fs, cleanup := newJobFS(t, 1024)
	defer cleanup()
	dfs.WriteFile(fs, "/in/part-00000", []byte("x\n"))
	dfs.WriteFile(fs, "/in/_SUCCESS", nil)
	fs.Mkdirs("/in/_temporary")
	job.AddInputPath("/in")
	files, err := formats.ListInputFiles(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || dfs.Base(files[0].Path) != "part-00000" {
		t.Errorf("files: %+v", files)
	}
	if _, err := formats.ListInputFiles(conf.NewJob()); err == nil {
		t.Error("no input paths should error")
	}
	bad := job.CloneJob()
	bad.Set(conf.KeyInputPaths, "/missing")
	if _, err := formats.ListInputFiles(bad); !errors.Is(err, dfs.ErrNotFound) {
		t.Errorf("missing input: %v", err)
	}
}
