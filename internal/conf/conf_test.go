package conf_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"m3r/internal/conf"
	"m3r/internal/wio"
)

func TestBasicAccessors(t *testing.T) {
	c := conf.New()
	c.Set("a", "1")
	c.SetInt("b", 42)
	c.SetInt64("c", 1<<40)
	c.SetBool("d", true)
	c.SetFloat("e", 2.5)
	c.SetStrings("f", "x", "y", "z")

	if c.Get("a") != "1" {
		t.Error("Get a")
	}
	if c.GetInt("b", 0) != 42 {
		t.Error("GetInt")
	}
	if c.GetInt64("c", 0) != 1<<40 {
		t.Error("GetInt64")
	}
	if !c.GetBool("d", false) {
		t.Error("GetBool")
	}
	if c.GetFloat("e", 0) != 2.5 {
		t.Error("GetFloat")
	}
	if got := c.GetStrings("f"); len(got) != 3 || got[1] != "y" {
		t.Errorf("GetStrings: %v", got)
	}
	if c.GetInt("missing", 7) != 7 {
		t.Error("default int")
	}
	if c.GetDefault("missing", "dflt") != "dflt" {
		t.Error("default string")
	}
	if !c.Has("a") || c.Has("missing") {
		t.Error("Has")
	}
	c.Unset("a")
	if c.Has("a") {
		t.Error("Unset")
	}
	if c.GetInt("f", 9) != 9 {
		t.Error("malformed int should return default")
	}
}

func TestCloneIsolation(t *testing.T) {
	c := conf.New()
	c.Set("k", "v")
	d := c.Clone()
	d.Set("k", "other")
	if c.Get("k") != "v" {
		t.Error("clone mutated original")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	c := conf.New()
	c.Set("one", "1")
	c.Set("two", "2")
	var buf bytes.Buffer
	if err := c.WriteTo(wio.NewWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	d := conf.New()
	if err := d.ReadFields(wio.NewReader(&buf)); err != nil {
		t.Fatal(err)
	}
	if d.Get("one") != "1" || d.Get("two") != "2" || d.Len() != 2 {
		t.Errorf("round trip lost data: %s", d)
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := conf.New()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.SetInt("key", i)
				_ = c.GetInt("key", 0)
				_ = c.Names()
			}
		}(i)
	}
	wg.Wait()
}

func TestJobConfHelpers(t *testing.T) {
	j := conf.NewJob()
	j.SetJobName("test-job")
	j.SetNumReduceTasks(7)
	j.AddInputPath("/a")
	j.AddInputPath("/b")
	j.SetOutputPath("/out")
	j.SetMapperClass("M")
	j.SetReducerClass("R")

	if j.JobName() != "test-job" {
		t.Error("JobName")
	}
	if j.NumReduceTasks() != 7 {
		t.Error("NumReduceTasks")
	}
	if got := j.InputPaths(); len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Errorf("InputPaths: %v", got)
	}
	if j.OutputPath() != "/out" {
		t.Error("OutputPath")
	}
	empty := conf.NewJob()
	if empty.NumReduceTasks() != 1 {
		t.Error("default reducers should be 1")
	}
	if empty.JobName() != "(unnamed)" {
		t.Error("default job name")
	}
}

func TestMapOutputClassFallback(t *testing.T) {
	j := conf.NewJob()
	j.SetOutputKeyClass("K")
	j.SetOutputValueClass("V")
	if j.MapOutputKeyClass() != "K" || j.MapOutputValueClass() != "V" {
		t.Error("map output classes should fall back to job output classes")
	}
	j.SetMapOutputKeyClass("MK")
	if j.MapOutputKeyClass() != "MK" {
		t.Error("explicit map output key class wins")
	}
}

// TestIsTemporaryOutput covers the §4.2.3 temporary-output conventions.
func TestIsTemporaryOutput(t *testing.T) {
	j := conf.NewJob()
	if !j.IsTemporaryOutput("/data/temp_iteration1") {
		t.Error("default prefix should match")
	}
	if j.IsTemporaryOutput("/data/output1") {
		t.Error("non-prefixed path is not temporary")
	}
	if j.IsTemporaryOutput("/temp/output") {
		t.Error("prefix applies to the base name only")
	}
	// Custom prefix via configuration.
	j.Set(conf.KeyTempPrefix, "scratch")
	if !j.IsTemporaryOutput("/data/scratch5") || j.IsTemporaryOutput("/data/temp5") {
		t.Error("custom prefix not honoured")
	}
	// Explicit list.
	j2 := conf.NewJob()
	j2.SetStrings(conf.KeyTempPaths, "/exact/path")
	if !j2.IsTemporaryOutput("/exact/path") {
		t.Error("explicit temp path list not honoured")
	}
	// Paths that name the same directory are the same output.
	for _, tc := range []struct {
		j    *conf.JobConf
		path string
	}{
		{conf.NewJob(), "/data/temp_x/"},
		{conf.NewJob(), "/data/temp_x/."},
		{conf.NewJob(), "/data//temp_x"},
		{j2, "/exact/path/"},
		{j2, "/exact//path"},
	} {
		if !tc.j.IsTemporaryOutput(tc.path) {
			t.Errorf("IsTemporaryOutput(%q) = false, want true", tc.path)
		}
	}
	j3 := conf.NewJob()
	j3.SetStrings(conf.KeyTempPaths, "/exact/path/")
	if !j3.IsTemporaryOutput("/exact/path") || j3.IsTemporaryOutput("/exact/path2") {
		t.Error("an explicit entry with a trailing slash names its directory and nothing else")
	}
	if conf.NewJob().IsTemporaryOutput("/data/temp_x/out") || conf.NewJob().IsTemporaryOutput("/data/temp_x/..") {
		t.Error("only the last element of the cleaned path is the base name")
	}
}

// TestDefaultsPrecedence pins the one rule every knob follows: an explicit
// value — an explicit 0 included — beats the DefaultsEnv carrier, which
// beats the built-in default; engine-scoped keys ride the same carrier for
// m3r.New to read; and a malformed carrier is an error naming the field,
// never a silently unconfigured run.
func TestDefaultsPrecedence(t *testing.T) {
	const builtin = 7
	carrier := conf.KeyM3RShuffleBudget + "=4096"
	for _, tc := range []struct {
		name, env, explicit string
		want                int64
		wantErr             string
	}{
		{name: "built-in default", want: builtin},
		{name: "carrier beats built-in", env: carrier, want: 4096},
		{name: "explicit beats carrier", env: carrier, explicit: "128", want: 128},
		{name: "explicit zero beats carrier", env: carrier, explicit: "0", want: 0},
		{name: "fields split on any whitespace", want: 4096,
			env: "  " + conf.KeyM3RSpillCodec + "=flate\n\t" + carrier + " " + conf.KeyM3REngineShuffleBudget + "=65536 "},
		{name: "field without =", env: carrier + " " + conf.KeyM3RSpillCodec, wantErr: conf.KeyM3RSpillCodec},
		{name: "empty key", env: "=4096", wantErr: `"=4096"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Setenv(conf.DefaultsEnv, tc.env)
			d, err := conf.EnvDefaults()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("EnvDefaults(%q) error = %v, want one naming %s", tc.env, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			job := conf.NewJob()
			if tc.explicit != "" {
				job.Set(conf.KeyM3RShuffleBudget, tc.explicit)
			}
			job.SetDefaults(d)
			if got := job.GetInt64(conf.KeyM3RShuffleBudget, builtin); got != tc.want {
				t.Errorf("%s = %d, want %d", conf.KeyM3RShuffleBudget, got, tc.want)
			}
			if strings.Contains(tc.env, conf.KeyM3REngineShuffleBudget) {
				if got := d.Get(conf.KeyM3REngineShuffleBudget); got != "65536" {
					t.Errorf("engine-scoped %s = %q in the carrier, want 65536", conf.KeyM3REngineShuffleBudget, got)
				}
			}
		})
	}
}

// TestReadFieldsBoundsTheEntryCount: an input of at most 12 bytes that
// claims 2²⁰ or 2⁴⁰ entries is an error in both reader modes, and the claim
// is not what sizes the map. (2⁴⁰ is past what the runtime would presize a
// map for at all; 2²⁰ is a claim it would have honoured.)
func TestReadFieldsBoundsTheEntryCount(t *testing.T) {
	for _, claim := range []uint64{1 << 20, 1 << 40} {
		var w wio.Writer
		w.WriteUvarint(claim)
		w.WriteString("k")
		w.WriteString("v")
		in := w.Bytes()
		for _, mode := range []string{"slice", "stream"} {
			r := wio.NewReader(bytes.NewReader(in))
			if mode == "slice" {
				r.ResetBytes(in)
			}
			var err error
			allocated := allocatedBy(func() { err = conf.New().ReadFields(r) })
			if err == nil {
				t.Errorf("%s mode: a %d-byte input claiming %d entries was accepted", mode, len(in), claim)
			}
			if allocated > 1<<20 {
				t.Errorf("%s mode: ReadFields allocated %d bytes for a %d-byte input claiming %d entries", mode, allocated, len(in), claim)
			}
		}
	}
}

// allocatedBy reports the bytes the process allocated while f ran.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// BenchmarkConfClone copies a job configuration of 100 properties, about
// what a submitted job carries once the engine has filled in its keys.
func BenchmarkConfClone(b *testing.B) {
	c := conf.New()
	for i := range 100 {
		c.Set(fmt.Sprintf("mapred.property.%03d", i), strconv.Itoa(i))
	}
	b.ReportAllocs()
	for b.Loop() {
		c.Clone()
	}
}
