package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/sim"
)

// span is one interval at a layer boundary. Spans are recorded from the
// benchmark's side of each boundary — around Submit, around the calls on a
// file handle, around each ladder call — never from inside the engines.
// All spans of one rep (or one ladder pass) share Trace.
type span struct {
	ID      int64              `json:"id"`
	Parent  int64              `json:"parent"` // 0 for a root
	Trace   int64              `json:"trace"`
	Layer   string             `json:"layer"`
	Name    string             `json:"name"`
	StartNs int64              `json:"start_ns"`
	EndNs   int64              `json:"end_ns"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`

	mu sync.Mutex // guards Attrs while the span is open
}

func (s *span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// add accumulates v into an attribute; file-handle spans are fed from
// whichever task goroutine holds the handle.
func (s *span) add(key string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]float64)
	}
	s.Attrs[key] += v
	s.mu.Unlock()
}

// capturedJob is a job conf seen by a traced Submit; the ladder replays
// the workload's shuffle-bearing job from it.
type capturedJob struct {
	engine string
	job    *conf.JobConf
}

// tracer holds every span in memory until the run ends. While off it
// records nothing, so the same cluster can run untraced reps for the
// overhead comparison.
type tracer struct {
	epoch  time.Time
	on     atomic.Bool
	nextID atomic.Int64

	mu    sync.Mutex
	spans []*span
	jobs  []capturedJob

	// The loop is closed with one sequence in flight, so "the rep that is
	// running" and "the job that is running on engine X" are single values.
	rep    atomic.Pointer[span]
	curJob map[string]*atomic.Pointer[span]
}

func newTracer() *tracer {
	return &tracer{
		epoch: time.Now(),
		curJob: map[string]*atomic.Pointer[span]{
			"hadoop": new(atomic.Pointer[span]),
			"m3r":    new(atomic.Pointer[span]),
		},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start opens a span under parent (nil for a root, which begins a new
// trace). It returns nil while the tracer is off; every span method
// accepts a nil receiver.
func (t *tracer) start(parent *span, layer, name string) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	s := &span{ID: t.nextID.Add(1), Layer: layer, Name: name}
	if parent != nil {
		s.Parent, s.Trace = parent.ID, parent.Trace
	} else {
		s.Trace = s.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	s.StartNs = t.now()
	return s
}

func (t *tracer) end(s *span) {
	if s != nil {
		s.EndNs = t.now()
	}
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := slices.Clone(t.spans)
	t.mu.Unlock()
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// children indexes spans by parent.
func children(spans []*span) map[int64][]*span {
	out := make(map[int64][]*span)
	for _, s := range spans {
		out[s.Parent] = append(out[s.Parent], s)
	}
	return out
}

// selfNs is a span's duration minus the part of it its children cover.
// Children may overlap each other (tasks at different places hold file
// handles at once), so the cover is the union of their intervals, clipped
// to the parent.
func selfNs(s *span, kids []*span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var cover, end int64
	for _, v := range ivs {
		if v.a > end {
			cover += v.b - v.a
			end = v.b
		} else if v.b > end {
			cover += v.b - end
			end = v.b
		}
	}
	return (s.EndNs - s.StartNs) - cover
}

// tracedEngine records a span per Submit, with the job's sim.Stats deltas
// and counters as attributes.
type tracedEngine struct {
	engine.Engine
	tr    *tracer
	stats *sim.Stats
}

func (e *tracedEngine) Submit(job *conf.JobConf) (*engine.Report, error) {
	sp := e.tr.start(e.tr.rep.Load(), e.Name(), job.JobName())
	if sp == nil {
		return e.Engine.Submit(job)
	}
	e.tr.mu.Lock()
	e.tr.jobs = append(e.tr.jobs, capturedJob{engine: e.Name(), job: job.CloneJob()})
	e.tr.mu.Unlock()
	cur := e.tr.curJob[e.Name()]
	cur.Store(sp)
	before := e.stats.Snapshot()
	cpu0 := cpuSeconds()
	rep, err := e.Engine.Submit(job)
	e.tr.end(sp)
	cur.Store(nil)
	sp.add("cpu_s", cpuSeconds()-cpu0)
	for k, v := range sim.Delta(before, e.stats.Snapshot()) {
		if v != 0 {
			sp.add("stats."+k, float64(v))
		}
	}
	if rep != nil {
		for _, g := range rep.Counters.Groups() {
			for _, c := range rep.Counters.GroupCounters(g) {
				sp.add(c.Name(), float64(c.Value()))
			}
		}
	}
	return rep, err
}

// tracedFS passes every call through to the filesystem underneath and
// records a span per file handle — open to close, with the bytes moved and
// the time spent inside Read/Write/Seek/Close calls — and the metadata
// operations and their time on the job span that issued them.
type tracedFS struct {
	dfs.FileSystem
	tr     *tracer
	engine string
}

// parent is the span file activity of this engine belongs to: the running
// job, else the running rep (the sequence's own deletes between jobs).
func (f *tracedFS) parent() *span {
	if sp := f.tr.curJob[f.engine].Load(); sp != nil {
		return sp
	}
	return f.tr.rep.Load()
}

func (f *tracedFS) meta(start time.Time) {
	if p := f.parent(); p != nil && f.tr.on.Load() {
		p.add("dfs.meta_ops", 1)
		p.add("dfs.meta_ns", float64(time.Since(start)))
	}
}

func (f *tracedFS) Create(path string) (io.WriteCloser, error) {
	return f.CreateOn(path, "")
}

func (f *tracedFS) CreateOn(path, host string) (io.WriteCloser, error) {
	sp := f.tr.start(f.parent(), "dfs", "write")
	start := time.Now()
	w, err := f.FileSystem.CreateOn(path, host)
	if err != nil || sp == nil {
		f.tr.end(sp)
		return w, err
	}
	sp.add("busy_ns", float64(time.Since(start)))
	return &tracedWriter{WriteCloser: w, tr: f.tr, sp: sp}, nil
}

func (f *tracedFS) Open(path string) (dfs.File, error) {
	sp := f.tr.start(f.parent(), "dfs", "read")
	start := time.Now()
	r, err := f.FileSystem.Open(path)
	if err != nil || sp == nil {
		f.tr.end(sp)
		return r, err
	}
	sp.add("busy_ns", float64(time.Since(start)))
	return &tracedFile{File: r, tr: f.tr, sp: sp}, nil
}

func (f *tracedFS) Delete(path string, recursive bool) error {
	defer f.meta(time.Now())
	return f.FileSystem.Delete(path, recursive)
}

func (f *tracedFS) Rename(src, dst string) error {
	defer f.meta(time.Now())
	return f.FileSystem.Rename(src, dst)
}

func (f *tracedFS) Mkdirs(path string) error {
	defer f.meta(time.Now())
	return f.FileSystem.Mkdirs(path)
}

func (f *tracedFS) Stat(path string) (dfs.FileStatus, error) {
	defer f.meta(time.Now())
	return f.FileSystem.Stat(path)
}

func (f *tracedFS) Exists(path string) bool {
	defer f.meta(time.Now())
	return f.FileSystem.Exists(path)
}

func (f *tracedFS) List(path string) ([]dfs.FileStatus, error) {
	defer f.meta(time.Now())
	return f.FileSystem.List(path)
}

func (f *tracedFS) BlockLocations(path string, start, length int64) ([]dfs.BlockLocation, error) {
	defer f.meta(time.Now())
	return f.FileSystem.BlockLocations(path, start, length)
}

type tracedWriter struct {
	io.WriteCloser
	tr *tracer
	sp *span
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.WriteCloser.Write(p)
	w.sp.add("busy_ns", float64(time.Since(start)))
	w.sp.add("bytes", float64(n))
	return n, err
}

func (w *tracedWriter) Close() error {
	start := time.Now()
	err := w.WriteCloser.Close()
	w.sp.add("busy_ns", float64(time.Since(start)))
	w.tr.end(w.sp)
	return err
}

type tracedFile struct {
	dfs.File
	tr *tracer
	sp *span
}

func (r *tracedFile) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.File.Read(p)
	r.sp.add("busy_ns", float64(time.Since(start)))
	r.sp.add("bytes", float64(n))
	return n, err
}

func (r *tracedFile) Seek(offset int64, whence int) (int64, error) {
	start := time.Now()
	n, err := r.File.Seek(offset, whence)
	r.sp.add("busy_ns", float64(time.Since(start)))
	return n, err
}

func (r *tracedFile) Close() error {
	start := time.Now()
	err := r.File.Close()
	r.sp.add("busy_ns", float64(time.Since(start)))
	r.tr.end(r.sp)
	return err
}
