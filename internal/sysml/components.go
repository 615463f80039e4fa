package sysml

import (
	"fmt"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/formats"
	"m3r/internal/hmrext"
	"m3r/internal/mapred"
	"m3r/internal/matrix"
	"m3r/internal/wio"
)

// Registered component names. None of them carry the ImmutableOutput
// marker — the SystemML compiler of the paper emitted marker-free code
// (§6.4), so M3R clones their output defensively.
const (
	PassMapper0Name   = "sysml.mapred.PassMapper0"
	PassMapper1Name   = "sysml.mapred.PassMapper1"
	PassMapper2Name   = "sysml.mapred.PassMapper2"
	BcastMapper0Name  = "sysml.mapred.BcastMapper0"
	BcastMapper1Name  = "sysml.mapred.BcastMapper1"
	RekeyMapperName   = "sysml.mapred.RekeyMapper"
	ScaleMapperName   = "sysml.mapred.ScaleMapper"
	SideMulMapperName = "sysml.mapred.SideMulMapper"

	CombineReducerName = "sysml.mapred.CombineReducer"
	SumReducerName     = "sysml.mapred.SumReducer"
	GramReducerName    = "sysml.mapred.GramReducer"
	ElemReducerName    = "sysml.mapred.ElemReducer"
	DotReducerName     = "sysml.mapred.DotReducer"
)

// Configuration keys for the generic components.
const (
	KeyBcastMode = "sysml.bcast.mode" // "col", "row", or "colkeep"
	KeyBcastN    = "sysml.bcast.n"
	KeyOp        = "sysml.op"
	KeyAlpha     = "sysml.alpha"
	KeyBeta      = "sysml.beta"
	KeyRekeyMode = "sysml.rekey" // "col0", "row0", "tcol0", "zero"
	KeySidePath  = "sysml.side.path"
	KeySideMode  = "sysml.side.mode" // "left" or "right"
)

func init() {
	mapred.RegisterMapper(PassMapper0Name, func() mapred.Mapper { return &PassMapper{tag: 0} })
	mapred.RegisterMapper(PassMapper1Name, func() mapred.Mapper { return &PassMapper{tag: 1} })
	mapred.RegisterMapper(PassMapper2Name, func() mapred.Mapper { return &PassMapper{tag: 2} })
	mapred.RegisterMapper(BcastMapper0Name, func() mapred.Mapper { return &BcastMapper{tag: 0} })
	mapred.RegisterMapper(BcastMapper1Name, func() mapred.Mapper { return &BcastMapper{tag: 1} })
	mapred.RegisterMapper(RekeyMapperName, func() mapred.Mapper { return &RekeyMapper{} })
	mapred.RegisterMapper(ScaleMapperName, func() mapred.Mapper { return &ScaleMapper{} })
	mapred.RegisterMapper(SideMulMapperName, func() mapred.Mapper { return &SideMulMapper{} })

	mapred.RegisterReducer(CombineReducerName, func() mapred.Reducer { return &CombineReducer{} })
	mapred.RegisterReducer(SumReducerName, func() mapred.Reducer { return &SumReducer{} })
	mapred.RegisterReducer(GramReducerName, func() mapred.Reducer { return &GramReducer{} })
	mapred.RegisterReducer(ElemReducerName, func() mapred.Reducer { return &ElemReducer{} })
	mapred.RegisterReducer(DotReducerName, func() mapred.Reducer { return &DotReducer{} })
}

// PassMapper forwards each block under its key, tagged with the input it
// came from.
type PassMapper struct {
	mapred.Base
	tag byte
}

// Map implements mapred.Mapper.
func (m *PassMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	return out.Collect(key, tagValue(m.tag, value))
}

// BcastMapper replicates each block across one dimension:
//
//	mode "row":     (a, b) → (a, t)  — spread a row block across columns
//	mode "col":     (a, b) → (t, a)  — spread a vector block (a,0) down column a
//	mode "colkeep": (a, b) → (t, b)  — spread a column block down rows
type BcastMapper struct {
	mapred.Base
	tag  byte
	mode string
	n    int
}

// Configure implements mapred.Mapper.
func (m *BcastMapper) Configure(job *conf.JobConf) {
	m.mode = job.Get(KeyBcastMode)
	m.n = job.GetInt(KeyBcastN, 1)
}

// Map implements mapred.Mapper.
func (m *BcastMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	k := key.(*matrix.BlockKey)
	tb := tagValue(m.tag, value)
	for t := 0; t < m.n; t++ {
		var nk *matrix.BlockKey
		switch m.mode {
		case "row":
			nk = matrix.NewBlockKey(k.Row, int32(t))
		case "col":
			nk = matrix.NewBlockKey(int32(t), k.Row)
		case "colkeep":
			nk = matrix.NewBlockKey(int32(t), k.Col)
		default:
			return fmt.Errorf("sysml: unknown broadcast mode %q", m.mode)
		}
		if err := out.Collect(nk, tb); err != nil {
			return err
		}
	}
	return nil
}

// RekeyMapper rewrites keys for aggregation jobs:
//
//	"col0":  (i, j) → (i, 0)
//	"row0":  (i, j) → (0, j)
//	"tcol0": (i, j) → (j, 0)
//	"zero":  (i, j) → (0, 0)
type RekeyMapper struct {
	mapred.Base
	mode string
}

// Configure implements mapred.Mapper.
func (m *RekeyMapper) Configure(job *conf.JobConf) { m.mode = job.Get(KeyRekeyMode) }

// Map implements mapred.Mapper.
func (m *RekeyMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	k := key.(*matrix.BlockKey)
	var nk *matrix.BlockKey
	switch m.mode {
	case "col0":
		nk = matrix.NewBlockKey(k.Row, 0)
	case "row0":
		nk = matrix.NewBlockKey(0, k.Col)
	case "tcol0":
		nk = matrix.NewBlockKey(k.Col, 0)
	case "zero":
		nk = matrix.NewBlockKey(0, 0)
	default:
		return fmt.Errorf("sysml: unknown rekey mode %q", m.mode)
	}
	return out.Collect(nk, value)
}

// ScaleMapper is a map-only elementwise alpha·x + beta.
type ScaleMapper struct {
	mapred.Base
	alpha, beta float64
}

// Configure implements mapred.Mapper.
func (m *ScaleMapper) Configure(job *conf.JobConf) {
	m.alpha = job.GetFloat(KeyAlpha, 1)
	m.beta = job.GetFloat(KeyBeta, 0)
}

// Map implements mapred.Mapper.
func (m *ScaleMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	return out.Collect(key, denseOf(value).ScaleShift(m.alpha, m.beta))
}

// SideMulMapper is a map-only multiply against a small matrix loaded from
// a side file at Configure time. This mirrors the SystemML runtime's
// direct-HDFS reads that had to be made cache-aware under M3R (paper
// footnote 3): loadSide consults the CacheFS when the file exists only in
// the key/value cache.
type SideMulMapper struct {
	mapred.Base
	side *Block
	mode string
	err  error
}

// Configure implements mapred.Mapper.
func (m *SideMulMapper) Configure(job *conf.JobConf) {
	m.mode = job.GetDefault(KeySideMode, "left")
	path := job.Get(KeySidePath)
	blocks, err := readBlocksViaJob(job, path)
	if err != nil {
		m.err = fmt.Errorf("sysml: loading side matrix %s: %w", path, err)
		return
	}
	b, ok := blocks[matrix.BlockKey{Row: 0, Col: 0}]
	if !ok {
		m.err = fmt.Errorf("sysml: side matrix %s has no (0,0) block", path)
		return
	}
	m.side = b
}

// Map implements mapred.Mapper.
func (m *SideMulMapper) Map(key, value wio.Writable, out mapred.OutputCollector, _ mapred.Reporter) error {
	if m.err != nil {
		return m.err
	}
	b := denseOf(value)
	if m.mode == "left" {
		return out.Collect(key, m.side.Mul(b))
	}
	return out.Collect(key, b.Mul(m.side))
}

// CombineReducer multiplies the tagged operands of one key:
//
//	op "ab":  t0 × t1,   op "atb": t0ᵀ × t1,   op "abt": t0 × t1ᵀ
//
// Keys where either operand is missing produce no output (e.g. the
// broadcast reaches empty blocks).
type CombineReducer struct {
	mapred.Base
	op string
}

// Configure implements mapred.Reducer.
func (r *CombineReducer) Configure(job *conf.JobConf) { r.op = job.Get(KeyOp) }

// Reduce implements mapred.Reducer.
func (r *CombineReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	var t0, t1 wio.Writable
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		tb := v.(*TaggedBlock)
		switch tb.Tag {
		case 0:
			t0 = tb.value()
		case 1:
			t1 = tb.value()
		}
	}
	if t0 == nil || t1 == nil {
		return nil
	}
	var res *Block
	switch r.op {
	case "ab":
		if s, ok := t0.(*SparseBlock); ok {
			res = s.Mul(denseOf(t1))
		} else {
			res = denseOf(t0).Mul(denseOf(t1))
		}
	case "atb":
		res = denseOf(t0).TMul(denseOf(t1))
	case "abt":
		res = denseOf(t0).MulT(denseOf(t1))
	case "tab":
		res = denseOf(t1).TMul(denseOf(t0))
	default:
		return fmt.Errorf("sysml: unknown combine op %q", r.op)
	}
	return out.Collect(key, res)
}

// SumReducer sums plain blocks per key (the aggregate job after a
// block-multiply).
type SumReducer struct{ mapred.Base }

// Reduce implements mapred.Reducer.
func (*SumReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	var sum *Block
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		b := v.(*Block)
		if sum == nil {
			sum = NewBlock(b.R, b.C)
		}
		sum.AddInPlace(b)
	}
	if sum == nil {
		return nil
	}
	return out.Collect(key, sum)
}

// GramReducer computes Σ vᵀv ("atself") or Σ vvᵀ ("aselft") over all
// blocks funneled to one key — the k×k Gram matrices of GNMF.
type GramReducer struct {
	mapred.Base
	op string
}

// Configure implements mapred.Reducer.
func (r *GramReducer) Configure(job *conf.JobConf) { r.op = job.Get(KeyOp) }

// Reduce implements mapred.Reducer.
func (r *GramReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	var sum *Block
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		b := denseOf(v)
		var part *Block
		switch r.op {
		case "atself":
			part = b.TMul(b)
		case "aselft":
			part = b.MulT(b)
		default:
			return fmt.Errorf("sysml: unknown gram op %q", r.op)
		}
		if sum == nil {
			sum = part
		} else {
			sum.AddInPlace(part)
		}
	}
	if sum == nil {
		return nil
	}
	return out.Collect(key, sum)
}

// ElemReducer combines 2 or 3 tagged operands elementwise:
//
//	op "hadamard": t0 .* t1
//	op "add":      t0 + t1
//	op "sub":      t0 - t1
//	op "axpy":     t0 + alpha·t1
//	op "muldiv":   t0 .* t1 ./ t2   (the GNMF multiplicative update)
type ElemReducer struct {
	mapred.Base
	op    string
	alpha float64
}

// Configure implements mapred.Reducer.
func (r *ElemReducer) Configure(job *conf.JobConf) {
	r.op = job.Get(KeyOp)
	r.alpha = job.GetFloat(KeyAlpha, 1)
}

// Reduce implements mapred.Reducer.
func (r *ElemReducer) Reduce(key wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	var t0, t1, t2 *Block
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		tb := v.(*TaggedBlock)
		switch tb.Tag {
		case 0:
			t0 = denseOf(tb.value())
		case 1:
			t1 = denseOf(tb.value())
		case 2:
			t2 = denseOf(tb.value())
		}
	}
	if t0 == nil || t1 == nil {
		return nil
	}
	var res *Block
	switch r.op {
	case "hadamard":
		res = t0.Hadamard(t1)
	case "add":
		res = t0.Axpy(1, t1)
	case "sub":
		res = t0.Axpy(-1, t1)
	case "axpy":
		res = t0.Axpy(r.alpha, t1)
	case "muldiv":
		if t2 == nil {
			return nil
		}
		res = t0.Hadamard(t1).DivEps(t2)
	default:
		return fmt.Errorf("sysml: unknown elementwise op %q", r.op)
	}
	return out.Collect(key, res)
}

// DotReducer accumulates Σ dot(x_b, y_b) over every block pair it sees and
// emits the scalar (as a 1×1 block under key (0,0)) when the task closes —
// SystemML's final-aggregate pattern. It must run with a single reducer.
type DotReducer struct {
	sum  float64
	seen bool
	out  mapred.OutputCollector
}

// Configure implements mapred.Reducer.
func (r *DotReducer) Configure(*conf.JobConf) {}

// Reduce implements mapred.Reducer.
func (r *DotReducer) Reduce(_ wio.Writable, values mapred.ValueIterator, out mapred.OutputCollector, _ mapred.Reporter) error {
	var t0, t1 *Block
	for {
		v, ok := values.Next()
		if !ok {
			break
		}
		tb := v.(*TaggedBlock)
		if tb.Tag == 0 {
			t0 = denseOf(tb.value())
		} else {
			t1 = denseOf(tb.value())
		}
	}
	if t0 != nil && t1 != nil {
		r.sum += t0.Dot(t1)
	}
	r.seen = true
	r.out = out
	return nil
}

// Close implements mapred.Reducer, emitting the accumulated scalar.
func (r *DotReducer) Close() error {
	if !r.seen || r.out == nil {
		return nil
	}
	res := NewBlock(1, 1)
	res.V[0] = r.sum
	return r.out.Collect(matrix.NewBlockKey(0, 0), res)
}

// readBlocksViaJob loads a whole blocked matrix through the job's
// filesystem, falling back to the M3R cache for files that exist only
// there (paper footnote 3).
func readBlocksViaJob(job *conf.JobConf, path string) (map[matrix.BlockKey]*Block, error) {
	fs, err := formats.FS(job)
	if err != nil {
		return nil, err
	}
	return ReadBlocks(fs, path)
}

// ReadBlocks loads a blocked matrix from a directory of SequenceFiles (or
// a single file). When the filesystem is M3R's caching filesystem and a
// file's bytes were never written (temporary outputs), the pairs are
// retrieved from the key/value cache instead.
func ReadBlocks(fs dfs.FileSystem, path string) (map[matrix.BlockKey]*Block, error) {
	files, err := dfs.ListRecursive(fs, path)
	if err != nil {
		return nil, err
	}
	out := make(map[matrix.BlockKey]*Block)
	for _, f := range files {
		if dfs.Base(f.Path) == formats.SuccessMarker || f.IsDir {
			continue
		}
		pairs, err := formats.ReadSeqFileAll(fs, f.Path)
		if err != nil {
			cfs, ok := fs.(hmrext.CacheFS)
			if !ok {
				return nil, err
			}
			it, ok, cerr := cfs.GetCacheRecordReader(f.Path)
			if cerr != nil {
				return nil, cerr
			}
			if !ok {
				return nil, err
			}
			pairs = nil
			for {
				p, more := it.Next()
				if !more {
					break
				}
				pairs = append(pairs, p)
			}
		}
		for _, p := range pairs {
			k := p.Key.(*matrix.BlockKey)
			out[matrix.BlockKey{Row: k.Row, Col: k.Col}] = denseOf(p.Value)
		}
	}
	return out, nil
}
