package sysml

import (
	"fmt"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/matrix"
	"m3r/internal/wio"
)

// Mat is a handle to a blocked matrix on the job filesystem. Block (i, j)
// covers rows [i·RPB, (i+1)·RPB) and columns [j·CPB, (j+1)·CPB);
// dimensions must divide evenly (the generators guarantee it).
type Mat struct {
	Path       string
	Rows, Cols int32
	RPB, CPB   int32
}

// BlockRows returns the number of block rows.
func (m Mat) BlockRows() int { return int(m.Rows / m.RPB) }

// BlockCols returns the number of block columns.
func (m Mat) BlockCols() int { return int(m.Cols / m.CPB) }

// Driver runs sysml job sequences on one engine, tracking temporaries and
// collecting reports. It plays the role of the SystemML runtime's job
// orchestrator.
type Driver struct {
	Eng        engine.Engine
	FS         dfs.FileSystem
	Partitions int
	Dir        string
	// Cleanup deletes consumed temporaries after each step (the cache
	// hygiene the paper applies in §6.1).
	Cleanup bool

	seq     int
	Reports []*engine.Report
}

// NewDriver builds a driver for eng rooted at dir.
func NewDriver(eng engine.Engine, dir string, partitions int) (*Driver, error) {
	fs, err := dfs.Instance(eng.FileSystem())
	if err != nil {
		return nil, err
	}
	return &Driver{Eng: eng, FS: fs, Partitions: partitions, Dir: dir, Cleanup: true}, nil
}

// temp allocates a fresh temporary path (elided from disk under M3R).
func (d *Driver) temp(tag string) string {
	d.seq++
	return fmt.Sprintf("%s/temp_%s_%d", d.Dir, tag, d.seq)
}

// JobCount reports how many jobs the driver has run.
func (d *Driver) JobCount() int { return len(d.Reports) }

// submit runs jobs in order.
func (d *Driver) submit(jobs ...*conf.JobConf) error {
	reps, err := engine.RunSequence(d.Eng, jobs...)
	d.Reports = append(d.Reports, reps...)
	return err
}

// drop deletes consumed temporaries from filesystem and cache.
func (d *Driver) drop(paths ...string) error {
	if !d.Cleanup {
		return nil
	}
	for _, p := range paths {
		if p == "" || !d.FS.Exists(p) {
			continue
		}
		if err := d.FS.Delete(p, true); err != nil {
			return err
		}
	}
	return nil
}

// newJob sets the fields every sysml job shares.
func (d *Driver) newJob(name string, reducers int) *conf.JobConf {
	job := conf.NewJob()
	job.SetJobName(name)
	job.SetOutputFormatClass(formats.SequenceFileOutputFormatName)
	job.SetNumReduceTasks(reducers)
	job.SetOutputKeyClass(matrix.BlockKeyName)
	job.SetOutputValueClass(BlockName)
	job.SetMapOutputKeyClass(matrix.BlockKeyName)
	return job
}

// MatVec computes out = A · x (x a column vector blocked like A's rows):
// a broadcast-join multiply job followed by an aggregate job, SystemML's
// MMCJ/GMR pair.
func (d *Driver) MatVec(A, x Mat, out string) (Mat, error) {
	partials := d.temp("mvpart")
	j1 := d.newJob("sysml-mv-mult", d.Partitions)
	formats.AddMultipleInput(j1, A.Path, formats.SequenceFileInputFormatName, PassMapper0Name)
	formats.AddMultipleInput(j1, x.Path, formats.SequenceFileInputFormatName, BcastMapper1Name)
	j1.SetMapperClass("org.apache.hadoop.mapred.lib.DelegatingMapper")
	j1.Set(KeyBcastMode, "col")
	j1.SetInt(KeyBcastN, A.BlockRows())
	j1.SetReducerClass(CombineReducerName)
	j1.Set(KeyOp, "ab")
	j1.SetMapOutputValueClass(TaggedBlockName)
	j1.SetOutputPath(partials)

	j2 := d.newJob("sysml-mv-agg", d.Partitions)
	j2.SetInputFormatClass(formats.SequenceFileInputFormatName)
	j2.AddInputPath(partials)
	j2.SetMapperClass(RekeyMapperName)
	j2.Set(KeyRekeyMode, "col0")
	j2.SetReducerClass(SumReducerName)
	j2.SetMapOutputValueClass(BlockName)
	j2.SetOutputPath(out)

	if err := d.submit(j1, j2); err != nil {
		return Mat{}, err
	}
	if err := d.drop(partials); err != nil {
		return Mat{}, err
	}
	return Mat{Path: out, Rows: A.Rows, Cols: x.Cols, RPB: A.RPB, CPB: x.CPB}, nil
}

// TMatVec computes out = Aᵀ · q (q blocked like A's rows).
func (d *Driver) TMatVec(A, q Mat, out string) (Mat, error) {
	partials := d.temp("tmvpart")
	j1 := d.newJob("sysml-tmv-mult", d.Partitions)
	formats.AddMultipleInput(j1, A.Path, formats.SequenceFileInputFormatName, PassMapper1Name)
	formats.AddMultipleInput(j1, q.Path, formats.SequenceFileInputFormatName, BcastMapper0Name)
	j1.SetMapperClass("org.apache.hadoop.mapred.lib.DelegatingMapper")
	j1.Set(KeyBcastMode, "row")
	j1.SetInt(KeyBcastN, A.BlockCols())
	j1.SetReducerClass(CombineReducerName)
	// Tags are fixed by mapper registration: A uses PassMapper1 (t1), the
	// broadcast q uses BcastMapper0 (t0). Per block we need A_ijᵀ·q_i,
	// i.e. t1ᵀ×t0 — op "tab".
	j1.Set(KeyOp, "tab")
	j1.SetMapOutputValueClass(TaggedBlockName)
	j1.SetOutputPath(partials)

	j2 := d.newJob("sysml-tmv-agg", d.Partitions)
	j2.SetInputFormatClass(formats.SequenceFileInputFormatName)
	j2.AddInputPath(partials)
	j2.SetMapperClass(RekeyMapperName)
	j2.Set(KeyRekeyMode, "tcol0")
	j2.SetReducerClass(SumReducerName)
	j2.SetMapOutputValueClass(BlockName)
	j2.SetOutputPath(out)

	if err := d.submit(j1, j2); err != nil {
		return Mat{}, err
	}
	if err := d.drop(partials); err != nil {
		return Mat{}, err
	}
	return Mat{Path: out, Rows: A.Cols, Cols: q.Cols, RPB: A.CPB, CPB: q.CPB}, nil
}

// TMatMat computes out = Wᵀ · V for a skinny W (blocked (i,0), RPB×k) and
// a blocked V — GNMF's WᵀV.
func (d *Driver) TMatMat(W, V Mat, out string) (Mat, error) {
	partials := d.temp("tmmpart")
	j1 := d.newJob("sysml-tmm-mult", d.Partitions)
	formats.AddMultipleInput(j1, W.Path, formats.SequenceFileInputFormatName, BcastMapper0Name)
	formats.AddMultipleInput(j1, V.Path, formats.SequenceFileInputFormatName, PassMapper1Name)
	j1.SetMapperClass("org.apache.hadoop.mapred.lib.DelegatingMapper")
	j1.Set(KeyBcastMode, "row")
	j1.SetInt(KeyBcastN, V.BlockCols())
	j1.SetReducerClass(CombineReducerName)
	j1.Set(KeyOp, "atb")
	j1.SetMapOutputValueClass(TaggedBlockName)
	j1.SetOutputPath(partials)

	j2 := d.newJob("sysml-tmm-agg", d.Partitions)
	j2.SetInputFormatClass(formats.SequenceFileInputFormatName)
	j2.AddInputPath(partials)
	j2.SetMapperClass(RekeyMapperName)
	j2.Set(KeyRekeyMode, "row0")
	j2.SetReducerClass(SumReducerName)
	j2.SetMapOutputValueClass(BlockName)
	j2.SetOutputPath(out)

	if err := d.submit(j1, j2); err != nil {
		return Mat{}, err
	}
	if err := d.drop(partials); err != nil {
		return Mat{}, err
	}
	return Mat{Path: out, Rows: W.Cols, Cols: V.Cols, RPB: W.CPB, CPB: V.CPB}, nil
}

// MatTMat computes out = V · Hᵀ for blocked V and a wide H (blocked (0,j),
// k×CPB) — GNMF's VHᵀ.
func (d *Driver) MatTMat(V, H Mat, out string) (Mat, error) {
	partials := d.temp("mtmpart")
	j1 := d.newJob("sysml-mtm-mult", d.Partitions)
	formats.AddMultipleInput(j1, V.Path, formats.SequenceFileInputFormatName, PassMapper0Name)
	formats.AddMultipleInput(j1, H.Path, formats.SequenceFileInputFormatName, BcastMapper1Name)
	j1.SetMapperClass("org.apache.hadoop.mapred.lib.DelegatingMapper")
	j1.Set(KeyBcastMode, "colkeep")
	j1.SetInt(KeyBcastN, V.BlockRows())
	j1.SetReducerClass(CombineReducerName)
	j1.Set(KeyOp, "abt")
	j1.SetMapOutputValueClass(TaggedBlockName)
	j1.SetOutputPath(partials)

	j2 := d.newJob("sysml-mtm-agg", d.Partitions)
	j2.SetInputFormatClass(formats.SequenceFileInputFormatName)
	j2.AddInputPath(partials)
	j2.SetMapperClass(RekeyMapperName)
	j2.Set(KeyRekeyMode, "col0")
	j2.SetReducerClass(SumReducerName)
	j2.SetMapOutputValueClass(BlockName)
	j2.SetOutputPath(out)

	if err := d.submit(j1, j2); err != nil {
		return Mat{}, err
	}
	if err := d.drop(partials); err != nil {
		return Mat{}, err
	}
	return Mat{Path: out, Rows: V.Rows, Cols: H.Rows, RPB: V.RPB, CPB: H.RPB}, nil
}

// Gram computes the k×k Gram matrix of a skinny/wide matrix in one
// single-reducer job: op "atself" gives AᵀA (A blocked (i,0)), "aselft"
// gives AAᵀ (A blocked (0,j)).
func (d *Driver) Gram(A Mat, op, out string) (Mat, error) {
	j := d.newJob("sysml-gram", 1)
	j.SetInputFormatClass(formats.SequenceFileInputFormatName)
	j.AddInputPath(A.Path)
	j.SetMapperClass(RekeyMapperName)
	j.Set(KeyRekeyMode, "zero")
	j.SetReducerClass(GramReducerName)
	j.Set(KeyOp, op)
	j.SetMapOutputValueClass(BlockName)
	j.SetOutputPath(out)
	if err := d.submit(j); err != nil {
		return Mat{}, err
	}
	k := A.CPB
	if op == "aselft" {
		k = A.RPB
	}
	return Mat{Path: out, Rows: k, Cols: k, RPB: k, CPB: k}, nil
}

// SideMul multiplies every block of A by the small matrix at side.Path:
// mode "left" gives S·A_b, "right" gives A_b·S. It is a map-only job whose
// mapper loads the side file directly (cache-aware under M3R, paper
// footnote 3).
func (d *Driver) SideMul(side, A Mat, mode, out string) (Mat, error) {
	j := d.newJob("sysml-sidemul", 0)
	j.SetInputFormatClass(formats.SequenceFileInputFormatName)
	j.AddInputPath(A.Path)
	j.SetMapperClass(SideMulMapperName)
	j.Set(KeySidePath, side.Path)
	j.Set(KeySideMode, mode)
	j.SetOutputPath(out)
	if err := d.submit(j); err != nil {
		return Mat{}, err
	}
	res := A
	res.Path = out
	if mode == "left" {
		res.Rows, res.RPB = side.Rows, side.Rows
	} else {
		res.Cols, res.CPB = side.Cols, side.Cols
	}
	return res, nil
}

// Scale computes out = alpha·A + beta elementwise as a map-only job.
func (d *Driver) Scale(A Mat, alpha, beta float64, out string) (Mat, error) {
	j := d.newJob("sysml-scale", 0)
	j.SetInputFormatClass(formats.SequenceFileInputFormatName)
	j.AddInputPath(A.Path)
	j.SetMapperClass(ScaleMapperName)
	j.SetFloat(KeyAlpha, alpha)
	j.SetFloat(KeyBeta, beta)
	j.SetOutputPath(out)
	if err := d.submit(j); err != nil {
		return Mat{}, err
	}
	res := A
	res.Path = out
	return res, nil
}

// Elem2 combines A and B elementwise: op ∈ {hadamard, add, sub, axpy}
// (axpy: A + alpha·B).
func (d *Driver) Elem2(A, B Mat, op string, alpha float64, out string) (Mat, error) {
	j := d.newJob("sysml-elem2", d.Partitions)
	formats.AddMultipleInput(j, A.Path, formats.SequenceFileInputFormatName, PassMapper0Name)
	formats.AddMultipleInput(j, B.Path, formats.SequenceFileInputFormatName, PassMapper1Name)
	j.SetMapperClass("org.apache.hadoop.mapred.lib.DelegatingMapper")
	j.SetReducerClass(ElemReducerName)
	j.Set(KeyOp, op)
	j.SetFloat(KeyAlpha, alpha)
	j.SetMapOutputValueClass(TaggedBlockName)
	j.SetOutputPath(out)
	if err := d.submit(j); err != nil {
		return Mat{}, err
	}
	res := A
	res.Path = out
	return res, nil
}

// Elem3 computes the GNMF multiplicative update A .* B ./ C.
func (d *Driver) Elem3(A, B, C Mat, out string) (Mat, error) {
	j := d.newJob("sysml-elem3", d.Partitions)
	formats.AddMultipleInput(j, A.Path, formats.SequenceFileInputFormatName, PassMapper0Name)
	formats.AddMultipleInput(j, B.Path, formats.SequenceFileInputFormatName, PassMapper1Name)
	formats.AddMultipleInput(j, C.Path, formats.SequenceFileInputFormatName, PassMapper2Name)
	j.SetMapperClass("org.apache.hadoop.mapred.lib.DelegatingMapper")
	j.SetReducerClass(ElemReducerName)
	j.Set(KeyOp, "muldiv")
	j.SetMapOutputValueClass(TaggedBlockName)
	j.SetOutputPath(out)
	if err := d.submit(j); err != nil {
		return Mat{}, err
	}
	res := A
	res.Path = out
	return res, nil
}

// Dot computes Σᵢ xᵢ·yᵢ with a single-reducer job and reads the scalar
// back.
func (d *Driver) Dot(x, y Mat) (float64, error) {
	out := d.temp("dot")
	j := d.newJob("sysml-dot", 1)
	formats.AddMultipleInput(j, x.Path, formats.SequenceFileInputFormatName, PassMapper0Name)
	formats.AddMultipleInput(j, y.Path, formats.SequenceFileInputFormatName, PassMapper1Name)
	j.SetMapperClass("org.apache.hadoop.mapred.lib.DelegatingMapper")
	j.SetReducerClass(DotReducerName)
	j.SetMapOutputValueClass(TaggedBlockName)
	j.SetOutputPath(out)
	if err := d.submit(j); err != nil {
		return 0, err
	}
	blocks, err := ReadBlocks(d.FS, out)
	if err != nil {
		return 0, err
	}
	b, ok := blocks[matrix.BlockKey{Row: 0, Col: 0}]
	if !ok {
		return 0, fmt.Errorf("sysml: dot job produced no scalar")
	}
	if err := d.drop(out); err != nil {
		return 0, err
	}
	return b.V[0], nil
}

// WriteMat generates a deterministic blocked matrix under d.Dir/name, a
// fraction zeroFrac of its entries zero. A matrix whose non-zero share is
// below sparseTurnPoint is written as SparseBlocks, any other as Blocks.
// Blocks are spread round-robin over Partitions part files.
func (d *Driver) WriteMat(name string, rows, cols, rpb, cpb int32, seed int64, zeroFrac float64) (Mat, error) {
	if rows%rpb != 0 || cols%cpb != 0 {
		return Mat{}, fmt.Errorf("sysml: %s: %dx%d not divisible by %dx%d blocks", name, rows, cols, rpb, cpb)
	}
	m := Mat{Path: d.Dir + "/" + name, Rows: rows, Cols: cols, RPB: rpb, CPB: cpb}
	files := make([][]wio.Pair, d.Partitions)
	idx, nnz := 0, 0
	for i := int32(0); i < rows/rpb; i++ {
		for j := int32(0); j < cols/cpb; j++ {
			b := RandomBlock(rpb, cpb, blockSeed(seed, i, j), zeroFrac)
			nnz += nonZeros(b)
			q := idx % d.Partitions
			idx++
			files[q] = append(files[q], wio.Pair{Key: matrix.NewBlockKey(i, j), Value: b})
		}
	}
	valueClass := BlockName
	if float64(nnz) < sparseTurnPoint*float64(rows)*float64(cols) {
		valueClass = SparseBlockName
		for _, pairs := range files {
			for k := range pairs {
				pairs[k].Value = Sparsify(pairs[k].Value.(*Block))
			}
		}
	}
	for q := 0; q < d.Partitions; q++ {
		path := fmt.Sprintf("%s/part-%05d", m.Path, q)
		if err := formats.WriteSeqFile(d.FS, path, matrix.BlockKeyName, valueClass, files[q]); err != nil {
			return Mat{}, err
		}
	}
	return m, nil
}

func blockSeed(seed int64, i, j int32) int64 {
	return seed + int64(i)*1000003 + int64(j)*97
}

// ReadDense assembles a blocked matrix into a dense [][]float64 for
// verification at test sizes.
func (d *Driver) ReadDense(m Mat) ([][]float64, error) {
	blocks, err := ReadBlocks(d.FS, m.Path)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, m.Rows)
	for i := range out {
		out[i] = make([]float64, m.Cols)
	}
	for k, b := range blocks {
		for bi := int32(0); bi < b.R; bi++ {
			for bj := int32(0); bj < b.C; bj++ {
				out[k.Row*m.RPB+bi][k.Col*m.CPB+bj] = b.At(bi, bj)
			}
		}
	}
	return out, nil
}

// DenseOf regenerates the dense equivalent of a WriteMat call, for
// reference computations.
func DenseOf(rows, cols, rpb, cpb int32, seed int64, zeroFrac float64) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = make([]float64, cols)
	}
	for i := int32(0); i < rows/rpb; i++ {
		for j := int32(0); j < cols/cpb; j++ {
			b := RandomBlock(rpb, cpb, blockSeed(seed, i, j), zeroFrac)
			for bi := int32(0); bi < rpb; bi++ {
				for bj := int32(0); bj < cpb; bj++ {
					out[i*rpb+bi][j*cpb+bj] = b.At(bi, bj)
				}
			}
		}
	}
	return out
}
