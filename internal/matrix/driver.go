package matrix

import (
	"fmt"

	"m3r/internal/conf"
	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/wio"
)

// Config describes one matvec dataset: G is RowBlocks×ColBlocks blocks of
// BlockSize×BlockSize, V is RowBlocks blocks of BlockSize×1 (so G must be
// square in blocks for iteration: ColBlocks == RowBlocks).
type Config struct {
	RowBlocks int
	ColBlocks int
	BlockSize int
	Sparsity  float64
	// Partitions is the reducer count; the row partitioner spreads block
	// rows over it.
	Partitions int
	// Dir is the dataset's base directory on the job filesystem.
	Dir string
	// Seed makes generation deterministic.
	Seed int64
}

// GPath returns the matrix directory.
func (c Config) GPath() string { return c.Dir + "/G" }

// VPath returns the initial vector directory.
func (c Config) VPath() string { return c.Dir + "/V" }

// Rows returns the total row count.
func (c Config) Rows() int { return c.RowBlocks * c.BlockSize }

// Generate writes G and V as row-partitioned SequenceFiles ("part-NNNNN"
// per partition), the layout the repartitioner of §6.1.1 would produce, so
// PlacedSplits line data up with partition stability from the first read.
func Generate(fs dfs.FileSystem, c Config) error {
	for q := 0; q < c.Partitions; q++ {
		var gPairs, vPairs []wio.Pair
		for i := q; i < c.RowBlocks; i += c.Partitions {
			for j := 0; j < c.ColBlocks; j++ {
				blockSeed := c.Seed + int64(i)*1000003 + int64(j)
				b := RandomCSC(int32(c.BlockSize), int32(c.BlockSize), c.Sparsity, blockSeed)
				if b.NNZ() == 0 {
					continue
				}
				gPairs = append(gPairs, wio.Pair{Key: NewBlockKey(int32(i), int32(j)), Value: b})
			}
			vPairs = append(vPairs, wio.Pair{
				Key:   NewBlockKey(int32(i), 0),
				Value: RandomDense(int32(c.BlockSize), c.Seed+int64(i)*7919),
			})
		}
		if err := formats.WriteSeqFile(fs, partFile(c.GPath(), q), BlockKeyName, CSCBlockName, gPairs); err != nil {
			return err
		}
		if err := formats.WriteSeqFile(fs, partFile(c.VPath(), q), BlockKeyName, DenseBlockName, vPairs); err != nil {
			return err
		}
	}
	return nil
}

// IterationJobs builds the two jobs of one iteration (Fig. 1). The partial
// product path is temporary by naming convention; vOut is the iteration's
// output vector path.
func IterationJobs(c Config, vIn, vOut string, iter int) []*conf.JobConf {
	partials := fmt.Sprintf("%s/temp_partials_%d", c.Dir, iter)
	return []*conf.JobConf{
		MultiplyJob(c, c.GPath(), vIn, partials),
		SumJob(c, partials, vOut),
	}
}

// RunIterations runs `iters` multiply iterations on eng, feeding each
// iteration's output vector into the next. Intermediate vectors use the
// temporary-output naming convention; the final vector is written for
// real. It returns the final vector path and all job reports.
//
// As in §6.1, each iteration explicitly deletes the previous iteration's
// input once consumed, "as it will not be accessed again and its presence
// in the cache wastes memory".
func RunIterations(eng engine.Engine, c Config, iters int) (string, []*engine.Report, error) {
	fsID := eng.FileSystem()
	fs, err := dfs.Instance(fsID)
	if err != nil {
		return "", nil, err
	}
	vIn := c.VPath()
	var reports []*engine.Report
	for it := 0; it < iters; it++ {
		vOut := fmt.Sprintf("%s/temp_V_%d", c.Dir, it+1)
		if it == iters-1 {
			vOut = c.Dir + "/Vout"
		}
		jobs := IterationJobs(c, vIn, vOut, it)
		reps, err := engine.RunSequence(eng, jobs...)
		reports = append(reports, reps...)
		if err != nil {
			return "", reports, err
		}
		// Drop consumed intermediates (partial products and the previous
		// temp vector) from cache and filesystem.
		partials := fmt.Sprintf("%s/temp_partials_%d", c.Dir, it)
		if fs.Exists(partials) {
			if err := fs.Delete(partials, true); err != nil {
				return "", reports, err
			}
		}
		if vIn != c.VPath() && fs.Exists(vIn) {
			if err := fs.Delete(vIn, true); err != nil {
				return "", reports, err
			}
		}
		vIn = vOut
	}
	return vIn, reports, nil
}

// ReadVector reads a blocked vector (dir of SequenceFiles) into one dense
// slice of length c.Rows().
func ReadVector(fs dfs.FileSystem, c Config, dir string) ([]float64, error) {
	out := make([]float64, c.Rows())
	files, err := dfs.ListRecursive(fs, dir)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		base := dfs.Base(f.Path)
		if base == formats.SuccessMarker || f.IsDir {
			continue
		}
		pairs, err := formats.ReadSeqFileAll(fs, f.Path)
		if err != nil {
			return nil, err
		}
		for _, p := range pairs {
			k := p.Key.(*BlockKey)
			d := p.Value.(*DenseBlock)
			copy(out[int(k.Row)*c.BlockSize:], d.Vals)
		}
	}
	return out, nil
}

// ReferenceDense materializes G as a dense matrix, for verification at
// test sizes.
func ReferenceDense(c Config) [][]float64 {
	n := c.Rows()
	m := c.ColBlocks * c.BlockSize
	g := make([][]float64, n)
	for i := range g {
		g[i] = make([]float64, m)
	}
	for bi := 0; bi < c.RowBlocks; bi++ {
		for bj := 0; bj < c.ColBlocks; bj++ {
			blockSeed := c.Seed + int64(bi)*1000003 + int64(bj)
			b := RandomCSC(int32(c.BlockSize), int32(c.BlockSize), c.Sparsity, blockSeed)
			for j := int32(0); j < b.Cols; j++ {
				for p := b.ColPtr[j]; p < b.ColPtr[j+1]; p++ {
					g[bi*c.BlockSize+int(b.RowIdx[p])][bj*c.BlockSize+int(j)] = b.Vals[p]
				}
			}
		}
	}
	return g
}

// ReferenceVector materializes the initial V.
func ReferenceVector(c Config) []float64 {
	out := make([]float64, c.Rows())
	for bi := 0; bi < c.RowBlocks; bi++ {
		d := RandomDense(int32(c.BlockSize), c.Seed+int64(bi)*7919)
		copy(out[bi*c.BlockSize:], d.Vals)
	}
	return out
}

// ReferenceMultiply computes iters iterations of V' = G·V directly.
func ReferenceMultiply(c Config, iters int) []float64 {
	g := ReferenceDense(c)
	v := ReferenceVector(c)
	for it := 0; it < iters; it++ {
		next := make([]float64, len(v))
		for i := range g {
			var sum float64
			for j, gij := range g[i] {
				sum += gij * v[j]
			}
			next[i] = sum
		}
		v = next
	}
	return v
}
