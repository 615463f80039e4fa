// Package matrix implements the paper's hand-written sparse matrix × dense
// vector workload (§3, §6.2): blocked matrices stored in SequenceFiles, a
// two-job MapReduce iteration (multiply, then sum), a row partitioner that
// keeps whole block-rows together, PlacedSplit-aware input (§4.3), and
// ImmutableOutput everywhere — the combination that lets M3R run each
// iteration with zero remote shuffle after the first.
package matrix

import (
	"fmt"
	"math/rand"

	"m3r/internal/wio"
)

// Registered writable names.
const (
	BlockKeyName   = "examples.matrix.BlockKey"
	CSCBlockName   = "examples.matrix.CSCBlock"
	DenseBlockName = "examples.matrix.DenseBlock"
	BlockValueName = "examples.matrix.BlockValue"
)

func init() {
	wio.RegisterNew[BlockKey](BlockKeyName)
	wio.RegisterNew[CSCBlock](CSCBlockName)
	wio.RegisterNew[DenseBlock](DenseBlockName)
	wio.RegisterNew[BlockValue](BlockValueName)
}

// BlockKey is the paper's "custom key class that encapsulates a pair of
// ints as a two-dimensional index into the matrix" (§6.2). Vector blocks
// use a redundant column of 0.
type BlockKey struct {
	Row, Col int32
}

// NewBlockKey returns the key for block (row, col).
func NewBlockKey(row, col int32) *BlockKey { return &BlockKey{Row: row, Col: col} }

// WriteTo implements wio.Writable.
func (k *BlockKey) WriteTo(w *wio.Writer) error {
	if err := w.WriteInt32(k.Row); err != nil {
		return err
	}
	return w.WriteInt32(k.Col)
}

// ReadFields implements wio.Writable.
func (k *BlockKey) ReadFields(r *wio.Reader) error {
	var err error
	if k.Row, err = r.ReadInt32(); err != nil {
		return err
	}
	k.Col, err = r.ReadInt32()
	return err
}

// CompareTo implements wio.Comparable in row-major order.
func (k *BlockKey) CompareTo(other wio.Writable) int {
	o := other.(*BlockKey)
	switch {
	case k.Row < o.Row:
		return -1
	case k.Row > o.Row:
		return 1
	case k.Col < o.Col:
		return -1
	case k.Col > o.Col:
		return 1
	}
	return 0
}

// HashCode implements wio.Hashable.
func (k *BlockKey) HashCode() uint32 { return uint32(k.Row)*31 + uint32(k.Col) }

// String implements fmt.Stringer.
func (k *BlockKey) String() string { return fmt.Sprintf("(%d,%d)", k.Row, k.Col) }

// CSCBlock is a sparse matrix block in compressed sparse column form, the
// representation the paper's hand-written code uses (§6.2).
type CSCBlock struct {
	Rows, Cols int32
	ColPtr     []int32 // len Cols+1; column j's entries are [ColPtr[j], ColPtr[j+1])
	RowIdx     []int32
	Vals       []float64
}

// NNZ returns the number of stored entries.
func (b *CSCBlock) NNZ() int { return len(b.Vals) }

// WriteTo implements wio.Writable.
func (b *CSCBlock) WriteTo(w *wio.Writer) error {
	if err := w.WriteInt32(b.Rows); err != nil {
		return err
	}
	if err := w.WriteInt32(b.Cols); err != nil {
		return err
	}
	if err := w.WriteUvarint(uint64(len(b.ColPtr))); err != nil {
		return err
	}
	for _, v := range b.ColPtr {
		if err := w.WriteVarint(int64(v)); err != nil {
			return err
		}
	}
	if err := w.WriteUvarint(uint64(len(b.RowIdx))); err != nil {
		return err
	}
	for _, v := range b.RowIdx {
		if err := w.WriteVarint(int64(v)); err != nil {
			return err
		}
	}
	return w.WriteFloat64s(b.Vals)
}

// ReadFields implements wio.Writable. A block that MultiplyInto could not
// walk — negative dimensions, a ColPtr that is not Cols+1 non-decreasing
// offsets from 0 to len(RowIdx), a row index outside [0, Rows) — is an
// error, never a panic.
func (b *CSCBlock) ReadFields(r *wio.Reader) error {
	var err error
	if b.Rows, err = r.ReadInt32(); err != nil {
		return err
	}
	if b.Cols, err = r.ReadInt32(); err != nil {
		return err
	}
	if b.Rows < 0 || b.Cols < 0 {
		return fmt.Errorf("matrix: corrupt CSC block dimensions %dx%d", b.Rows, b.Cols)
	}
	if b.ColPtr, err = readInt32s(r, b.ColPtr); err != nil {
		return err
	}
	if len(b.ColPtr) != int(b.Cols)+1 {
		return fmt.Errorf("matrix: corrupt CSC block: %d column pointers for %d columns", len(b.ColPtr), b.Cols)
	}
	if b.ColPtr[0] != 0 {
		return fmt.Errorf("matrix: corrupt CSC block: column pointers start at %d", b.ColPtr[0])
	}
	for j := range b.Cols {
		if b.ColPtr[j+1] < b.ColPtr[j] {
			return fmt.Errorf("matrix: corrupt CSC block: column %d ends before it starts", j)
		}
	}
	if b.RowIdx, err = readInt32s(r, b.RowIdx); err != nil {
		return err
	}
	if int(b.ColPtr[b.Cols]) != len(b.RowIdx) {
		return fmt.Errorf("matrix: corrupt CSC block: column pointers end at %d of %d entries", b.ColPtr[b.Cols], len(b.RowIdx))
	}
	for _, i := range b.RowIdx {
		if i < 0 || i >= b.Rows {
			return fmt.Errorf("matrix: corrupt CSC block: row %d outside %dx%d", i, b.Rows, b.Cols)
		}
	}
	b.Vals, err = r.ReadFloat64s(b.Vals, uint64(len(b.RowIdx)))
	return err
}

// readInt32s reads a uvarint count and that many varint-coded int32s into
// dst, reusing its capacity. A varint has no fixed width, so the count
// cannot be checked against the bytes that follow: it is held to wio's
// length limit, and beyond int32Chunk elements dst grows as elements
// actually arrive, so a corrupt count costs an error, not its allocation.
func readInt32s(r *wio.Reader, dst []int32) ([]int32, error) {
	c, err := r.ReadUvarint()
	if err != nil {
		return dst[:0], err
	}
	n, err := wio.CheckLen(c, 4)
	if err != nil {
		return dst[:0], err
	}
	if cap(dst) < n {
		dst = make([]int32, 0, min(n, int32Chunk))
	}
	dst = dst[:0]
	for len(dst) < n {
		v, err := r.ReadVarint()
		if err != nil {
			return dst, err
		}
		dst = append(dst, int32(v))
	}
	return dst, nil
}

const int32Chunk = 1 << 16

// MultiplyInto computes y += B * x for a dense vector block x of length
// B.Cols; y must have length B.Rows.
func (b *CSCBlock) MultiplyInto(x *DenseBlock, y []float64) {
	for j := int32(0); j < b.Cols; j++ {
		xj := x.Vals[j]
		if xj == 0 {
			continue
		}
		for p := b.ColPtr[j]; p < b.ColPtr[j+1]; p++ {
			y[b.RowIdx[p]] += b.Vals[p] * xj
		}
	}
}

// String implements fmt.Stringer.
func (b *CSCBlock) String() string {
	return fmt.Sprintf("csc[%dx%d nnz=%d]", b.Rows, b.Cols, b.NNZ())
}

// DenseBlock is a dense vector block (the paper's "array of double").
type DenseBlock struct {
	Vals []float64
}

// NewDenseBlock returns a zeroed block of length n.
func NewDenseBlock(n int) *DenseBlock { return &DenseBlock{Vals: make([]float64, n)} }

// WriteTo implements wio.Writable.
func (d *DenseBlock) WriteTo(w *wio.Writer) error {
	if err := w.WriteUvarint(uint64(len(d.Vals))); err != nil {
		return err
	}
	return w.WriteFloat64s(d.Vals)
}

// ReadFields implements wio.Writable.
func (d *DenseBlock) ReadFields(r *wio.Reader) error {
	n, err := r.ReadUvarint()
	if err != nil {
		return err
	}
	d.Vals, err = r.ReadFloat64s(d.Vals, n)
	return err
}

// AddInto accumulates other into d (elementwise).
func (d *DenseBlock) AddInto(other *DenseBlock) {
	for i, v := range other.Vals {
		d.Vals[i] += v
	}
}

// String implements fmt.Stringer.
func (d *DenseBlock) String() string { return fmt.Sprintf("dense[%d]", len(d.Vals)) }

// BlockValue is the tagged union shipped through the shuffle of the
// multiply job, which mixes matrix and vector blocks under one map output
// value class (Hadoop requires a single class for spill deserialization).
type BlockValue struct {
	CSC   *CSCBlock
	Dense *DenseBlock
}

// WrapCSC wraps a matrix block.
func WrapCSC(b *CSCBlock) *BlockValue { return &BlockValue{CSC: b} }

// WrapDense wraps a vector block.
func WrapDense(d *DenseBlock) *BlockValue { return &BlockValue{Dense: d} }

// WriteTo implements wio.Writable.
func (v *BlockValue) WriteTo(w *wio.Writer) error {
	switch {
	case v.CSC != nil:
		if err := w.WriteByte(0); err != nil {
			return err
		}
		return v.CSC.WriteTo(w)
	case v.Dense != nil:
		if err := w.WriteByte(1); err != nil {
			return err
		}
		return v.Dense.WriteTo(w)
	}
	return w.WriteByte(2)
}

// ReadFields implements wio.Writable.
func (v *BlockValue) ReadFields(r *wio.Reader) error {
	tag, err := r.ReadByte()
	if err != nil {
		return err
	}
	v.CSC, v.Dense = nil, nil
	switch tag {
	case 0:
		v.CSC = new(CSCBlock)
		return v.CSC.ReadFields(r)
	case 1:
		v.Dense = new(DenseBlock)
		return v.Dense.ReadFields(r)
	case 2:
		return nil
	default:
		return fmt.Errorf("matrix: corrupt BlockValue tag %d", tag)
	}
}

// String implements fmt.Stringer.
func (v *BlockValue) String() string {
	switch {
	case v.CSC != nil:
		return v.CSC.String()
	case v.Dense != nil:
		return v.Dense.String()
	}
	return "empty"
}

// RandomCSC generates a deterministic sparse block with approximately
// sparsity*rows*cols entries, seeded per block.
func RandomCSC(rows, cols int32, sparsity float64, seed int64) *CSCBlock {
	rng := rand.New(rand.NewSource(seed))
	b := &CSCBlock{Rows: rows, Cols: cols, ColPtr: make([]int32, cols+1)}
	perCol := sparsity * float64(rows)
	for j := int32(0); j < cols; j++ {
		b.ColPtr[j] = int32(len(b.Vals))
		// Expected perCol entries per column; at least the fractional
		// probability for very sparse blocks.
		n := int(perCol)
		if rng.Float64() < perCol-float64(n) {
			n++
		}
		if n > int(rows) {
			n = int(rows)
		}
		rowsSeen := make(map[int32]bool, n)
		for len(rowsSeen) < n {
			rowsSeen[int32(rng.Intn(int(rows)))] = true
		}
		idx := make([]int32, 0, n)
		for r := range rowsSeen {
			idx = append(idx, r)
		}
		sortInt32(idx)
		for _, r := range idx {
			b.RowIdx = append(b.RowIdx, r)
			b.Vals = append(b.Vals, rng.Float64())
		}
	}
	b.ColPtr[cols] = int32(len(b.Vals))
	return b
}

func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// RandomDense generates a deterministic dense block.
func RandomDense(n int32, seed int64) *DenseBlock {
	rng := rand.New(rand.NewSource(seed))
	d := NewDenseBlock(int(n))
	for i := range d.Vals {
		d.Vals[i] = rng.Float64()
	}
	return d
}
