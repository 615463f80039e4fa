// Package sysml is a miniature stand-in for the SystemML runtime of paper
// §6.4: a blocked matrix algebra whose operations "compile" to Hadoop
// MapReduce job sequences. Like the code the real SystemML compiler
// emitted, these jobs are deliberately NOT tuned for M3R: no
// ImmutableOutput markers (so M3R clones defensively) and the default hash
// partitioner (no partition stability). What the GNMF / linear regression /
// PageRank experiments measure is exactly this compiler-generated style of
// MR code on both engines.
//
// "Not tuned" is about what the jobs ask of the engine, not about how a
// block turns into bytes. Like SystemML's MatrixBlock, a generated input
// matrix whose share of non-zeros is below 0.4 (sparseTurnPoint) is stored
// as compressed sparse rows (SparseBlock), and every other matrix and every
// job result as a dense Block. Both serialize their values through wio's
// bulk float64 codec. Every pair is still cloned and every key still
// hash-partitioned.
package sysml

import (
	"fmt"
	"math/rand"

	"m3r/internal/wio"
)

// Registered writable names.
const (
	BlockName       = "sysml.runtime.matrix.MatrixBlock"
	SparseBlockName = "sysml.runtime.matrix.SparseMatrixBlock"
	TaggedBlockName = "sysml.runtime.matrix.TaggedMatrixBlock"
)

func init() {
	wio.RegisterNew[Block](BlockName)
	wio.RegisterNew[SparseBlock](SparseBlockName)
	wio.RegisterNew[TaggedBlock](TaggedBlockName)
}

// Block is a dense row-major matrix block.
type Block struct {
	R, C int32
	V    []float64
}

// NewBlock returns a zeroed r×c block.
func NewBlock(r, c int32) *Block {
	return &Block{R: r, C: c, V: make([]float64, int(r)*int(c))}
}

// At returns element (i, j).
func (b *Block) At(i, j int32) float64 { return b.V[int(i)*int(b.C)+int(j)] }

// Set assigns element (i, j).
func (b *Block) Set(i, j int32, v float64) { b.V[int(i)*int(b.C)+int(j)] = v }

// WriteTo implements wio.Writable.
func (b *Block) WriteTo(w *wio.Writer) error {
	if err := w.WriteInt32(b.R); err != nil {
		return err
	}
	if err := w.WriteInt32(b.C); err != nil {
		return err
	}
	return w.WriteFloat64s(b.V)
}

// ReadFields implements wio.Writable.
func (b *Block) ReadFields(r *wio.Reader) error {
	var err error
	if b.R, err = r.ReadInt32(); err != nil {
		return err
	}
	if b.C, err = r.ReadInt32(); err != nil {
		return err
	}
	if b.R < 0 || b.C < 0 {
		return fmt.Errorf("sysml: corrupt block dimensions %dx%d", b.R, b.C)
	}
	b.V, err = r.ReadFloat64s(b.V, uint64(b.R)*uint64(b.C))
	return err
}

// String implements fmt.Stringer.
func (b *Block) String() string { return fmt.Sprintf("block[%dx%d]", b.R, b.C) }

// Clone returns a deep copy.
func (b *Block) Clone() *Block {
	out := NewBlock(b.R, b.C)
	copy(out.V, b.V)
	return out
}

// row returns row i of the block as a sub-slice of V.
func (b *Block) row(i int) []float64 { return b.V[i*int(b.C) : (i+1)*int(b.C)] }

// The three products below walk row sub-slices. Each must add its terms in
// the order of the At-indexed reference loop in TestBlockKernelsBitIdentical,
// so that its results stay bit-identical to it on both engines.

// Mul returns a × o (R×C · o.R×o.C with C == o.R).
func (b *Block) Mul(o *Block) *Block {
	if b.C != o.R {
		panic(fmt.Sprintf("sysml: dimension mismatch %v × %v", b, o))
	}
	out := NewBlock(b.R, o.C)
	for i := range int(b.R) {
		dst := out.row(i)
		for k, a := range b.row(i) {
			if a == 0 {
				continue
			}
			src := o.row(k)[:len(dst)]
			for j, v := range src {
				dst[j] += a * v
			}
		}
	}
	return out
}

// TMul returns bᵀ × o (b is m×r, o is m×c, result r×c).
func (b *Block) TMul(o *Block) *Block {
	if b.R != o.R {
		panic(fmt.Sprintf("sysml: dimension mismatch %vᵀ × %v", b, o))
	}
	out := NewBlock(b.C, o.C)
	for k := range int(b.R) {
		src := o.row(k)
		for i, a := range b.row(k) {
			if a == 0 {
				continue
			}
			dst := out.row(i)[:len(src)]
			for j, v := range src {
				dst[j] += a * v
			}
		}
	}
	return out
}

// MulT returns b × oᵀ (b is r×m, o is c×m, result r×c).
func (b *Block) MulT(o *Block) *Block {
	if b.C != o.C {
		panic(fmt.Sprintf("sysml: dimension mismatch %v × %vᵀ", b, o))
	}
	out := NewBlock(b.R, o.R)
	for i := range int(b.R) {
		bi, dst := b.row(i), out.row(i)
		for j := range dst {
			oj := o.row(j)[:len(bi)]
			var sum float64
			for k, v := range bi {
				sum += v * oj[k]
			}
			dst[j] = sum
		}
	}
	return out
}

// AddInPlace accumulates o into b.
func (b *Block) AddInPlace(o *Block) {
	for i, v := range o.V {
		b.V[i] += v
	}
}

// Hadamard returns the elementwise product.
func (b *Block) Hadamard(o *Block) *Block {
	out := NewBlock(b.R, b.C)
	for i := range b.V {
		out.V[i] = b.V[i] * o.V[i]
	}
	return out
}

// DivEps returns the elementwise quotient with GNMF's small-denominator
// guard.
func (b *Block) DivEps(o *Block) *Block {
	out := NewBlock(b.R, b.C)
	for i := range b.V {
		out.V[i] = b.V[i] / (o.V[i] + 1e-9)
	}
	return out
}

// Axpy returns b + alpha·o.
func (b *Block) Axpy(alpha float64, o *Block) *Block {
	out := NewBlock(b.R, b.C)
	for i := range b.V {
		out.V[i] = b.V[i] + alpha*o.V[i]
	}
	return out
}

// ScaleShift returns alpha·b + beta (elementwise).
func (b *Block) ScaleShift(alpha, beta float64) *Block {
	out := NewBlock(b.R, b.C)
	for i := range b.V {
		out.V[i] = alpha*b.V[i] + beta
	}
	return out
}

// Dot returns the elementwise inner product with o.
func (b *Block) Dot(o *Block) float64 {
	var sum float64
	for i := range b.V {
		sum += b.V[i] * o.V[i]
	}
	return sum
}

// TaggedBlock routes blocks from different inputs of one shuffle to the
// right operand slot in the reducer, SystemML's tagged-value pattern. It
// carries one block of either kind, by value: B when dense, S when Sparse is
// set. On the wire the sparse kind sets the tag byte's high bit (sparseTag),
// so a dense TaggedBlock's bytes are those of a tag and a Block.
//
// ReadFields decodes into B or S, so a decoded TaggedBlock is one object,
// and a later ReadFields into the same TaggedBlock reuses their storage, as
// a Block's does. Consumers take the block through value().
type TaggedBlock struct {
	Tag    byte
	Sparse bool
	B      Block
	S      SparseBlock
}

// sparseTag marks a tag byte followed by a SparseBlock. Tags are operand
// slots (0–2) and never reach it.
const sparseTag = 0x80

// NewTagged wraps b under tag. The TaggedBlock shares b's values.
func NewTagged(tag byte, b *Block) *TaggedBlock { return &TaggedBlock{Tag: tag, B: *b} }

// tagValue wraps a map input value, dense or sparse, under tag.
func tagValue(tag byte, v wio.Writable) *TaggedBlock {
	if s, ok := v.(*SparseBlock); ok {
		return &TaggedBlock{Tag: tag, Sparse: true, S: *s}
	}
	return NewTagged(tag, v.(*Block))
}

// value returns the carried block, of whichever kind. It points into t.
func (t *TaggedBlock) value() wio.Writable {
	if t.Sparse {
		return &t.S
	}
	return &t.B
}

// WriteTo implements wio.Writable.
func (t *TaggedBlock) WriteTo(w *wio.Writer) error {
	if t.Sparse {
		if err := w.WriteByte(t.Tag | sparseTag); err != nil {
			return err
		}
		return t.S.WriteTo(w)
	}
	if err := w.WriteByte(t.Tag); err != nil {
		return err
	}
	return t.B.WriteTo(w)
}

// ReadFields implements wio.Writable.
func (t *TaggedBlock) ReadFields(r *wio.Reader) error {
	tag, err := r.ReadByte()
	if err != nil {
		return err
	}
	t.Tag, t.Sparse = tag&^sparseTag, tag&sparseTag != 0
	if t.Sparse {
		return t.S.ReadFields(r)
	}
	return t.B.ReadFields(r)
}

// String implements fmt.Stringer.
func (t *TaggedBlock) String() string { return fmt.Sprintf("t%d:%v", t.Tag, t.value()) }

// RandomBlock generates a deterministic block; a fraction `zeroFrac` of
// entries are zeroed to emulate sparse data.
func RandomBlock(r, c int32, seed int64, zeroFrac float64) *Block {
	rng := rand.New(rand.NewSource(seed))
	b := NewBlock(r, c)
	for i := range b.V {
		if zeroFrac > 0 && rng.Float64() < zeroFrac {
			continue
		}
		b.V[i] = rng.Float64()
	}
	return b
}
