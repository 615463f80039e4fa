package sysml

import (
	"fmt"
	"math"
	"math/bits"

	"m3r/internal/wio"
)

// sparseTurnPoint is SystemML's MatrixBlock sparsity turn point: WriteMat
// stores a generated matrix as SparseBlocks when less than this share of its
// entries are non-zero, and as dense Blocks otherwise. It is a property of
// the data, not a knob.
const sparseTurnPoint = 0.4

// SparseBlock is a matrix block in compressed sparse row form. Idx holds the
// R+1 row pointers followed by the column indices, one allocation for both:
// row i's entries are V[Idx[i]:Idx[i+1]], in columns Idx[R+1:][Idx[i]:Idx[i+1]],
// which strictly increase. An entry absent from V is +0.
type SparseBlock struct {
	R, C int32
	Idx  []int32
	V    []float64
}

// idxChunk bounds what a corrupt entry count can make ReadFields allocate
// for Idx before the indices arrive (matrix.CSCBlock's rule).
const idxChunk = 1 << 16

// nonZeros counts the entries of b whose bits are not +0.
func nonZeros(b *Block) int {
	n := 0
	for _, v := range b.V {
		if math.Float64bits(v) != 0 {
			n++
		}
	}
	return n
}

// Sparsify stores every entry of b whose bits are not +0, so -0 and NaN
// payloads survive and Dense is its bit-exact inverse.
func Sparsify(b *Block) *SparseBlock {
	nnz := nonZeros(b)
	s := &SparseBlock{R: b.R, C: b.C, Idx: make([]int32, int(b.R)+1, int(b.R)+1+nnz), V: make([]float64, 0, nnz)}
	for i := range int(b.R) {
		for j, v := range b.row(i) {
			if math.Float64bits(v) != 0 {
				s.Idx = append(s.Idx, int32(j))
				s.V = append(s.V, v)
			}
		}
		s.Idx[i+1] = int32(len(s.V))
	}
	return s
}

// cols returns the column indices of all entries, in storage order.
func (s *SparseBlock) cols() []int32 { return s.Idx[s.R+1:] }

// Dense returns the block in dense form.
func (s *SparseBlock) Dense() *Block {
	out := NewBlock(s.R, s.C)
	cols := s.cols()
	for i := range int(s.R) {
		dst := out.row(i)
		for p := s.Idx[i]; p < s.Idx[i+1]; p++ {
			dst[cols[p]] = s.V[p]
		}
	}
	return out
}

// Mul returns s × o as a dense block. It walks each row's entries in column
// order and skips a zero value: the dense loop's k order and its skip, so
// the result is bit-identical to s.Dense().Mul(o).
func (s *SparseBlock) Mul(o *Block) *Block {
	if s.C != o.R {
		panic(fmt.Sprintf("sysml: dimension mismatch %v × %v", s, o))
	}
	out := NewBlock(s.R, o.C)
	cols := s.cols()
	for i := range int(s.R) {
		dst := out.row(i)
		lo, hi := s.Idx[i], s.Idx[i+1]
		for p, k := range cols[lo:hi] {
			a := s.V[int(lo)+p]
			if a == 0 {
				continue
			}
			src := o.row(int(k))[:len(dst)]
			for j, v := range src {
				dst[j] += a * v
			}
		}
	}
	return out
}

// WriteTo implements wio.Writable: R and C, a uvarint entry count, a
// uvarint count per row, a uvarint column per entry, then the values as
// WriteFloat64s writes them.
func (s *SparseBlock) WriteTo(w *wio.Writer) error {
	if s.R < 0 || len(s.Idx) != int(s.R)+1+len(s.V) {
		return fmt.Errorf("sysml: malformed %v: %d indices", s, len(s.Idx))
	}
	if err := w.WriteInt32(s.R); err != nil {
		return err
	}
	if err := w.WriteInt32(s.C); err != nil {
		return err
	}
	if err := w.WriteUvarint(uint64(len(s.V))); err != nil {
		return err
	}
	for i := range int(s.R) {
		if err := w.WriteUvarint(uint64(s.Idx[i+1] - s.Idx[i])); err != nil {
			return err
		}
	}
	for _, j := range s.cols() {
		if err := w.WriteUvarint(uint64(j)); err != nil {
			return err
		}
	}
	return w.WriteFloat64s(s.V)
}

// ReadFields implements wio.Writable. A block that breaks the layout —
// negative dimensions, more entries than cells or than wio's length limit,
// row counts that do not sum to the entry count, a column out of range or
// out of order — is an error, never a panic.
func (s *SparseBlock) ReadFields(r *wio.Reader) error {
	var err error
	if s.R, err = r.ReadInt32(); err != nil {
		return err
	}
	if s.C, err = r.ReadInt32(); err != nil {
		return err
	}
	if s.R < 0 || s.C < 0 {
		return fmt.Errorf("sysml: corrupt sparse block dimensions %dx%d", s.R, s.C)
	}
	nnz, err := readUvarint(r)
	if err != nil {
		return err
	}
	if nnz > uint64(s.R)*uint64(s.C) {
		return fmt.Errorf("sysml: corrupt sparse block: %d entries in %dx%d", nnz, s.R, s.C)
	}
	n, err := wio.CheckLen(uint64(s.R)+1+nnz, 4)
	if err != nil {
		return err
	}
	if cap(s.Idx) < n {
		s.Idx = make([]int32, 0, min(n, idxChunk))
	}
	s.Idx = append(s.Idx[:0], 0)
	for i := range int(s.R) {
		k, err := readUvarint(r)
		if err != nil {
			return err
		}
		end := s.Idx[i]
		if k > nnz-uint64(end) {
			return fmt.Errorf("sysml: corrupt sparse block: row counts exceed %d entries", nnz)
		}
		s.Idx = append(s.Idx, end+int32(k))
	}
	if uint64(s.Idx[s.R]) != nnz {
		return fmt.Errorf("sysml: corrupt sparse block: row counts sum to %d of %d entries", s.Idx[s.R], nnz)
	}
	for i := range int(s.R) {
		prev := int64(-1)
		for range s.Idx[i+1] - s.Idx[i] {
			j, err := readUvarint(r)
			if err != nil {
				return err
			}
			if j >= uint64(s.C) || int64(j) <= prev {
				return fmt.Errorf("sysml: corrupt sparse block: column %d out of range or order in row %d of %dx%d", j, i, s.R, s.C)
			}
			prev = int64(j)
			s.Idx = append(s.Idx, int32(j))
		}
	}
	s.V, err = r.ReadFloat64s(s.V, nnz)
	return err
}

// readUvarint reads a uvarint that must be in its shortest form: a longer
// encoding of the same value would decode to a block that re-encodes to
// other bytes.
func readUvarint(r *wio.Reader) (uint64, error) {
	start := r.Count()
	v, err := r.ReadUvarint()
	if err == nil && r.Count()-start != int64(bits.Len64(v|1)+6)/7 {
		return v, fmt.Errorf("sysml: corrupt sparse block: %d-byte encoding of %d", r.Count()-start, v)
	}
	return v, err
}

// String implements fmt.Stringer.
func (s *SparseBlock) String() string {
	return fmt.Sprintf("sparse[%dx%d nnz=%d]", s.R, s.C, len(s.V))
}

// denseOf returns a block value in dense form: every consumer but the
// sparse × dense multiply takes its operands this way.
func denseOf(v wio.Writable) *Block {
	if s, ok := v.(*SparseBlock); ok {
		return s.Dense()
	}
	return v.(*Block)
}
