package sysml_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"m3r/internal/sysml"
	"m3r/internal/wio"
)

// The At-indexed loops the row-walking kernels replaced, kept as the
// reference they must match bit for bit.

func refMul(b, o *sysml.Block) *sysml.Block {
	out := sysml.NewBlock(b.R, o.C)
	for i := int32(0); i < b.R; i++ {
		for k := int32(0); k < b.C; k++ {
			a := b.At(i, k)
			if a == 0 {
				continue
			}
			for j := int32(0); j < o.C; j++ {
				out.V[int(i)*int(o.C)+int(j)] += a * o.At(k, j)
			}
		}
	}
	return out
}

func refTMul(b, o *sysml.Block) *sysml.Block {
	out := sysml.NewBlock(b.C, o.C)
	for k := int32(0); k < b.R; k++ {
		for i := int32(0); i < b.C; i++ {
			a := b.At(k, i)
			if a == 0 {
				continue
			}
			for j := int32(0); j < o.C; j++ {
				out.V[int(i)*int(o.C)+int(j)] += a * o.At(k, j)
			}
		}
	}
	return out
}

func refMulT(b, o *sysml.Block) *sysml.Block {
	out := sysml.NewBlock(b.R, o.R)
	for i := int32(0); i < b.R; i++ {
		for j := int32(0); j < o.R; j++ {
			var sum float64
			for k := int32(0); k < b.C; k++ {
				sum += b.At(i, k) * o.At(j, k)
			}
			out.Set(i, j, sum)
		}
	}
	return out
}

// specials are the values whose bits a reordered kernel would change first.
var specials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8_0000_0000_0123),
	math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-300, -3,
}

// kernelBlock is an r×c block, a share zeroFrac of it zero; with special
// set, a tenth of the rest are drawn from specials.
func kernelBlock(rng *rand.Rand, r, c int32, zeroFrac float64, special bool) *sysml.Block {
	b := sysml.NewBlock(r, c)
	for i := range b.V {
		switch {
		case rng.Float64() < zeroFrac:
		case special && rng.Intn(10) == 0:
			b.V[i] = specials[rng.Intn(len(specials))]
		default:
			b.V[i] = rng.NormFloat64()
		}
	}
	return b
}

func sameBits(a, b *sysml.Block) error {
	if a.R != b.R || a.C != b.C || len(a.V) != len(b.V) {
		return fmt.Errorf("shape %dx%d (%d values), reference %dx%d (%d values)", a.R, a.C, len(a.V), b.R, b.C, len(b.V))
	}
	for i := range a.V {
		if math.Float64bits(a.V[i]) != math.Float64bits(b.V[i]) {
			return fmt.Errorf("element %d = %v (%#016x), reference %v (%#016x)",
				i, a.V[i], math.Float64bits(a.V[i]), b.V[i], math.Float64bits(b.V[i]))
		}
	}
	return nil
}

// TestBlockKernelsBitIdentical holds Mul, TMul and MulT, and the CSR × dense
// Mul, to the At-indexed loops, compared by bit pattern, over empty, vector
// and square shapes, the special values in both operands and the
// pagerank_iter shape (a 99 %-zero 100×100 block of G times a 100×1 block of
// the vector).
func TestBlockKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// r, m, c: Mul is (r×m)·(m×c), TMul (m×r)ᵀ·(m×c), MulT (r×m)·(c×m)ᵀ.
	shapes := []struct {
		r, m, c  int32
		zeroFrac float64
	}{
		{0, 0, 0, 0}, {0, 3, 2, 0}, {3, 0, 2, 0}, {3, 2, 0, 0},
		{1, 7, 1, 0}, {7, 1, 7, 0}, {1, 1, 9, 0}, {9, 1, 1, 0}, {1, 9, 9, 0.5},
		{5, 6, 4, 0.3}, {16, 16, 16, 0}, {100, 100, 1, 0.99},
	}
	for _, s := range shapes {
		for _, special := range []bool{false, true} {
			name := fmt.Sprintf("%dx%dx%d/zero=%g/special=%v", s.r, s.m, s.c, s.zeroFrac, special)
			a := kernelBlock(rng, s.r, s.m, s.zeroFrac, special)
			o := kernelBlock(rng, s.m, s.c, 0, special)
			if err := sameBits(a.Mul(o), refMul(a, o)); err != nil {
				t.Errorf("%s Mul: %v", name, err)
			}
			if err := sameBits(sysml.Sparsify(a).Mul(o), refMul(a, o)); err != nil {
				t.Errorf("%s sparse Mul: %v", name, err)
			}
			at := kernelBlock(rng, s.m, s.r, s.zeroFrac, special)
			if err := sameBits(at.TMul(o), refTMul(at, o)); err != nil {
				t.Errorf("%s TMul: %v", name, err)
			}
			ot := kernelBlock(rng, s.c, s.m, 0, special)
			if err := sameBits(a.MulT(ot), refMulT(a, ot)); err != nil {
				t.Errorf("%s MulT: %v", name, err)
			}
		}
	}
}

// TestSparsifyDenseRoundTrip holds Sparsify to its contract: every entry
// whose bits are not +0 is stored, in row and column order, and Dense gives
// back the block bit for bit; through the wire too.
func TestSparsifyDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range []struct {
		r, c     int32
		zeroFrac float64
	}{{0, 0, 0}, {0, 5, 0}, {5, 0, 0}, {1, 1, 1}, {3, 7, 0.5}, {16, 16, 0}, {100, 100, 0.99}} {
		b := kernelBlock(rng, s.r, s.c, s.zeroFrac, true)
		if len(b.V) > 1 {
			b.V[0], b.V[len(b.V)-1] = math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef)
		}
		name := fmt.Sprintf("%dx%d/zero=%g", s.r, s.c, s.zeroFrac)
		sp := sysml.Sparsify(b)
		want := 0
		for _, v := range b.V {
			if math.Float64bits(v) != 0 {
				want++
			}
		}
		if len(sp.V) != want || len(sp.Idx) != int(s.r)+1+want {
			t.Errorf("%s: %d entries, %d indices; want %d non-+0 entries", name, len(sp.V), len(sp.Idx), want)
		}
		if err := sameBits(sp.Dense(), b); err != nil {
			t.Errorf("%s: Dense(Sparsify(b)): %v", name, err)
		}
		data, err := wio.Marshal(sp)
		if err != nil {
			t.Fatal(err)
		}
		back := new(sysml.SparseBlock)
		if err := wio.Unmarshal(data, back); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if err := sameBits(back.Dense(), b); err != nil {
			t.Errorf("%s: through the wire: %v", name, err)
		}
	}
}

// FuzzSparseBlockDecode feeds arbitrary bytes to SparseBlock.ReadFields:
// an error, or a block that re-encodes to exactly the bytes it consumed and
// whose Mul matches its Dense's bit for bit; never a panic.
func FuzzSparseBlockDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for _, zeroFrac := range []float64{0, 0.5, 0.99} {
		seed, err := wio.Marshal(sysml.Sparsify(kernelBlock(rng, 6, 5, zeroFrac, true)))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
	}
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 2, 2, 2, 0, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		var r wio.Reader
		r.ResetBytes(data)
		s := new(sysml.SparseBlock)
		if s.ReadFields(&r) != nil {
			return
		}
		again, err := wio.Marshal(s)
		if err != nil {
			t.Fatalf("decoded %v does not encode: %v", s, err)
		}
		if !bytes.Equal(again, data[:r.Count()]) {
			t.Fatalf("decoded %v re-encodes to %x, read from %x", s, again, data[:r.Count()])
		}
		if s.R <= 64 && s.C <= 64 {
			o := sysml.RandomBlock(s.C, 2, 1, 0)
			if err := sameBits(s.Mul(o), s.Dense().Mul(o)); err != nil {
				t.Fatalf("%v: sparse Mul against dense: %v", s, err)
			}
		}
	})
}

// BenchmarkBlockMul runs Mul on the pagerank_iter shape (a 99 %-zero
// 100×100 block times a 100×1 block) and on dense 64×64 blocks: the row
// kernel on the dense block, the CSR kernel on its Sparsify, and the
// At-indexed reference loop.
func BenchmarkBlockMul(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct {
		name string
		a, o *sysml.Block
	}{
		{"pagerank", kernelBlock(rng, 100, 100, 0.99, false), kernelBlock(rng, 100, 1, 0, false)},
		{"dense64", kernelBlock(rng, 64, 64, 0, false), kernelBlock(rng, 64, 64, 0, false)},
	} {
		b.Run(c.name+"/rows", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.a.Mul(c.o)
			}
		})
		sparse := sysml.Sparsify(c.a)
		b.Run(c.name+"/sparse", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				sparse.Mul(c.o)
			}
		})
		b.Run(c.name+"/at-reference", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				refMul(c.a, c.o)
			}
		})
	}
}
