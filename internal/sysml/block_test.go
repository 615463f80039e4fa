package sysml_test

import (
	"math"
	"testing"
	"testing/quick"

	"m3r/internal/sysml"
	"m3r/internal/wio"
)

func denseMul(a, b [][]float64) [][]float64 {
	out := make([][]float64, len(a))
	for i := range out {
		out[i] = make([]float64, len(b[0]))
		for k := range b {
			for j := range b[0] {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func toDense(b *sysml.Block) [][]float64 {
	out := make([][]float64, b.R)
	for i := int32(0); i < b.R; i++ {
		out[i] = make([]float64, b.C)
		for j := int32(0); j < b.C; j++ {
			out[i][j] = b.At(i, j)
		}
	}
	return out
}

func closeMat(a, b [][]float64) bool {
	for i := range a {
		for j := range a[i] {
			if math.Abs(a[i][j]-b[i][j]) > 1e-9 {
				return false
			}
		}
	}
	return true
}

func TestBlockRoundTrip(t *testing.T) {
	b := sysml.RandomBlock(7, 5, 3, 0.2)
	data, err := wio.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	out := &sysml.Block{}
	if err := wio.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	if out.R != 7 || out.C != 5 || !closeMat(toDense(out), toDense(b)) {
		t.Fatal("round trip lost data")
	}
	tb := sysml.NewTagged(2, b)
	data, _ = wio.Marshal(tb)
	outT := &sysml.TaggedBlock{}
	if err := wio.Unmarshal(data, outT); err != nil {
		t.Fatal(err)
	}
	if outT.Tag != 2 || !closeMat(toDense(&outT.B), toDense(b)) {
		t.Fatal("tagged round trip lost data")
	}
}

func TestBlockMulVariants(t *testing.T) {
	a := sysml.RandomBlock(4, 6, 1, 0)
	b := sysml.RandomBlock(6, 3, 2, 0)
	da, db := toDense(a), toDense(b)

	if !closeMat(toDense(a.Mul(b)), denseMul(da, db)) {
		t.Error("Mul")
	}
	// TMul: aᵀ(6×4) × a2(6×3) where a2 shares row count with a.
	c := sysml.RandomBlock(4, 3, 3, 0)
	_ = c
	at := sysml.RandomBlock(6, 4, 4, 0)
	dat := toDense(at)
	// atᵀ × b : (4×6)·(6×3)
	tr := make([][]float64, 4)
	for i := range tr {
		tr[i] = make([]float64, 6)
		for j := 0; j < 6; j++ {
			tr[i][j] = dat[j][i]
		}
	}
	if !closeMat(toDense(at.TMul(b)), denseMul(tr, db)) {
		t.Error("TMul")
	}
	// MulT: a(4×6) × bt(3×6)ᵀ
	bt := sysml.RandomBlock(3, 6, 5, 0)
	dbt := toDense(bt)
	btT := make([][]float64, 6)
	for i := range btT {
		btT[i] = make([]float64, 3)
		for j := 0; j < 3; j++ {
			btT[i][j] = dbt[j][i]
		}
	}
	if !closeMat(toDense(a.MulT(bt)), denseMul(da, btT)) {
		t.Error("MulT")
	}
}

func TestBlockMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch should panic")
		}
	}()
	a := sysml.NewBlock(2, 3)
	b := sysml.NewBlock(2, 3)
	a.Mul(b)
}

func TestElementwiseOps(t *testing.T) {
	if err := quick.Check(func(x, y float64, alpha float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(alpha) ||
			math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsInf(alpha, 0) {
			return true
		}
		a, b := sysml.NewBlock(1, 1), sysml.NewBlock(1, 1)
		a.V[0], b.V[0] = x, y
		if a.Hadamard(b).V[0] != x*y {
			return false
		}
		if a.Axpy(alpha, b).V[0] != x+alpha*y {
			return false
		}
		if a.ScaleShift(alpha, 1).V[0] != alpha*x+1 {
			return false
		}
		want := x / (y + 1e-9)
		return a.DivEps(b).V[0] == want
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAndAdd(t *testing.T) {
	a := sysml.RandomBlock(5, 1, 9, 0)
	b := sysml.RandomBlock(5, 1, 10, 0)
	var want float64
	for i := range a.V {
		want += a.V[i] * b.V[i]
	}
	if math.Abs(a.Dot(b)-want) > 1e-12 {
		t.Error("Dot")
	}
	sum := a.Clone()
	sum.AddInPlace(b)
	for i := range a.V {
		if sum.V[i] != a.V[i]+b.V[i] {
			t.Fatal("AddInPlace")
		}
	}
}

func TestRandomBlockZeroFrac(t *testing.T) {
	all := sysml.RandomBlock(20, 20, 1, 0)
	none := sysml.RandomBlock(20, 20, 1, 1)
	nz := 0
	for _, v := range all.V {
		if v != 0 {
			nz++
		}
	}
	if nz != 400 {
		t.Errorf("zeroFrac=0 should fill every cell, got %d", nz)
	}
	for _, v := range none.V {
		if v != 0 {
			t.Fatal("zeroFrac=1 should zero every cell")
		}
	}
}

func TestDenseOfMatchesBlocks(t *testing.T) {
	d := sysml.DenseOf(40, 20, 20, 10, 5, 0.3)
	if len(d) != 40 || len(d[0]) != 20 {
		t.Fatal("shape")
	}
	// Regenerating yields identical data (determinism).
	d2 := sysml.DenseOf(40, 20, 20, 10, 5, 0.3)
	if !closeMat(d, d2) {
		t.Error("DenseOf must be deterministic")
	}
}

func TestReferenceAlgosRun(t *testing.T) {
	pr := sysml.PageRankReference(sysml.PageRankConfig{
		Nodes: 40, BlockSize: 20, Sparsity: 0.2, Iterations: 2, Seed: 1,
	})
	if len(pr) != 40 {
		t.Error("pagerank reference")
	}
	lr := sysml.LinRegReference(sysml.LinRegConfig{
		Points: 40, Vars: 20, BlockSize: 20, Iterations: 2, Seed: 2,
	})
	if len(lr) != 20 {
		t.Error("linreg reference")
	}
	w, h := sysml.GNMFReference(sysml.GNMFConfig{
		Rows: 40, Cols: 20, Rank: 4, BlockSize: 20, Sparsity: 0.5,
		Iterations: 1, Seed: 3,
	})
	if len(w) != 40 || len(h) != 4 {
		t.Error("gnmf reference")
	}
}
