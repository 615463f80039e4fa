package integration_test

import (
	"math"
	"slices"
	"strings"
	"testing"

	"m3r/internal/dfs"
	"m3r/internal/engine"
	"m3r/internal/formats"
	"m3r/internal/lab"
	"m3r/internal/matrix"
	"m3r/internal/sysml"
	"m3r/internal/wio"
)

func newDriver(t *testing.T, eng engine.Engine, dir string, partitions int) *sysml.Driver {
	t.Helper()
	d, err := sysml.NewDriver(eng, dir, partitions)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func matClose(t *testing.T, got [][]float64, want [][]float64, label string, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: rows %d vs %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if math.Abs(got[i][j]-want[i][j]) > tol*(1+math.Abs(want[i][j])) {
				t.Fatalf("%s: (%d,%d): got %g want %g", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// valueClass returns the value class the SequenceFile headers under path
// name, failing the test unless every part file names the same one.
func valueClass(t *testing.T, d *sysml.Driver, path string) string {
	t.Helper()
	files, err := dfs.ListRecursive(d.FS, path)
	if err != nil {
		t.Fatalf("list %s: %v", path, err)
	}
	class := ""
	for _, f := range files {
		if f.IsDir || !strings.HasPrefix(dfs.Base(f.Path), "part-") {
			continue
		}
		r, err := formats.NewSeqReader(d.FS, f.Path, 0, -1)
		if err != nil {
			t.Fatalf("open %s: %v", f.Path, err)
		}
		c := r.ValClass()
		r.Close()
		if class != "" && c != class {
			t.Fatalf("%s: part files of value classes %s and %s", path, class, c)
		}
		class = c
	}
	return class
}

// wantValueClass fails the test unless the matrices at paths are stored as
// class.
func wantValueClass(t *testing.T, d *sysml.Driver, class string, paths ...string) {
	t.Helper()
	for _, p := range paths {
		if got := valueClass(t, d, p); got != class {
			t.Errorf("%s is stored as %s, want %s", p, got, class)
		}
	}
}

func colVec(m [][]float64) []float64 {
	out := make([]float64, len(m))
	for i := range m {
		out[i] = m[i][0]
	}
	return out
}

// TestSysmlPageRankBothEngines runs the Fig. 11 workload at test size on
// both engines and checks against the dense reference.
func TestSysmlPageRankBothEngines(t *testing.T) {
	cfg := sysml.PageRankConfig{
		Nodes: 120, BlockSize: 30, Sparsity: 0.1, Iterations: 3, Seed: 21,
	}
	want := sysml.PageRankReference(cfg)
	for _, which := range []string{"hadoop", "m3r"} {
		t.Run(which, func(t *testing.T) {
			c := newCluster(t, lab.Options{Nodes: 3})
			eng := engine.Engine(c.Hadoop)
			if which == "m3r" {
				eng = c.M3R
			}
			d := newDriver(t, eng, "/pr", 3)
			out, err := sysml.PageRank(d, cfg)
			if err != nil {
				t.Fatalf("pagerank: %v", err)
			}
			dense, err := d.ReadDense(out)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			got := colVec(dense)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("rank %d: got %g want %g", i, got[i], want[i])
				}
			}
			// 3 jobs per iteration: multiply, aggregate, scale.
			if d.JobCount() != 3*cfg.Iterations {
				t.Errorf("job count: %d, want %d", d.JobCount(), 3*cfg.Iterations)
			}
			// G is 10 % dense, below the 0.4 turn point; the vector and the
			// result are dense.
			wantValueClass(t, d, sysml.SparseBlockName, "/pr/G")
			wantValueClass(t, d, sysml.BlockName, "/pr/p0", out.Path)

			// The loop again over the same G and p0, as a benchmark rep
			// runs it: the same ranks, bit for bit, G and p0 untouched, and
			// nothing left behind but the inputs and the output.
			listing := func() []dfs.FileStatus {
				t.Helper()
				left, err := d.FS.List(d.Dir)
				if err != nil {
					t.Fatal(err)
				}
				var names []string
				for _, f := range left {
					names = append(names, dfs.Base(f.Path))
				}
				if want := []string{"G", "p0", "pagerank_out"}; !slices.Equal(names, want) {
					t.Fatalf("%s holds %v, want %v", d.Dir, names, want)
				}
				return left
			}
			before := listing()
			if err := d.FS.Delete(out.Path, true); err != nil {
				t.Fatal(err)
			}
			G := sysml.Mat{Path: "/pr/G", Rows: cfg.Nodes, Cols: cfg.Nodes, RPB: cfg.BlockSize, CPB: cfg.BlockSize}
			p0 := sysml.Mat{Path: "/pr/p0", Rows: cfg.Nodes, Cols: 1, RPB: cfg.BlockSize, CPB: 1}
			again, err := sysml.IteratePageRank(d, cfg, G, p0)
			if err != nil {
				t.Fatalf("pagerank again: %v", err)
			}
			if dense, err = d.ReadDense(again); err != nil {
				t.Fatalf("read: %v", err)
			}
			for i, v := range colVec(dense) {
				if math.Float64bits(v) != math.Float64bits(got[i]) {
					t.Fatalf("rank %d: %g again, %g the first time", i, v, got[i])
				}
			}
			if after := listing(); !slices.Equal(after[:2], before[:2]) {
				t.Errorf("the loop rewrote its inputs: %v, then %v", before[:2], after[:2])
			}
		})
	}
}

// TestSysmlLinRegBothEngines runs the Fig. 10 workload at test size.
func TestSysmlLinRegBothEngines(t *testing.T) {
	cfg := sysml.LinRegConfig{
		Points: 90, Vars: 30, BlockSize: 30, Iterations: 3, Seed: 31,
	}
	want := sysml.LinRegReference(cfg)
	for _, which := range []string{"hadoop", "m3r"} {
		t.Run(which, func(t *testing.T) {
			c := newCluster(t, lab.Options{Nodes: 3})
			eng := engine.Engine(c.Hadoop)
			if which == "m3r" {
				eng = c.M3R
			}
			d := newDriver(t, eng, "/lr", 3)
			w, err := sysml.LinReg(d, cfg)
			if err != nil {
				t.Fatalf("linreg: %v", err)
			}
			dense, err := d.ReadDense(w)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			got := colVec(dense)
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
					t.Fatalf("w[%d]: got %g want %g", i, got[i], want[i])
				}
			}
			// X is half zeros, above the turn point. (The all-zero start
			// vector w0 is below it, and its first axpy, which takes it
			// dense, drops it.)
			wantValueClass(t, d, sysml.BlockName, "/lr/X", "/lr/y", w.Path)
		})
	}
}

// TestSysmlGNMFBothEngines runs the Fig. 9 workload at test size.
func TestSysmlGNMFBothEngines(t *testing.T) {
	cfg := sysml.GNMFConfig{
		Rows: 60, Cols: 60, Rank: 4, BlockSize: 30, Sparsity: 0.3,
		Iterations: 2, Seed: 41,
	}
	wantW, wantH := sysml.GNMFReference(cfg)
	for _, which := range []string{"hadoop", "m3r"} {
		t.Run(which, func(t *testing.T) {
			c := newCluster(t, lab.Options{Nodes: 3})
			eng := engine.Engine(c.Hadoop)
			if which == "m3r" {
				eng = c.M3R
			}
			d := newDriver(t, eng, "/gnmf", 3)
			W, H, err := sysml.GNMF(d, cfg)
			if err != nil {
				t.Fatalf("gnmf: %v", err)
			}
			gotW, err := d.ReadDense(W)
			if err != nil {
				t.Fatal(err)
			}
			gotH, err := d.ReadDense(H)
			if err != nil {
				t.Fatal(err)
			}
			matClose(t, gotW, wantW, "W", 1e-7)
			matClose(t, gotH, wantH, "H", 1e-7)
			// V is 30 % dense: sparse on the right of WᵀV and on the left of
			// VHᵀ, whose kernels take it dense.
			wantValueClass(t, d, sysml.SparseBlockName, "/gnmf/V")
			wantValueClass(t, d, sysml.BlockName, "/gnmf/W0", "/gnmf/H0", W.Path, H.Path)
			// 10 jobs per iteration, plus the 2 generator-free setup jobs
			// embedded in the loop structure (none here).
			if d.JobCount() != 10*cfg.Iterations {
				t.Errorf("job count: %d, want %d", d.JobCount(), 10*cfg.Iterations)
			}
		})
	}
}

// TestSysmlSparseMatVecMatchesDense multiplies one G stored both ways — as
// the SparseBlocks WriteMat picks for it and as dense Blocks written by hand
// — by the same vector on both engines: the two products, and the engines'
// products, must be equal bit for bit.
func TestSysmlSparseMatVecMatchesDense(t *testing.T) {
	const n, bs = 120, 30
	bits := map[string][]uint64{}
	for _, which := range []string{"hadoop", "m3r"} {
		t.Run(which, func(t *testing.T) {
			c := newCluster(t, lab.Options{Nodes: 3})
			eng := engine.Engine(c.Hadoop)
			if which == "m3r" {
				eng = c.M3R
			}
			d := newDriver(t, eng, "/mv", 3)
			sparse, err := d.WriteMat("G", n, n, bs, bs, 5, 0.9)
			if err != nil {
				t.Fatal(err)
			}
			x, err := d.WriteMat("x", n, 1, bs, 1, 6, 0)
			if err != nil {
				t.Fatal(err)
			}
			wantValueClass(t, d, sysml.SparseBlockName, sparse.Path)

			blocks, err := sysml.ReadBlocks(d.FS, sparse.Path)
			if err != nil {
				t.Fatal(err)
			}
			var pairs []wio.Pair
			for k, b := range blocks {
				pairs = append(pairs, wio.Pair{Key: matrix.NewBlockKey(k.Row, k.Col), Value: b})
			}
			slices.SortFunc(pairs, func(a, b wio.Pair) int { return a.Key.(*matrix.BlockKey).CompareTo(b.Key) })
			dense := sparse
			dense.Path = "/mv/Gdense"
			if err := formats.WriteSeqFile(d.FS, dense.Path+"/part-00000", matrix.BlockKeyName, sysml.BlockName, pairs); err != nil {
				t.Fatal(err)
			}

			ys, err := d.MatVec(sparse, x, "/mv/ys")
			if err != nil {
				t.Fatalf("sparse matvec: %v", err)
			}
			yd, err := d.MatVec(dense, x, "/mv/yd")
			if err != nil {
				t.Fatalf("dense matvec: %v", err)
			}
			wantValueClass(t, d, sysml.BlockName, ys.Path, yd.Path)
			got, want := denseBits(t, d, ys), denseBits(t, d, yd)
			if !slices.Equal(got, want) {
				t.Fatalf("G·x over sparse blocks differs from G·x over dense blocks:\n%x\n%x", got, want)
			}
			bits[which] = got
		})
	}
	if !slices.Equal(bits["hadoop"], bits["m3r"]) {
		t.Fatalf("G·x differs between the engines:\n%x\n%x", bits["hadoop"], bits["m3r"])
	}
}

// TestSysmlOpsUnit exercises individual op jobs against dense algebra on
// the M3R engine.
func TestSysmlOpsUnit(t *testing.T) {
	c := newCluster(t, lab.Options{Nodes: 2})
	d := newDriver(t, c.M3R, "/ops", 2)

	A, err := d.WriteMat("A", 40, 40, 20, 20, 7, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	x, err := d.WriteMat("x", 40, 1, 20, 1, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	denseA := sysml.DenseOf(40, 40, 20, 20, 7, 0.2)
	denseX := colVec(sysml.DenseOf(40, 1, 20, 1, 8, 0))

	// MatVec.
	y, err := d.MatVec(A, x, "/ops/y")
	if err != nil {
		t.Fatalf("matvec: %v", err)
	}
	gotY, err := d.ReadDense(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		var want float64
		for j := 0; j < 40; j++ {
			want += denseA[i][j] * denseX[j]
		}
		if math.Abs(gotY[i][0]-want) > 1e-9 {
			t.Fatalf("matvec[%d]: got %g want %g", i, gotY[i][0], want)
		}
	}

	// TMatVec.
	z, err := d.TMatVec(A, x, "/ops/z")
	if err != nil {
		t.Fatalf("tmatvec: %v", err)
	}
	gotZ, err := d.ReadDense(z)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 40; j++ {
		var want float64
		for i := 0; i < 40; i++ {
			want += denseA[i][j] * denseX[i]
		}
		if math.Abs(gotZ[j][0]-want) > 1e-9 {
			t.Fatalf("tmatvec[%d]: got %g want %g", j, gotZ[j][0], want)
		}
	}

	// Dot.
	dot, err := d.Dot(x, x)
	if err != nil {
		t.Fatalf("dot: %v", err)
	}
	var wantDot float64
	for _, v := range denseX {
		wantDot += v * v
	}
	if math.Abs(dot-wantDot) > 1e-9 {
		t.Fatalf("dot: got %g want %g", dot, wantDot)
	}

	// Elem2 axpy.
	s, err := d.Elem2(x, x, "axpy", 2, "/ops/s")
	if err != nil {
		t.Fatalf("axpy: %v", err)
	}
	gotS, err := d.ReadDense(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := range denseX {
		if math.Abs(gotS[i][0]-3*denseX[i]) > 1e-9 {
			t.Fatalf("axpy[%d]: got %g want %g", i, gotS[i][0], 3*denseX[i])
		}
	}

	// Gram (AᵀA of the skinny x treated as 40×1).
	g, err := d.Gram(x, "atself", "/ops/g")
	if err != nil {
		t.Fatalf("gram: %v", err)
	}
	gotG, err := d.ReadDense(g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotG[0][0]-wantDot) > 1e-9 {
		t.Fatalf("gram: got %g want %g", gotG[0][0], wantDot)
	}
}
