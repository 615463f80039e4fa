package sysml

import (
	"cmp"
	"fmt"
)

// The three "R-like declarative" programs of paper §6.4, expressed over
// the sysml op library the way the SystemML compiler would lower them to
// MapReduce job sequences. Each returns the number of MR jobs it ran via
// Driver.JobCount — PageRank runs 3 jobs/iteration, linear regression ~8,
// GNMF 10, which is why engine startup and cross-job caching dominate the
// comparison in Figs. 9–11.

// PageRankConfig sizes the Fig. 11 experiment.
type PageRankConfig struct {
	Nodes      int32 // graph size (square matrix dimension)
	BlockSize  int32
	Sparsity   float64 // fraction of nonzero entries in G
	Alpha      float64 // damping factor
	Iterations int
	Seed       int64
}

// PageRank writes G and p0 under d.Dir and runs IteratePageRank over them.
func PageRank(d *Driver, cfg PageRankConfig) (Mat, error) {
	G, p0, err := WritePageRankInputs(d, cfg)
	if err != nil {
		return Mat{}, err
	}
	return IteratePageRank(d, cfg, G, p0)
}

// WritePageRankInputs writes G and p0 under d.Dir; it needs only d.FS.
func WritePageRankInputs(d *Driver, cfg PageRankConfig) (G, p0 Mat, err error) {
	if G, err = d.WriteMat("G", cfg.Nodes, cfg.Nodes, cfg.BlockSize, cfg.BlockSize, cfg.Seed, 1-cfg.Sparsity); err == nil {
		p0, err = d.WriteMat("p0", cfg.Nodes, 1, cfg.BlockSize, 1, cfg.Seed+1, 0)
	}
	return G, p0, err
}

// IteratePageRank runs cfg.Iterations of p ← α·G·p + (1-α)/n from p0 into
// d.Dir's temp_gp_<i>, temp_p_<i> and at last pagerank_out. It deletes what
// it consumed but G and p0, so it reruns over them once pagerank_out is gone.
func IteratePageRank(d *Driver, cfg PageRankConfig, G, p0 Mat) (Mat, error) {
	alpha := cmp.Or(cfg.Alpha, 0.85)
	teleport := (1 - alpha) / float64(cfg.Nodes)
	p := p0
	for it := 0; it < cfg.Iterations; it++ {
		gp, err := d.MatVec(G, p, fmt.Sprintf("%s/temp_gp_%d", d.Dir, it))
		if err != nil {
			return Mat{}, fmt.Errorf("pagerank iteration %d: %w", it, err)
		}
		out := fmt.Sprintf("%s/temp_p_%d", d.Dir, it)
		if it == cfg.Iterations-1 {
			out = d.Dir + "/pagerank_out"
		}
		next, err := d.Scale(gp, alpha, teleport, out)
		if err != nil {
			return Mat{}, fmt.Errorf("pagerank iteration %d: %w", it, err)
		}
		if p.Path == p0.Path {
			p.Path = "" // which drop skips: p0 stays
		}
		if err := d.drop(gp.Path, p.Path); err != nil {
			return Mat{}, err
		}
		p = next
	}
	return p, nil
}

// PageRankReference computes the same iteration densely.
func PageRankReference(cfg PageRankConfig) []float64 {
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.85
	}
	g := DenseOf(cfg.Nodes, cfg.Nodes, cfg.BlockSize, cfg.BlockSize, cfg.Seed, 1-cfg.Sparsity)
	pm := DenseOf(cfg.Nodes, 1, cfg.BlockSize, 1, cfg.Seed+1, 0)
	p := make([]float64, cfg.Nodes)
	for i := range p {
		p[i] = pm[i][0]
	}
	teleport := (1 - cfg.Alpha) / float64(cfg.Nodes)
	for it := 0; it < cfg.Iterations; it++ {
		next := make([]float64, len(p))
		for i := range g {
			var sum float64
			for j, v := range g[i] {
				sum += v * p[j]
			}
			next[i] = cfg.Alpha*sum + teleport
		}
		p = next
	}
	return p
}

// LinRegConfig sizes the Fig. 10 experiment: conjugate gradient on the
// normal equations XᵀX·w = Xᵀy.
type LinRegConfig struct {
	Points     int32 // sample count (rows of X)
	Vars       int32 // variables (columns of X)
	BlockSize  int32
	Iterations int
	Seed       int64
}

// LinReg runs CG iterations and returns the weight vector handle.
func LinReg(d *Driver, cfg LinRegConfig) (Mat, error) {
	X, err := d.WriteMat("X", cfg.Points, cfg.Vars, cfg.BlockSize, cfg.BlockSize, cfg.Seed, 0.5)
	if err != nil {
		return Mat{}, err
	}
	y, err := d.WriteMat("y", cfg.Points, 1, cfg.BlockSize, 1, cfg.Seed+1, 0)
	if err != nil {
		return Mat{}, err
	}
	// b = Xᵀy; w starts at 0, so r = b and p = r.
	r, err := d.TMatVec(X, y, d.temp("r"))
	if err != nil {
		return Mat{}, err
	}
	w, err := d.WriteMat("w0", cfg.Vars, 1, cfg.BlockSize, 1, cfg.Seed+2, 1)
	if err != nil {
		return Mat{}, err
	}
	p, err := d.Scale(r, 1, 0, d.temp("p"))
	if err != nil {
		return Mat{}, err
	}
	rs, err := d.Dot(r, r)
	if err != nil {
		return Mat{}, err
	}
	for it := 0; it < cfg.Iterations; it++ {
		xp, err := d.MatVec(X, p, d.temp("xp"))
		if err != nil {
			return Mat{}, fmt.Errorf("linreg iteration %d: %w", it, err)
		}
		q, err := d.TMatVec(X, xp, d.temp("q"))
		if err != nil {
			return Mat{}, err
		}
		pq, err := d.Dot(p, q)
		if err != nil {
			return Mat{}, err
		}
		alpha := rs / pq
		wOut := d.temp("w")
		if it == cfg.Iterations-1 {
			wOut = d.Dir + "/linreg_w"
		}
		wNext, err := d.Elem2(w, p, "axpy", alpha, wOut)
		if err != nil {
			return Mat{}, err
		}
		rNext, err := d.Elem2(r, q, "axpy", -alpha, d.temp("r"))
		if err != nil {
			return Mat{}, err
		}
		rs2, err := d.Dot(rNext, rNext)
		if err != nil {
			return Mat{}, err
		}
		beta := rs2 / rs
		pNext, err := d.Elem2(rNext, p, "axpy", beta, d.temp("p"))
		if err != nil {
			return Mat{}, err
		}
		if err := d.drop(xp.Path, q.Path, w.Path, r.Path, p.Path); err != nil {
			return Mat{}, err
		}
		w, r, p, rs = wNext, rNext, pNext, rs2
	}
	return w, nil
}

// LinRegReference runs the same CG steps densely.
func LinRegReference(cfg LinRegConfig) []float64 {
	x := DenseOf(cfg.Points, cfg.Vars, cfg.BlockSize, cfg.BlockSize, cfg.Seed, 0.5)
	ym := DenseOf(cfg.Points, 1, cfg.BlockSize, 1, cfg.Seed+1, 0)
	y := make([]float64, cfg.Points)
	for i := range y {
		y[i] = ym[i][0]
	}
	n := int(cfg.Vars)
	matvec := func(v []float64) []float64 { // X·v
		out := make([]float64, cfg.Points)
		for i := range x {
			var s float64
			for j := 0; j < n; j++ {
				s += x[i][j] * v[j]
			}
			out[i] = s
		}
		return out
	}
	tmatvec := func(v []float64) []float64 { // Xᵀ·v
		out := make([]float64, n)
		for i := range x {
			vi := v[i]
			if vi == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[j] += x[i][j] * vi
			}
		}
		return out
	}
	dot := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			s += a[i] * b[i]
		}
		return s
	}
	w := make([]float64, n)
	r := tmatvec(y)
	p := append([]float64(nil), r...)
	rs := dot(r, r)
	for it := 0; it < cfg.Iterations; it++ {
		q := tmatvec(matvec(p))
		alpha := rs / dot(p, q)
		for j := 0; j < n; j++ {
			w[j] += alpha * p[j]
			r[j] -= alpha * q[j]
		}
		rs2 := dot(r, r)
		beta := rs2 / rs
		for j := 0; j < n; j++ {
			p[j] = r[j] + beta*p[j]
		}
		rs = rs2
	}
	return w
}

// GNMFConfig sizes the Fig. 9 experiment: V ≈ W·H with rank-k factors
// under multiplicative updates.
type GNMFConfig struct {
	Rows       int32 // rows of V
	Cols       int32 // columns of V
	Rank       int32 // k (paper: 10)
	BlockSize  int32
	Sparsity   float64 // of V
	Iterations int
	Seed       int64
}

// GNMF runs the multiplicative updates and returns the factor handles.
func GNMF(d *Driver, cfg GNMFConfig) (Mat, Mat, error) {
	V, err := d.WriteMat("V", cfg.Rows, cfg.Cols, cfg.BlockSize, cfg.BlockSize, cfg.Seed, 1-cfg.Sparsity)
	if err != nil {
		return Mat{}, Mat{}, err
	}
	W, err := d.WriteMat("W0", cfg.Rows, cfg.Rank, cfg.BlockSize, cfg.Rank, cfg.Seed+1, 0)
	if err != nil {
		return Mat{}, Mat{}, err
	}
	H, err := d.WriteMat("H0", cfg.Rank, cfg.Cols, cfg.Rank, cfg.BlockSize, cfg.Seed+2, 0)
	if err != nil {
		return Mat{}, Mat{}, err
	}
	for it := 0; it < cfg.Iterations; it++ {
		last := it == cfg.Iterations-1
		// H ← H .* (WᵀV) ./ (WᵀW·H)
		wtv, err := d.TMatMat(W, V, d.temp("wtv"))
		if err != nil {
			return Mat{}, Mat{}, fmt.Errorf("gnmf iteration %d: %w", it, err)
		}
		wtw, err := d.Gram(W, "atself", d.temp("wtw"))
		if err != nil {
			return Mat{}, Mat{}, err
		}
		wtwh, err := d.SideMul(wtw, H, "left", d.temp("wtwh"))
		if err != nil {
			return Mat{}, Mat{}, err
		}
		hOut := d.temp("H")
		if last {
			hOut = d.Dir + "/gnmf_H"
		}
		hNext, err := d.Elem3(H, wtv, wtwh, hOut)
		if err != nil {
			return Mat{}, Mat{}, err
		}
		if err := d.drop(wtv.Path, wtw.Path, wtwh.Path); err != nil {
			return Mat{}, Mat{}, err
		}
		// W ← W .* (V·Hᵀ) ./ (W·(HHᵀ))   [using the updated H]
		vht, err := d.MatTMat(V, hNext, d.temp("vht"))
		if err != nil {
			return Mat{}, Mat{}, err
		}
		hht, err := d.Gram(hNext, "aselft", d.temp("hht"))
		if err != nil {
			return Mat{}, Mat{}, err
		}
		whht, err := d.SideMul(hht, W, "right", d.temp("whht"))
		if err != nil {
			return Mat{}, Mat{}, err
		}
		wOut := d.temp("W")
		if last {
			wOut = d.Dir + "/gnmf_W"
		}
		wNext, err := d.Elem3(W, vht, whht, wOut)
		if err != nil {
			return Mat{}, Mat{}, err
		}
		if err := d.drop(vht.Path, hht.Path, whht.Path, hPathIfTemp(d, H), hPathIfTemp(d, W)); err != nil {
			return Mat{}, Mat{}, err
		}
		W, H = wNext, hNext
	}
	return W, H, nil
}

// hPathIfTemp returns the factor's path only when it is an intermediate
// (never the generated inputs), so drop leaves W0/H0 alone.
func hPathIfTemp(d *Driver, m Mat) string {
	if m.Path == d.Dir+"/W0" || m.Path == d.Dir+"/H0" {
		return ""
	}
	return m.Path
}

// GNMFReference runs the same updates densely.
func GNMFReference(cfg GNMFConfig) ([][]float64, [][]float64) {
	v := DenseOf(cfg.Rows, cfg.Cols, cfg.BlockSize, cfg.BlockSize, cfg.Seed, 1-cfg.Sparsity)
	w := DenseOf(cfg.Rows, cfg.Rank, cfg.BlockSize, cfg.Rank, cfg.Seed+1, 0)
	h := DenseOf(cfg.Rank, cfg.Cols, cfg.Rank, cfg.BlockSize, cfg.Seed+2, 0)
	k := int(cfg.Rank)
	mul := func(a, b [][]float64) [][]float64 {
		out := make([][]float64, len(a))
		for i := range out {
			out[i] = make([]float64, len(b[0]))
			for l := range b {
				ail := a[i][l]
				if ail == 0 {
					continue
				}
				for j := range b[0] {
					out[i][j] += ail * b[l][j]
				}
			}
		}
		return out
	}
	transpose := func(a [][]float64) [][]float64 {
		out := make([][]float64, len(a[0]))
		for i := range out {
			out[i] = make([]float64, len(a))
			for j := range a {
				out[i][j] = a[j][i]
			}
		}
		return out
	}
	for it := 0; it < cfg.Iterations; it++ {
		wt := transpose(w)
		wtv := mul(wt, v)
		wtwh := mul(mul(wt, w), h)
		for i := 0; i < k; i++ {
			for j := range h[0] {
				h[i][j] = h[i][j] * wtv[i][j] / (wtwh[i][j] + 1e-9)
			}
		}
		ht := transpose(h)
		vht := mul(v, ht)
		whht := mul(w, mul(h, ht))
		for i := range w {
			for j := 0; j < k; j++ {
				w[i][j] = w[i][j] * vht[i][j] / (whht[i][j] + 1e-9)
			}
		}
	}
	return w, h
}
