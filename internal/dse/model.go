package dse

// The learned cost model for guided search (the TVM recipe): a ridge
// regression over schedule features, trained online from every completed
// full evaluation during the run, ranks mutation batches so the expensive
// evaluator (full aoc compile + fit + fmax + forward-pass model) is paid
// only for the most promising candidates. A second ridge head predicts
// synthesizability so the score can penalize regions that keep failing fit
// or routing.
//
// Determinism contract: everything here is a pure function of the training
// rows in insertion order. Only IEEE-exact float operations are used
// (+, -, ×, ÷ and math.Sqrt, all correctly rounded per IEEE 754 and
// bit-identical across conforming platforms); no math.Log/Exp/Pow, whose
// platform-specific implementations may differ in the last ulp and would
// break the byte-identical Result guarantee across architectures.

import (
	"math"
	"repro/internal/fpga"
)

// splitmix64 is a tiny deterministic PRNG (integer-only, platform-exact).
// Every stochastic choice of the guided explorer draws from one sequential
// instance in the coordinator goroutine, so the draw sequence — and hence
// the whole search trajectory — depends only on the seed, never on worker
// scheduling.
type splitmix64 struct{ state uint64 }

func newRNG(seed int64) *splitmix64 {
	return &splitmix64{state: uint64(seed)}
}

func (r *splitmix64) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is irrelevant here — the
// only requirement is determinism.
func (r *splitmix64) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// float returns a value in [0, 1) with 53 uniform bits; the final division
// by a power of two is exact.
func (r *splitmix64) float() float64 {
	return float64(r.next()>>11) / (1 << 53)
}

// featurize renders the model's feature vector for a point: a bias term,
// each axis value normalized by its axis maximum (divisor slack), a
// cycles-per-group proxy (group MACs over the group's total unroll — the
// dominant first-order term of the timing model), the §4.11 bandwidth
// pressure ratios, and a DSP pressure proxy. The vector length is fixed per
// (space, board) pair.
func featurize(s *Space, board *fpga.Board, p Point) []float64 {
	f := make([]float64, 0, len(s.Axes)+10)
	f = append(f, 1) // bias

	for i := range s.Axes {
		f = append(f, float64(s.Axes[i].Values[p[i]])/float64(s.Axes[i].max()))
	}

	const macScale = 1e6
	totalUnroll := 0.0
	if s.hasPW {
		u := float64(s.value(p, axPWW2, 1) * s.value(p, axPWC2, 1) * s.value(p, axPWC1, 1))
		f = append(f, s.pwMACs/u/macScale)
		totalUnroll += u
	}
	if s.has33 {
		u := float64(s.value(p, axC33W2, 1) * s.value(p, axC33C2, 1) * s.value(p, axC33C1, 1))
		if s.value(p, axC33FF, 1) == 1 {
			u *= 9
		}
		f = append(f, s.c33MACs/u/macScale)
		totalUnroll += u
	}
	if s.hasProj {
		u := float64(s.value(p, axProjC1, 1))
		f = append(f, s.projMACs/u/macScale)
		totalUnroll += u
	}
	if s.hasDW {
		u := float64(s.value(p, axDWW2, 1))
		f = append(f, s.dwMACs/u/macScale)
		totalUnroll += u
	}
	for _, sig := range s.denseSigs {
		u := float64(s.value(p, denseAxis(sig), 1))
		f = append(f, s.denseMACs[sig]/u/macScale)
		totalUnroll += u
	}

	pw, c33 := s.pressure(p, board)
	if s.hasPW {
		f = append(f, pw)
	}
	if s.has33 {
		f = append(f, c33)
	}
	f = append(f, totalUnroll/float64(board.Usable().DSPs))
	return f
}

// heuristicScore ranks a point before the model has any training data: the
// sum of the per-group cycles proxies (MACs / unroll), i.e. the zeroth-order
// timing model. Lower is better.
func heuristicScore(s *Space, board *fpga.Board, p Point) float64 {
	f := featurize(s, board, p)
	// Cycles proxies sit after the bias and the per-axis slack features and
	// before the two pressure ratios and the DSP proxy.
	var sum float64
	for _, v := range f[1+len(s.Axes) : len(f)-s.pressureFeatures()-1] {
		sum += v
	}
	return sum
}

// pressureFeatures counts the bandwidth-pressure entries in the vector.
func (s *Space) pressureFeatures() int {
	n := 0
	if s.hasPW {
		n++
	}
	if s.has33 {
		n++
	}
	return n
}

// costModel is the online-trained ranking model. Not safe for concurrent
// use; the coordinator owns it and workers never touch it.
type costModel struct {
	space *Space
	board *fpga.Board

	feats   [][]float64 // training rows, insertion order
	times   []float64   // TimeUS label (0 for unsynthesizable rows)
	feas    []float64   // 1 synthesizable, 0 not
	maxTime float64

	wTime []float64 // nil until first fit with a synthesizable row
	wFeas []float64
}

func newCostModel(space *Space, board *fpga.Board) *costModel {
	return &costModel{space: space, board: board}
}

// warmStart installs transferred weights so the very first generations rank
// with another board's learned model instead of the heuristic.
func (m *costModel) warmStart(wTime, wFeas []float64, maxTime float64) {
	n := len(featurize(m.space, m.board, make(Point, len(m.space.Axes))))
	if len(wTime) == n {
		m.wTime = append([]float64(nil), wTime...)
	}
	if len(wFeas) == n {
		m.wFeas = append([]float64(nil), wFeas...)
	}
	if maxTime > m.maxTime {
		m.maxTime = maxTime
	}
}

// observe adds one completed full evaluation to the training set.
func (m *costModel) observe(p Point, c *Candidate) {
	m.feats = append(m.feats, featurize(m.space, m.board, p))
	if c.Synthesizable {
		m.times = append(m.times, c.TimeUS)
		m.feas = append(m.feas, 1)
		if c.TimeUS > m.maxTime {
			m.maxTime = c.TimeUS
		}
	} else {
		m.times = append(m.times, 0)
		m.feas = append(m.feas, 0)
	}
}

// fit retrains both heads on all observations. Ridge keeps the normal
// equations solvable for any sample count; rows enter in insertion order so
// the sums — and therefore the weights — are bit-identical for a given
// evaluation history regardless of worker count.
func (m *costModel) fit() {
	if len(m.feats) < 4 {
		return
	}
	// The time head trains only on synthesizable rows (unsynthesizable rows
	// have no meaningful latency); the feasibility head trains on all rows.
	var tX [][]float64
	var tY []float64
	for i, row := range m.feats {
		if m.feas[i] == 1 {
			tX = append(tX, row)
			tY = append(tY, m.times[i])
		}
	}
	if len(tX) >= 4 {
		m.wTime = ridgeFitStd(tX, tY, 0.1)
	}
	m.wFeas = ridgeFitStd(m.feats, m.feas, 0.1)
}

// ridgeFitStd standardizes features and labels (zero mean, unit variance,
// fixed-order sums), fits ridge in the standardized space — so λ has the
// same meaning whether labels are 100µs or 100ms — and folds the scaling
// back into raw-space weights, with the intercept absorbed into the bias
// feature's weight (index 0, constant 1).
func ridgeFitStd(X [][]float64, y []float64, lambda float64) []float64 {
	n := len(X)
	d := len(X[0])
	fm := make([]float64, d)
	fs := make([]float64, d)
	for j := 0; j < d; j++ {
		var sum float64
		for k := 0; k < n; k++ {
			sum += X[k][j]
		}
		fm[j] = sum / float64(n)
		var v float64
		for k := 0; k < n; k++ {
			dx := X[k][j] - fm[j]
			v += dx * dx
		}
		fs[j] = math.Sqrt(v / float64(n))
		if fs[j] == 0 {
			fs[j] = 1
		}
	}
	var ysum float64
	for k := 0; k < n; k++ {
		ysum += y[k]
	}
	ym := ysum / float64(n)
	var yv float64
	for k := 0; k < n; k++ {
		dy := y[k] - ym
		yv += dy * dy
	}
	ys := math.Sqrt(yv / float64(n))
	if ys == 0 {
		ys = 1
	}
	sx := make([][]float64, n)
	sy := make([]float64, n)
	for k := 0; k < n; k++ {
		row := make([]float64, d)
		for j := 0; j < d; j++ {
			row[j] = (X[k][j] - fm[j]) / fs[j]
		}
		sx[k] = row
		sy[k] = (y[k] - ym) / ys
	}
	ws := ridgeFit(sx, sy, lambda)
	// Raw-space weights: pred = ym + ys·Σ ws[j]·(x[j]-fm[j])/fs[j].
	w := make([]float64, d)
	intercept := ym
	for j := 0; j < d; j++ {
		w[j] = ys * ws[j] / fs[j]
		intercept -= w[j] * fm[j]
	}
	w[0] += intercept // feature 0 is the constant bias term
	return w
}

// score predicts the ranking objective for a point: predicted forward-pass
// time plus a large penalty scaled by the predicted probability of not
// synthesizing. Falls back to the heuristic until the time head is fitted.
// Lower is better.
func (m *costModel) score(p Point) float64 {
	if m.wTime == nil {
		return heuristicScore(m.space, m.board, p)
	}
	f := featurize(m.space, m.board, p)
	t := dot(m.wTime, f)
	if m.wFeas != nil {
		pf := dot(m.wFeas, f)
		if pf < 0 {
			pf = 0
		} else if pf > 1 {
			pf = 1
		}
		penalty := 10 * m.maxTime
		if penalty == 0 {
			penalty = 1e6
		}
		t += penalty * (1 - pf)
	}
	return t
}

func dot(w, f []float64) float64 {
	var s float64
	for i := range w {
		s += w[i] * f[i]
	}
	return s
}

// ridgeFit solves (XᵀX + λnI)w = Xᵀy by Gaussian elimination with partial
// pivoting. Deterministic: fixed summation and elimination order, exact
// comparisons for pivot selection.
func ridgeFit(X [][]float64, y []float64, lambda float64) []float64 {
	n := len(X)
	d := len(X[0])
	A := make([][]float64, d)
	b := make([]float64, d)
	for i := 0; i < d; i++ {
		A[i] = make([]float64, d)
		for j := 0; j < d; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += X[k][i] * X[k][j]
			}
			A[i][j] = s
		}
		A[i][i] += lambda * float64(n)
		var s float64
		for k := 0; k < n; k++ {
			s += X[k][i] * y[k]
		}
		b[i] = s
	}
	// Forward elimination with partial pivoting.
	for col := 0; col < d; col++ {
		piv := col
		best := A[col][col]
		if best < 0 {
			best = -best
		}
		for r := col + 1; r < d; r++ {
			v := A[r][col]
			if v < 0 {
				v = -v
			}
			if v > best {
				best, piv = v, r
			}
		}
		if best == 0 {
			continue // column already eliminated; ridge term makes this rare
		}
		A[col], A[piv] = A[piv], A[col]
		b[col], b[piv] = b[piv], b[col]
		for r := col + 1; r < d; r++ {
			m := A[r][col] / A[col][col]
			if m == 0 {
				continue
			}
			for c := col; c < d; c++ {
				A[r][c] -= m * A[col][c]
			}
			b[r] -= m * b[col]
		}
	}
	// Back substitution.
	w := make([]float64, d)
	for i := d - 1; i >= 0; i-- {
		s := b[i]
		for j := i + 1; j < d; j++ {
			s -= A[i][j] * w[j]
		}
		if A[i][i] != 0 {
			w[i] = s / A[i][i]
		}
	}
	return w
}
