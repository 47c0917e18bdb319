package dse

// The joint schedule space (§4.11's "tiling × unroll × kvec × fold factor").
//
// Every search tier enumerates, screens and deploys through this one space:
// its axes are every per-signature schedule knob the folded deployment
// exposes — 1x1 tiling (w2/c2/c1), 3x3 tiling (w2/c2/c1 plus the F×F unroll
// toggle), projection channel unroll, depthwise width unroll, a
// per-signature dense reduction unroll, and the stride-1 coalescing
// workaround toggle. The thesis tier (dse.go) searches a view of it with
// every axis but the 1x1 and 3x3 tilings pinned to its thesis value; the
// joint tier sweeps all of it; the guided tier anneals over all of it. The
// cross product has 560 points for LeNet-5 and 96 768 for MobileNetV1, which
// one exhaustive joint sweep on S10SX covers in about 17 s on a 2-vCPU Xeon.
//
// A Space is a pure function of the lowered network: axis names and value
// lists are derived only from layer shapes (divisor sets), never from the
// board, so a Space signature identifies the same coordinate system across
// boards and transfer tuning can map one board's history onto another's
// search. Board-dependent constraints (the §4.11 bandwidth rule) live in
// Feasible, which takes the board explicitly.

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fpga"
	"repro/internal/host"
	"repro/internal/relay"
	"repro/internal/topi"
)

// Axis is one independently searchable schedule knob.
type Axis struct {
	// Name identifies the knob ("pw.w2", "dense.dense_relu.kvec", ...).
	Name string
	// Values are the legal settings in ascending order. Boolean knobs encode
	// as {0, 1}.
	Values []int
}

// Max returns the largest value of the axis (axes are never empty).
func (a *Axis) Max() int { return a.Values[len(a.Values)-1] }

// Point is one joint configuration: a value index per axis, in axis order.
type Point []int

// Clone returns an independent copy of the point.
func (p Point) Clone() Point { return append(Point(nil), p...) }

// Space is the joint schedule space of one lowered network.
type Space struct {
	Net  string
	Axes []Axis

	layers []*relay.Layer
	idx    map[string]int // axis name -> position in Axes

	// Per-group MAC counts (FLOPs/2) for the model's cycles-proxy features.
	pwMACs, c33MACs, projMACs, dwMACs float64
	denseMACs                         map[string]float64
	denseSigs                         []string // sorted dense signatures
	hasPW, has33, hasProj, hasDW      bool
}

// axisNames in construction order; only axes whose group exists are added.
const (
	axPWW2    = "pw.w2"
	axPWC2    = "pw.c2"
	axPWC1    = "pw.c1"
	axC33W2   = "c33.w2"
	axC33C2   = "c33.c2"
	axC33C1   = "c33.c1"
	axC33FF   = "c33.unroll_ff"
	axProjC1  = "proj.c1"
	axDWW2    = "dw.w2"
	axWkrd    = "workaround"
	densePref = "dense."
)

// BuildSpace derives the joint schedule space from a lowered network. Each
// tiled dimension's axis holds the divisors (up to the axis cap) of the gcd
// of that extent over every layer of the group, because a factor must divide
// every extent it tiles.
func BuildSpace(layers []*relay.Layer, net string) *Space {
	s := &Space{Net: net, layers: layers, idx: map[string]int{}, denseMACs: map[string]float64{}}
	add := func(name string, values []int) {
		if len(values) == 0 {
			values = []int{1}
		}
		s.idx[name] = len(s.Axes)
		s.Axes = append(s.Axes, Axis{Name: name, Values: values})
	}

	// Common divisors per group (gcd(0, v) = v starts each one) and MAC
	// totals per group (feature weights for the cost model).
	var pwW2, pwC2, pwC1, c33W2, c33C2, c33C1, projC1, dwW2 int
	denseN := map[string]int{}
	for _, l := range layers {
		macs := float64(l.FLOPs()) / 2
		switch l.Kind {
		case relay.KConv:
			switch {
			case l.F == 1 && l.S == 1:
				s.hasPW = true
				s.pwMACs += macs
				pwW2, pwC2, pwC1 = gcd(pwW2, l.OutShape[2]), gcd(pwC2, l.OutShape[0]), gcd(pwC1, l.InShape[0])
			case l.F == 1:
				// Strided 1x1 projections (ResNet shortcuts).
				s.hasProj = true
				s.projMACs += macs
				projC1 = gcd(projC1, l.InShape[0])
			case l.F == 3:
				s.has33 = true
				s.c33MACs += macs
				c33W2, c33C2, c33C1 = gcd(c33W2, l.OutShape[2]), gcd(c33C2, l.OutShape[0]), gcd(c33C1, l.InShape[0])
			}
		case relay.KDepthwise:
			s.hasDW = true
			s.dwMACs += macs
			dwW2 = gcd(dwW2, l.OutShape[2])
		case relay.KDense:
			sig := host.ConfigKey(l)
			s.denseMACs[sig] += macs
			denseN[sig] = gcd(denseN[sig], l.InShape[0])
		}
	}

	if s.hasPW {
		// w2 = 1 means scalar stores, so the axis leaves it out whenever a
		// wider store divides every 1x1 output width.
		w2s := divisorsOf(pwW2, 14)
		if len(w2s) > 1 && w2s[0] == 1 {
			w2s = w2s[1:]
		}
		add(axPWW2, w2s)
		add(axPWC2, divisorsOf(pwC2, 64))
		add(axPWC1, divisorsOf(pwC1, 32))
	}
	if s.has33 {
		add(axC33W2, divisorsOf(c33W2, 7))
		add(axC33C2, divisorsOf(c33C2, 64))
		add(axC33C1, divisorsOf(c33C1, 16))
		add(axC33FF, []int{0, 1})
	}
	if s.hasProj {
		add(axProjC1, divisorsOf(projC1, 8))
	}
	if s.hasDW {
		add(axDWW2, divisorsOf(dwW2, 7))
	}
	for sig := range denseN {
		s.denseSigs = append(s.denseSigs, sig)
	}
	sort.Strings(s.denseSigs)
	for _, sig := range s.denseSigs {
		add(denseAxis(sig), divisorsOf(denseN[sig], 32))
	}
	add(axWkrd, []int{0, 1})
	return s
}

// denseAxis names the reduction-unroll axis of one dense signature.
func denseAxis(sig string) string { return densePref + sig + ".kvec" }

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// divisorsOf returns the divisors of n not exceeding cap, ascending.
func divisorsOf(n, cap int) []int {
	var out []int
	for d := 1; d <= n && d <= cap; d++ {
		if n%d == 0 {
			out = append(out, d)
		}
	}
	return out
}

// Size returns the total number of joint points (feasible or not).
func (s *Space) Size() int64 {
	n := int64(1)
	for i := range s.Axes {
		n *= int64(len(s.Axes[i].Values))
	}
	return n
}

// Sig returns the space signature: a canonical rendering of every axis name
// and value list. Two spaces with equal signatures share a coordinate system
// (points and serialized history transfer between them verbatim); the
// signature is board-independent by construction.
func (s *Space) Sig() string {
	var b strings.Builder
	b.WriteString(s.Net)
	for i := range s.Axes {
		b.WriteByte(';')
		b.WriteString(s.Axes[i].Name)
		b.WriteByte('=')
		for j, v := range s.Axes[i].Values {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
	}
	return b.String()
}

// Key renders a point as a compact canonical string (value indices joined),
// used for dedup sets, deterministic tie-breaks and transfer serialization.
func (s *Space) Key(p Point) string {
	var b strings.Builder
	for i, vi := range p {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(vi))
	}
	return b.String()
}

// PointFromKey parses a Key back into a point, validating bounds.
func (s *Space) PointFromKey(key string) (Point, error) {
	parts := strings.Split(key, ".")
	if len(parts) != len(s.Axes) {
		return nil, fmt.Errorf("dse: key %q has %d axes, space has %d", key, len(parts), len(s.Axes))
	}
	p := make(Point, len(parts))
	for i, part := range parts {
		vi, err := strconv.Atoi(part)
		if err != nil || vi < 0 || vi >= len(s.Axes[i].Values) {
			return nil, fmt.Errorf("dse: key %q: bad index for axis %s", key, s.Axes[i].Name)
		}
		p[i] = vi
	}
	return p, nil
}

// value returns the chosen value of the named axis at p, or def when the
// space has no such axis.
func (s *Space) value(p Point, name string, def int) int {
	i, ok := s.idx[name]
	if !ok {
		return def
	}
	return s.Axes[i].Values[p[i]]
}

// Values maps axis names to chosen values at p (for reports and JSON).
func (s *Space) Values(p Point) map[string]int {
	out := make(map[string]int, len(s.Axes))
	for i := range s.Axes {
		out[s.Axes[i].Name] = s.Axes[i].Values[p[i]]
	}
	return out
}

// scheds returns the 1x1, 3x3 and projection schedules a point denotes.
func (s *Space) scheds(p Point) (pw, c33, proj topi.ConvSched) {
	pw = topi.OptSched(s.value(p, axPWW2, 1), s.value(p, axPWC2, 1), s.value(p, axPWC1, 1))
	c33 = topi.ConvSched{
		W2vec:    s.value(p, axC33W2, 1),
		C2vec:    s.value(p, axC33C2, 1),
		C1vec:    s.value(p, axC33C1, 1),
		UnrollFF: s.value(p, axC33FF, 1) == 1,
	}
	proj = topi.OptSched(1, 1, s.value(p, axProjC1, 1))
	return pw, c33, proj
}

// Config assembles the FoldedConfig a point denotes, covering every signature
// the network uses. It is the one config builder every search tier deploys
// through.
func (s *Space) Config(p Point) host.FoldedConfig {
	pwSched, c33Sched, projSched := s.scheds(p)
	conv := map[string]topi.ConvSched{}
	dw := map[string]int{}
	for _, l := range s.layers {
		switch l.Kind {
		case relay.KConv:
			key := host.ConfigKey(l)
			switch {
			case l.F == 1 && l.S == 1:
				conv[key] = pwSched
			case l.F == 1:
				conv[key] = projSched
			case l.F == 3:
				conv[key] = c33Sched
			default:
				conv[key] = topi.OptSched(1, 1, 1)
			}
		case relay.KDepthwise:
			dw[host.ConfigKey(l)] = s.value(p, axDWW2, 1)
		}
	}
	dense := map[string]int{}
	for _, sig := range s.denseSigs {
		dense[sig] = s.value(p, denseAxis(sig), 1)
	}
	return host.FoldedConfig{Conv: conv, DWVec: dw, DenseVec: 1, Dense: dense,
		Workaround: s.value(p, axWkrd, 1) == 1}
}

// pressure returns each conv group's widest memory access over the share of
// external bandwidth §4.11 grants it at a conservative clock (0 when the
// network has no such group): the 1x1 group may read 4 and the 3x3 group 16
// times the floats memory delivers per cycle, the 3x3 access counting its
// F×F window. Feasible rejects a ratio above 1; the cost model takes the
// ratios as features.
func (s *Space) pressure(p Point, board *fpga.Board) (pw, c33 float64) {
	maxFloats := float64(int(board.BytesPerCycleAt(board.BaseFmaxMHz*0.7) / 4))
	if s.hasPW {
		pw = float64(s.value(p, axPWW2, 1)*s.value(p, axPWC1, 1)) / (4 * maxFloats)
	}
	if s.has33 {
		c33 = float64(s.value(p, axC33W2, 1)*s.value(p, axC33C1, 1)*9) / (16 * maxFloats)
	}
	return pw, c33
}

// Feasible applies the cheap board-dependent screen, §4.11 rule 1: the
// widest memory access must not exceed external bandwidth at a conservative
// clock. It is the package's one bandwidth rule. Infeasible points are never
// compiled; every tier counts them as bandwidth prunes. The reason string is
// empty when feasible.
func (s *Space) Feasible(p Point, board *fpga.Board) (bool, string) {
	pw, c33 := s.pressure(p, board)
	if pw > 1 {
		return false, "bandwidth: 1x1"
	}
	if c33 > 1 {
		return false, "bandwidth: 3x3"
	}
	return true, ""
}

// pin returns a view of the space with each named axis narrowed to the one
// given value (names the space lacks are ignored). The view keeps the axis
// order and the network, so Feasible and Config read its points exactly as
// the same settings in s; only value indices differ on the pinned axes.
func (s *Space) pin(vals map[string]int) *Space {
	v := *s
	v.Axes = append([]Axis(nil), s.Axes...)
	for name, val := range vals {
		if i, ok := s.idx[name]; ok {
			v.Axes[i].Values = []int{val}
		}
	}
	return &v
}

// Enumerate walks every point of the space in odometer order (last axis
// fastest) and calls fn with a reused buffer; fn must copy the point if it
// keeps it. Enumeration stops early when fn returns false.
func (s *Space) Enumerate(fn func(p Point) bool) {
	p := make(Point, len(s.Axes))
	for {
		if !fn(p) {
			return
		}
		i := len(p) - 1
		for i >= 0 {
			p[i]++
			if p[i] < len(s.Axes[i].Values) {
				break
			}
			p[i] = 0
			i--
		}
		if i < 0 {
			return
		}
	}
}
