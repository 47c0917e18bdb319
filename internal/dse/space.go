package dse

// The joint schedule space (§4.11's "tiling × unroll × kvec × fold factor").
//
// The exhaustive explorer in dse.go searches the two dominant knobs (the 1x1
// tiling cross the 3x3 tiling) and fixes everything else at its largest legal
// value. The guided tier searches the *joint* space instead: every
// per-signature schedule axis the folded deployment exposes — 1x1 tiling
// (w2/c2/c1), 3x3 tiling (w2/c2/c1 plus the F×F unroll toggle), projection
// channel unroll, depthwise width unroll, a per-signature dense reduction
// unroll, and the stride-1 coalescing workaround toggle. The cross product is
// orders of magnitude larger than what exhaustive enumeration can cover
// (hundreds of points for LeNet, hundreds of thousands for MobileNet), which
// is exactly the regime the learned cost model is for.
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

// BuildSpace derives the joint schedule space from a lowered network.
func BuildSpace(layers []*relay.Layer, net string) *Space {
	facts := gatherFacts(layers)
	s := &Space{Net: net, layers: layers, idx: map[string]int{},
		denseMACs: map[string]float64{},
		hasPW:     facts.hasPW, has33: facts.has33,
		hasProj: facts.hasProj, hasDW: facts.hasDW}

	add := func(name string, values []int) {
		if len(values) == 0 {
			values = []int{1}
		}
		s.idx[name] = len(s.Axes)
		s.Axes = append(s.Axes, Axis{Name: name, Values: values})
	}

	// MAC totals per group (feature weights for the cost model).
	denseN := map[string]int{}
	c33C2 := 0
	for _, l := range layers {
		macs := float64(l.FLOPs()) / 2
		switch l.Kind {
		case relay.KConv:
			switch {
			case l.F == 1 && l.S == 1:
				s.pwMACs += macs
			case l.F == 1:
				s.projMACs += macs
			case l.F == 3:
				s.c33MACs += macs
				if c33C2 == 0 {
					c33C2 = l.OutShape[0]
				} else {
					c33C2 = gcd(c33C2, l.OutShape[0])
				}
			}
		case relay.KDepthwise:
			s.dwMACs += macs
		case relay.KDense:
			sig := host.ConfigKey(l)
			s.denseMACs[sig] += macs
			if denseN[sig] == 0 {
				denseN[sig] = l.InShape[0]
			} else {
				denseN[sig] = gcd(denseN[sig], l.InShape[0])
			}
		}
	}

	if facts.hasPW {
		// w2 = 1 means scalar stores; the thesis tier's enumeration prunes it
		// outright, so the joint space excludes it from the axis.
		w2s := divisorsOf(facts.pwW2, 14)
		if len(w2s) > 1 && w2s[0] == 1 {
			w2s = w2s[1:]
		}
		add(axPWW2, w2s)
		add(axPWC2, divisorsOf(facts.pwC2, 64))
		add(axPWC1, divisorsOf(facts.pwC1, 32))
	}
	if facts.has33 {
		add(axC33W2, divisorsOf(facts.c33W2, 7))
		add(axC33C2, divisorsOf(c33C2, 64))
		add(axC33C1, divisorsOf(facts.c33C1, 16))
		add(axC33FF, []int{0, 1})
	}
	if facts.hasProj {
		add(axProjC1, divisorsOf(facts.projC1, 8))
	}
	if facts.hasDW {
		add(axDWW2, divisorsOf(facts.dwW2, 7))
	}
	for sig := range denseN {
		s.denseSigs = append(s.denseSigs, sig)
	}
	sort.Strings(s.denseSigs)
	for _, sig := range s.denseSigs {
		add(densePref+sig+".kvec", divisorsOf(denseN[sig], 32))
	}
	add(axWkrd, []int{0, 1})
	return s
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

// Config assembles the FoldedConfig a point denotes, covering every signature
// the network uses (mirrors buildConfig for the knobs both tiers share).
func (s *Space) Config(p Point) host.FoldedConfig {
	pwSched := topi.OptSched(s.value(p, axPWW2, 1), s.value(p, axPWC2, 1), s.value(p, axPWC1, 1))
	c33Sched := topi.ConvSched{
		W2vec:    s.value(p, axC33W2, 1),
		C2vec:    s.value(p, axC33C2, 1),
		C1vec:    s.value(p, axC33C1, 1),
		UnrollFF: s.value(p, axC33FF, 1) == 1,
	}
	projSched := topi.OptSched(1, 1, s.value(p, axProjC1, 1))

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
		dense[sig] = s.value(p, densePref+sig+".kvec", 1)
	}
	return host.FoldedConfig{Conv: conv, DWVec: dw, DenseVec: 1, Dense: dense,
		Workaround: s.value(p, axWkrd, 1) == 1}
}

// Feasible applies the cheap board-dependent screens (§4.11 rule 1: the
// widest memory access must not exceed external bandwidth at a conservative
// clock). Infeasible points are never compiled; the guided tier counts them
// as bandwidth prunes. The reason string is empty when feasible.
func (s *Space) Feasible(p Point, board *fpga.Board) (bool, string) {
	maxFloats := int(board.BytesPerCycleAt(board.BaseFmaxMHz*0.7) / 4)
	if s.hasPW {
		if w2, c1 := s.value(p, axPWW2, 1), s.value(p, axPWC1, 1); w2*c1 > 4*maxFloats {
			return false, "bandwidth: 1x1"
		}
	}
	if s.has33 {
		if w2, c1 := s.value(p, axC33W2, 1), s.value(p, axC33C1, 1); w2*c1*9 > 16*maxFloats {
			return false, "bandwidth: 3x3"
		}
	}
	return true, ""
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
