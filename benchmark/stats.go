package main

// Small statistics and process-accounting helpers. Every timed end-to-end
// figure the benchmark prints is a median over the workload's equal
// repetitions: on a shared 2-core box a single window absorbs scheduler
// stalls that a median over repetitions rejects.

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/serve/loadgen"
)

// percentile returns the q-th quantile (0 < q <= 1) of vals by nearest rank.
// It sorts a copy; an empty input yields 0.
func percentile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return loadgen.Percentile(s, q)
}

// median returns the middle value (mean of the two middle values for an even
// count); an empty input yields 0.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(vals []float64) float64 {
	total := 0.0
	for _, v := range vals {
		total += v
	}
	return total
}

// reps is one metric's value in each repetition of a workload.
type reps []float64

// summary is what the report prints for a metric measured over repetitions:
// the median is the figure, min and max are the spread beside it.
type summary struct {
	Median, Min, Max float64
	N                int
}

func (r reps) summarize() summary {
	if len(r) == 0 {
		return summary{}
	}
	s := summary{Median: median(r), Min: r[0], Max: r[0], N: len(r)}
	for _, v := range r {
		s.Min = math.Min(s.Min, v)
		s.Max = math.Max(s.Max, v)
	}
	return s
}

// disturbed flags the repetitions that deviate more than 25 % from the
// median of all repetitions.
func (r reps) disturbed() []bool {
	med := median(r)
	out := make([]bool, len(r))
	for i, v := range r {
		out[i] = med != 0 && math.Abs(v-med)/math.Abs(med) > 0.25
	}
	return out
}

// usage is a snapshot of the process's cumulative costs. Deltas between two
// snapshots give the CPU time and allocations of a measured window (the load
// generator runs in this process, so it is included and constant).
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// snapshot stops the world briefly (ReadMemStats), so it is only taken at
// repetition boundaries.
func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// peakRSSMiB is ru_maxrss of this process (Linux reports KiB).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// window is one repetition's measured interval and what was done in it.
type window struct {
	wallS   float64
	cpuMS   float64
	mallocs float64
	allocKB float64
}

func since(u usage) window {
	n := snapshot()
	return window{
		wallS:   n.at.Sub(u.at).Seconds(),
		cpuMS:   float64(n.cpu-u.cpu) / float64(time.Millisecond),
		mallocs: float64(n.mallocs - u.mallocs),
		allocKB: float64(n.bytes-u.bytes) / 1024,
	}
}

// splitmix is the seeded generator every workload derives its inputs,
// tenant mixes and schedules from (the same stream loadgen and the fault
// injector use, so results do not drift with math/rand versions).
type splitmix struct{ s uint64 }

func newRand(seed int64, stream uint64) *splitmix {
	return &splitmix{s: uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + 1}
}

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }
