package main

import (
	"slices"
	"time"
)

var processStart = time.Now()

// now is nanoseconds on the monotonic clock since the process started.
func now() int64 { return int64(time.Since(processStart)) }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (exclusive method), so the spread printed
// here is the one the acceptance rule is stated in. Fewer than two values
// have no spread.
func quartiles(v []float64) (q1, q3 float64) {
	n := len(v)
	if n < 2 {
		m := median(v)
		return m, m
	}
	s := slices.Clone(v)
	slices.Sort(s)
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, i*(n+1)%4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// samples is a fixed-size buffer of durations in nanoseconds. It is allocated
// and touched once per worker at set-up, so the benchmark's own share of peak
// RSS is the same in every trial; durations past the end are counted, not
// stored.
type samples struct {
	buf     []uint32
	n       int
	dropped int
}

const samplesPerClass = 1 << 19

func newSamples() *samples {
	s := &samples{buf: make([]uint32, samplesPerClass)}
	for i := range s.buf {
		s.buf[i] = 1 // touch every page now, not during a measured phase
	}
	return s
}

func (s *samples) add(ns int64) {
	if s.n == len(s.buf) {
		s.dropped++
		return
	}
	s.buf[s.n] = uint32(min(max(ns, 0), 1<<32-1))
	s.n++
}

func (s *samples) reset() { s.n, s.dropped = 0, 0 }

// dist is the merged, sorted view of several sample buffers.
type dist struct {
	ns      []uint32
	dropped int
}

func merge(parts ...*samples) dist {
	var d dist
	for _, p := range parts {
		d.ns = append(d.ns, p.buf[:p.n]...)
		d.dropped += p.dropped
	}
	slices.Sort(d.ns)
	return d
}

// quantileUs interpolates between the two neighbouring samples, in
// microseconds; an empty distribution reads 0.
func (d dist) quantileUs(q float64) float64 {
	n := len(d.ns)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	i := int(pos)
	if i >= n-1 {
		return float64(d.ns[n-1]) / 1e3
	}
	f := pos - float64(i)
	return (float64(d.ns[i])*(1-f) + float64(d.ns[i+1])*f) / 1e3
}

func (d dist) meanUs() float64 {
	if len(d.ns) == 0 {
		return 0
	}
	var s float64
	for _, x := range d.ns {
		s += float64(x)
	}
	return s / float64(len(d.ns)) / 1e3
}
