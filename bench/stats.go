package main

import (
	"math"
	"sort"
)

// minTail is the number of samples that must lie beyond a percentile before
// the benchmark reports it: a p95 needs at least 200 samples, a p99 at least
// 1000.
const minTail = 10

// rank returns the 1-based nearest-rank position of the p-th percentile
// (0 < p <= 100) among n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tail returns how many of n samples lie beyond the p-th percentile.
func tail(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// percentile returns the nearest-rank p-th percentile of samples and
// whether at least minTail samples lie beyond it. samples is sorted in
// place.
func percentile(samples []float64, p float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	return samples[rank(len(samples), p)-1], tail(len(samples), p) >= minTail
}

// median returns the median of samples (the mean of the middle pair for an
// even count), sorting a copy; 0 for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(samples []float64) float64 {
	var t float64
	for _, v := range samples {
		t += v
	}
	return t
}

// quartiles returns the first and third quartile of samples exactly as
// Python's statistics.quantiles(samples, n=4) computes them (the default
// "exclusive" method), so spreads printed here match an independent check.
// It needs at least two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// splitmix64 is the benchmark's only random source: every input and every
// request of a run derives from the -seed through it.
type splitmix64 struct{ state uint64 }

func (r *splitmix64) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *splitmix64) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *splitmix64) intn(n int) int { return int(r.next() % uint64(n)) }

// derive returns the seed of the i-th independent input stream of seed.
func derive(seed uint64, i int) uint64 {
	r := splitmix64{seed ^ uint64(i)*0xd1b54a32d192ed03}
	return r.next()
}
