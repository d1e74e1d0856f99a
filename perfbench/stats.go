package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is one slow request, not a percentile.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hdMedian is the Harrell–Davis median (see hdQuantile), used for every
// figure the workloads report. Drain walls fall on the 100 ms poll grid of
// WaitDrained, and a plain median of them jumps a whole step when one drain
// lands on the other side of a poll.
func hdMedian(xs []float64) float64 { return hdQuantile(xs, 0.5) }

// percentile returns the p-quantile (0 < p < 1) of xs, estimated by
// hdQuantile. It refuses when fewer than minBeyond samples lie above the
// nearest rank, so a reported tail always has its sample count behind it.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, beyond, minBeyond)
	}
	return hdQuantile(xs, p), nil
}

// hdQuantile is the Harrell–Davis estimate of the p-quantile: the mean of
// the order statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density. A
// single order statistic jumps when samples cluster on both sides of the
// quantile, as point completion times do around a burst of tiny points;
// this estimate moves smoothly instead.
func hdQuantile(xs []float64, p float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	logBeta := la + lb - lab
	pdf := func(x float64) float64 {
		if x <= 0 || x >= 1 {
			return 0
		}
		return math.Exp((a-1)*math.Log(x) + (b-1)*math.Log1p(-x) - logBeta)
	}
	// Simpson's rule over each order statistic's slice [i/n, (i+1)/n].
	const steps = 8
	var est, total float64
	for i, v := range s {
		lo, h := float64(i)/float64(n), 1/float64(n*steps)
		w := pdf(lo) + pdf(lo+1/float64(n))
		for j := 1; j < steps; j++ {
			w += float64(2+2*(j%2)) * pdf(lo+float64(j)*h)
		}
		w *= h / 3
		est += w * v
		total += w
	}
	return est / total
}

// quartiles returns the first and third quartiles with the same method as
// Python's statistics.quantiles(xs, n=4) ("exclusive"), so the spreads this
// program prints match those computed from its output elsewhere.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
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

// sum adds xs.
func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// lptMakespan models the wall time of running jobs (durations) on workers
// longest-first onto the least-loaded worker — the schedule the campaign
// timing report assumes.
func lptMakespan(jobs []float64, workers int) float64 {
	if workers < 1 {
		workers = 1
	}
	s := sorted(jobs)
	loads := make([]float64, workers)
	for i := len(s) - 1; i >= 0; i-- {
		best := 0
		for w := 1; w < workers; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		loads[best] += s[i]
	}
	var mk float64
	for _, l := range loads {
		mk = math.Max(mk, l)
	}
	return mk
}
