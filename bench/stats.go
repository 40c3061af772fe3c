package main

import (
	"math"
	"sort"
)

// minBeyond is the guide's rule for reporting a percentile: at least
// ten samples must lie beyond it, or the percentile is not reported.
const minBeyond = 10

// quantile is the Harrell–Davis estimate of the p-quantile: a
// Beta-weighted average of all order statistics. The workloads mix
// deliberately unlike samples (mono and poly verdicts; hits, misses,
// edits and Go requests), and there the plain sample median jumps
// between the two middle clusters from run to run; the weighted
// estimate moves smoothly with the data instead.
func quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i := 1; i <= n; i++ {
		cur := betaInc(a, b, float64(i)/float64(n))
		sum += (cur - prev) * s[i-1]
		prev = cur
	}
	return sum
}

// median is always reported, with its sample count alongside.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentile returns the p-quantile only when at least minBeyond
// samples lie beyond it.
func percentile(xs []float64, p float64) (float64, bool) {
	beyond := int(math.Floor(float64(len(xs))*(1-p) + 1e-9))
	if len(xs) == 0 || beyond < minBeyond {
		return 0, false
	}
	return quantile(xs, p), true
}

// tailPercentile picks the highest of p99.9, p99 and p90 that the
// sample count supports.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	for _, p := range []float64{0.999, 0.99, 0.9} {
		if v, ok := percentile(xs, p); ok {
			return p, v, true
		}
	}
	return 0, 0, false
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a + b)
	lb, _ := math.Lgamma(a)
	lc, _ := math.Lgamma(b)
	front := math.Exp(la - lb - lc + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const tiny = 1e-300
	c, d := 1.0, 1-(a+b)*x/(a+1)
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= 300; m++ {
		fm := float64(m)
		aa := fm * (b - fm) * x / ((a + 2*fm - 1) * (a + 2*fm))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (a + b + fm) * x / ((a + 2*fm) * (a + 2*fm + 1))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < 1e-12 {
			break
		}
	}
	return h
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio is a/(a+b), or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if a+b == 0 {
		return 0
	}
	return a / (a + b)
}
