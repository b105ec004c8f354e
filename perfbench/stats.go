package main

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the nearest-rank q-quantile of samples (sorting
// them in place) and whether enough samples lie beyond it to report it.
func percentile(samples []float64, q float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return samples[rank-1], n-rank >= minTail
}

// sampler collects float samples from any goroutine, keeping at most
// max of them (the most recent ones once full).
type sampler struct {
	mu   sync.Mutex
	max  int
	next int
	vals []float64
}

func newSampler(max int) *sampler { return &sampler{max: max, vals: make([]float64, 0, 1024)} }

func (s *sampler) add(v float64) {
	s.mu.Lock()
	if len(s.vals) < s.max {
		s.vals = append(s.vals, v)
	} else {
		s.vals[s.next] = v
		s.next = (s.next + 1) % s.max
	}
	s.mu.Unlock()
}

func (s *sampler) reset() {
	s.mu.Lock()
	s.vals, s.next = s.vals[:0], 0
	s.mu.Unlock()
}

// values returns a copy of the retained samples.
func (s *sampler) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return slices.Clone(s.vals)
}

// pct is a reported percentile with the sample count behind it.
type pct struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
	OK      bool    `json:"reported"`
}

func pctOf(samples []float64, q float64) pct {
	v, ok := percentile(samples, q)
	if !ok {
		v = 0
	}
	return pct{Value: v, Samples: len(samples), OK: ok}
}

// failFrac is the share of attempted ops that failed for any reason —
// an error reply, a refusal or shed, or wrong content.
func failFrac(attempted, failed int64) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// ratio divides, reporting 0 for an empty denominator.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
