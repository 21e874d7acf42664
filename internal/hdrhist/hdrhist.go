// Package hdrhist provides a fixed-memory, lock-free latency histogram in
// the spirit of HDR histograms: values are spread over log-linear buckets
// (each power-of-two range split into 32 linear sub-buckets, ~3% relative
// error), every bucket is an atomic counter, and both the record path and
// the snapshot path run without taking a lock. One histogram instance is
// shared by all request goroutines of an endpoint (dmsapi /metricsz) and by
// every training worker (trainer's epoch times), so both the write path
// and the read path must never serialize traffic.
//
// A Snapshot is a near-point-in-time view: buckets are read with atomic
// loads while recordings continue, so a snapshot taken mid-burst may be a
// few counts behind the total — but it is always internally sane (never
// torn values, quantiles always within the recorded range), which the
// regression test pins under -race.
package hdrhist

import (
	"math/bits"
	"sync/atomic"
	"time"
)

const (
	// subBucketBits fixes the linear resolution inside each power-of-two
	// range: 1<<subBucketBits sub-buckets, bounding relative error at
	// ~1/2^subBucketBits.
	subBucketBits = 5
	subBuckets    = 1 << subBucketBits // 32

	// maxExp covers the full non-negative int64 range (values are
	// nanoseconds; 2^62 ns ≈ 146 years).
	maxExp     = 63 - subBucketBits
	numBuckets = subBuckets + maxExp*subBuckets
)

// Histogram is a concurrency-safe latency histogram. The zero value is
// ready to use. It must not be copied after first use.
type Histogram struct {
	count   atomic.Int64
	sumNS   atomic.Int64
	maxNS   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketIndex maps a non-negative nanosecond value to its bucket: values
// below subBuckets map directly; larger ones to (exponent, mantissa) with
// subBucketBits of mantissa resolution.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	exp := bits.Len64(u) - 1 - subBucketBits // ≥ 0 for u ≥ subBuckets
	mantissa := int(u>>uint(exp)) - subBuckets
	return subBuckets + exp*subBuckets + mantissa
}

// bucketLow returns the smallest value mapping to bucket b (the inverse of
// bucketIndex on bucket lower bounds).
func bucketLow(b int) int64 {
	if b < subBuckets {
		return int64(b)
	}
	exp := (b - subBuckets) / subBuckets
	mantissa := (b - subBuckets) % subBuckets
	return int64(subBuckets+mantissa) << uint(exp)
}

// bucketMid returns a representative value for bucket b (midpoint of its
// range), used when reporting quantiles.
func bucketMid(b int) int64 {
	lo := bucketLow(b)
	if b < subBuckets {
		return lo
	}
	exp := (b - subBuckets) / subBuckets
	return lo + (int64(1)<<uint(exp))/2
}

// Record adds one observation. Negative durations are clamped to zero.
// Safe for concurrent use; never blocks.
func (h *Histogram) Record(d time.Duration) { h.RecordN(d, 1) }

// RecordN adds n identical observations in one shot — the bulk path used
// when reconstructing a histogram from summarized data (e.g. merging
// per-shard quantile summaries into a fleet-wide histogram, where each
// reported quantile stands in for a known share of that shard's count).
// Bucket increments commute, so merging is order-independent. Non-positive
// n is a no-op.
func (h *Histogram) RecordN(d time.Duration, n int64) {
	if n <= 0 {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	// The maximum is raised before the observation lands in a bucket, and
	// Snapshot reads it after the buckets: a snapshot's MaxNS then covers
	// every observation its buckets hold.
	for {
		cur := h.maxNS.Load()
		if ns <= cur || h.maxNS.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.count.Add(n)
	h.sumNS.Add(ns * n)
	h.buckets[bucketIndex(ns)].Add(n)
}

// Snapshot captures the histogram state with atomic loads only — the read
// path takes no lock and stalls no recorder.
func (h *Histogram) Snapshot() Snapshot {
	s := Snapshot{
		Count: h.count.Load(),
		SumNS: h.sumNS.Load(),
	}
	// Recordings racing this loop may land in buckets already read; the
	// bucket total can therefore trail Count slightly. Quantile() scales to
	// the bucket total, so quantiles stay internally consistent.
	var total int64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		total += n
		s.nonzero = append(s.nonzero, bucketCount{bucket: i, n: n})
	}
	s.bucketTotal = total
	s.MaxNS = h.maxNS.Load()
	return s
}

// bucketCount pairs a bucket index with its occupancy.
type bucketCount struct {
	bucket int
	n      int64
}

// Snapshot is an immutable view of a Histogram.
type Snapshot struct {
	Count int64 // observations recorded
	SumNS int64 // total of all observations, ns
	MaxNS int64 // largest observation, ns

	nonzero     []bucketCount // occupied buckets, ascending
	bucketTotal int64
}

// Mean returns the average observation (0 when empty).
func (s Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / s.Count)
}

// Max returns the largest observation.
func (s Snapshot) Max() time.Duration { return time.Duration(s.MaxNS) }

// Quantile returns the value at quantile q in [0, 1] (e.g. 0.99 for p99),
// accurate to the bucket resolution (~3%). Returns 0 when empty.
func (s Snapshot) Quantile(q float64) time.Duration {
	if s.bucketTotal == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(q * float64(s.bucketTotal))
	if rank >= s.bucketTotal {
		rank = s.bucketTotal - 1
	}
	var seen int64
	for _, bc := range s.nonzero {
		seen += bc.n
		if seen > rank {
			mid := bucketMid(bc.bucket)
			// Never report beyond the observed maximum: the top bucket's
			// midpoint can overshoot a single large sample.
			if s.MaxNS > 0 && mid > s.MaxNS {
				return time.Duration(s.MaxNS)
			}
			return time.Duration(mid)
		}
	}
	return time.Duration(s.MaxNS)
}
