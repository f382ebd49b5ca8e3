package agg

import "math"

// The per-window value histogram behind p50/p99. Buckets are fixed at
// compile time, so every window, sparse or dense, counts into the same
// 257 slots and the estimator never resizes or keeps per-series bucket
// ladders. The layout is log-scaled with two mantissa bits per binade,
// which bounds the relative quantile error at one eighth of a binade
// (~12.5%) across the covered range — plenty for "is the p99 pressure
// in this cell drifting". A window stores only the buckets it holds
// (type hist below): most windows see a handful of samples, so the
// kilobyte a dense histogram costs is paid only by a window that
// outgrows its inline pairs.
//
// Layout (histSize = 257 buckets of uint32):
//
//	0         zero (and NaN, which validation upstream already rejects)
//	1..128    positive values: 32 binades, exponents [-8, 24), four
//	          sub-buckets per binade; covers [2^-9, 2^23) ≈ [0.002, 8.4e6]
//	129..256  negative values, mirrored
//
// Out-of-range magnitudes clamp into the edge buckets; min/max are
// tracked exactly alongside, and quantiles are clamped into [min, max],
// so single-sample and extreme windows still report exact values.
const (
	histSize   = 257
	histMinExp = -8
	histMaxExp = 24

	// inlinePairs is how many distinct buckets a window holds before it
	// moves to a dense block.
	inlinePairs = 4
)

// block is a dense histogram: one count per bucket.
type block = [histSize]uint32

// hist is one window's histogram, stored by what it holds: up to
// inlinePairs (bucket, count) pairs in ascending bucket order, or, once
// the window has seen more distinct buckets than that, a dense block.
// A window costs 40 bytes of histogram until it overflows.
type hist struct {
	dense *block // every bucket once the pairs overflowed; nil before
	cnt   [inlinePairs]uint32
	bkt   [inlinePairs]uint16
	n     uint8 // pairs in use
}

// slot returns bucket b's counter, making room for it if the window has
// none: an inline pair, or the dense block when the pairs are full. The
// block comes from *spare when the caller has one to recycle (slot then
// takes it), so a series that keeps overflowing does not allocate.
func (h *hist) slot(b int, spare **block) *uint32 {
	if h.dense != nil {
		return &h.dense[b]
	}
	n := int(h.n)
	i := 0
	for i < n && int(h.bkt[i]) < b {
		i++
	}
	if i < n && int(h.bkt[i]) == b {
		return &h.cnt[i]
	}
	if n == inlinePairs {
		var d *block
		if spare != nil && *spare != nil {
			d, *spare = *spare, nil
			*d = block{}
		} else {
			d = new(block)
		}
		for j := 0; j < n; j++ {
			d[h.bkt[j]] = h.cnt[j]
		}
		*h = hist{dense: d}
		return &d[b]
	}
	copy(h.bkt[i+1:n+1], h.bkt[i:n])
	copy(h.cnt[i+1:n+1], h.cnt[i:n])
	h.bkt[i], h.cnt[i] = uint16(b), 0
	h.n++
	return &h.cnt[i]
}

// each calls fn with every non-empty bucket in ascending bucket order.
// It is the only reader of a window's buckets: merges, Batch and the
// spill all go through it.
func (h *hist) each(fn func(b int, c uint32)) {
	if h.dense != nil {
		for b, c := range h.dense {
			if c != 0 {
				fn(b, c)
			}
		}
		return
	}
	for i := 0; i < int(h.n); i++ {
		if h.cnt[i] != 0 {
			fn(int(h.bkt[i]), h.cnt[i])
		}
	}
}

// bucketOf maps a sample value to its histogram bucket.
func bucketOf(v float64) int {
	if v == 0 || math.IsNaN(v) {
		return 0
	}
	neg := math.Signbit(v)
	if neg {
		v = -v
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	if exp < histMinExp {
		exp, frac = histMinExp, 0.5
	} else if exp >= histMaxExp {
		exp, frac = histMaxExp-1, 0.9999
	}
	b := (exp-histMinExp)<<2 + int((frac-0.5)*8) + 1
	if neg {
		b += 128
	}
	return b
}

// bucketMid is the representative value reported for a bucket: the
// arithmetic midpoint of its bounds.
func bucketMid(b int) float64 {
	if b == 0 {
		return 0
	}
	neg := b > 128
	if neg {
		b -= 128
	}
	b--
	exp := histMinExp + b>>2
	frac := 0.5 + (float64(b&3)+0.5)/8
	v := math.Ldexp(frac, exp)
	if neg {
		v = -v
	}
	return v
}

// histQuantile reads quantile q (0..1) from a histogram holding n
// samples, clamped into the window's exact [min, max] envelope.
func histQuantile(h *block, n uint64, q float64, min, max float64) float64 {
	if n == 0 {
		return 0
	}
	rank := uint64(q*float64(n-1)) + 1 // 1-based nearest-rank
	var cum uint64
	clamp := func(v float64) float64 {
		if v < min {
			return min
		}
		if v > max {
			return max
		}
		return v
	}
	// Ascending value order: negatives from largest magnitude (bucket
	// 256) toward zero (129), then the zero bucket, then positives.
	for b := 256; b >= 129; b-- {
		if cum += uint64(h[b]); cum >= rank {
			return clamp(bucketMid(b))
		}
	}
	if cum += uint64(h[0]); cum >= rank {
		return clamp(0)
	}
	for b := 1; b <= 128; b++ {
		if cum += uint64(h[b]); cum >= rank {
			return clamp(bucketMid(b))
		}
	}
	return clamp(max)
}
