// Package stats provides the small statistical helpers used by the
// benchmark harness and the critical-path analyzer: streaming
// summaries (Welford), load-imbalance metrics (max/mean, coefficient
// of variation, Gini), quantiles, and human-friendly unit formatting.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates a stream of float64 observations and reports
// count, min, max, mean, and standard deviation without storing the
// samples (Welford's online algorithm). The zero value is ready to use.
type Summary struct {
	N          int
	MinV, MaxV float64
	mean, m2   float64
}

// Add incorporates one observation. NaN observations are rejected
// (skipped): one poisoned rank timing must not erase a whole phase's
// imbalance summary.
func (s *Summary) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if s.N == 0 {
		s.MinV, s.MaxV = x, x
	} else {
		s.MinV = math.Min(s.MinV, x)
		s.MaxV = math.Max(s.MaxV, x)
	}
	s.N++
	d := x - s.mean
	s.mean += d / float64(s.N)
	s.m2 += d * (x - s.mean)
}

// Mean returns the mean of the observations (0 if none).
func (s *Summary) Mean() float64 { return s.mean }

// Std returns the population standard deviation (0 for fewer than two
// observations).
func (s *Summary) Std() float64 {
	if s.N < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.N))
}

// Imbalance returns max/mean, the standard load-imbalance factor
// (1.0 = perfectly balanced). It returns 1 when there are no
// observations or the mean is zero.
func (s *Summary) Imbalance() float64 {
	if s.N == 0 || s.mean == 0 {
		return 1
	}
	return s.MaxV / s.mean
}

// CoV returns the coefficient of variation Std/Mean, the
// scale-independent spread the paper's imbalance discussion uses
// alongside max/mean. It returns 0 with no observations or a zero
// mean.
func (s *Summary) CoV() float64 {
	if s.N == 0 || s.mean == 0 {
		return 0
	}
	return s.Std() / s.mean
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs under linear
// interpolation between order statistics. NaN values are ignored; with
// no usable observations it returns 0. xs is not modified.
func Quantile(xs []float64, q float64) float64 {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	if q <= 0 {
		return vals[0]
	}
	if q >= 1 {
		return vals[len(vals)-1]
	}
	pos := q * float64(len(vals)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo] + frac*(vals[lo+1]-vals[lo])
}

// NearestRank returns the nearest-rank q-quantile (0 < q <= 1) of xs:
// the smallest observation with at least a fraction q of the
// observations at or below it. Unlike Quantile it never interpolates,
// so the result is always one of the observations and never exceeds
// the largest. NaN values are ignored; with no usable observations it
// returns 0. xs is not modified.
func NearestRank(xs []float64, q float64) float64 {
	vals := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			vals = append(vals, x)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	rank := int(math.Ceil(q * float64(len(vals))))
	return vals[min(max(rank, 1), len(vals))-1]
}

// Gini returns the Gini coefficient of the non-negative values in xs:
// 0 for a perfectly even load, approaching 1 when one rank carries
// everything. It is the summary statistic of the Lorenz curve over
// per-rank busy time. NaN values are ignored; empty or zero-sum input
// returns 0.
func Gini(xs []float64) float64 {
	vals := make([]float64, 0, len(xs))
	var sum float64
	for _, x := range xs {
		if math.IsNaN(x) || x < 0 {
			continue
		}
		vals = append(vals, x)
		sum += x
	}
	if len(vals) == 0 || sum == 0 {
		return 0
	}
	sort.Float64s(vals)
	n := float64(len(vals))
	var weighted float64
	for i, x := range vals {
		weighted += float64(i+1) * x
	}
	return 2*weighted/(n*sum) - (n+1)/n
}

// Lorenz returns the Lorenz curve of the non-negative values in xs
// sampled at the given number of evenly spaced population fractions:
// point i is the share of the total carried by the poorest
// i/(points-1) of the ranks. It returns nil for empty, zero-sum, or
// sub-2-point requests.
func Lorenz(xs []float64, points int) []float64 {
	if points < 2 {
		return nil
	}
	vals := make([]float64, 0, len(xs))
	var sum float64
	for _, x := range xs {
		if math.IsNaN(x) || x < 0 {
			continue
		}
		vals = append(vals, x)
		sum += x
	}
	if len(vals) == 0 || sum == 0 {
		return nil
	}
	sort.Float64s(vals)
	cum := make([]float64, len(vals)+1)
	for i, x := range vals {
		cum[i+1] = cum[i] + x
	}
	out := make([]float64, points)
	for i := range out {
		pos := float64(i) / float64(points-1) * float64(len(vals))
		lo := int(pos)
		if lo >= len(vals) {
			out[i] = 1
			continue
		}
		frac := pos - float64(lo)
		out[i] = (cum[lo] + frac*vals[lo]) / sum
	}
	return out
}

func (s *Summary) String() string {
	return fmt.Sprintf("n=%d min=%.4g max=%.4g mean=%.4g std=%.4g", s.N, s.MinV, s.MaxV, s.mean, s.Std())
}

// Bytes formats a byte count with binary units, e.g. "5.3 GB".
func Bytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.2f %cB", float64(n)/float64(div), "KMGTPE"[exp])
}

// Rate formats a bandwidth in bytes/second, e.g. "1.30 GB/s".
func Rate(bytesPerSec float64) string {
	const unit = 1024.0
	suffixes := []string{"B/s", "KB/s", "MB/s", "GB/s", "TB/s"}
	i := 0
	for bytesPerSec >= unit && i < len(suffixes)-1 {
		bytesPerSec /= unit
		i++
	}
	return fmt.Sprintf("%.2f %s", bytesPerSec, suffixes[i])
}

// Seconds formats a duration given in seconds with sensible precision.
func Seconds(s float64) string {
	switch {
	case s < 1e-6:
		return fmt.Sprintf("%.1f ns", s*1e9)
	case s < 1e-3:
		return fmt.Sprintf("%.2f µs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.2f ms", s*1e3)
	case s < 60:
		return fmt.Sprintf("%.2f s", s)
	default:
		return fmt.Sprintf("%dm%04.1fs", int(s)/60, math.Mod(s, 60))
	}
}

// sparkRunes are the eight block levels Sparkline draws with.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders xs as a row of block characters scaled to the
// min..max range of the usable (non-NaN, finite) values — the
// one-line trend view cmd/perfhistory prints per metric. NaN or
// infinite entries render as spaces (a gap in the series); a flat
// series renders at the lowest level. Empty input returns "".
func Sparkline(xs []float64) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	if len(xs) == 0 {
		return ""
	}
	out := make([]rune, 0, len(xs))
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || lo > hi {
			out = append(out, ' ')
			continue
		}
		level := 0
		if hi > lo {
			level = int((x - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		out = append(out, sparkRunes[level])
	}
	return string(out)
}
