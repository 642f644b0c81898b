package main

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything: p99 needs at least 1000 samples.
const minBeyond = 10

// p99Samples is the sample count at which p99 has minBeyond beyond it.
const p99Samples = 100 * minBeyond

// percentile returns the nearest-rank p-th percentile (0 < p < 100) of
// sorted, and whether at least minBeyond samples lie above its rank.
// The median (p = 50) is always reported when there is a sample.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	rank = min(max(rank, 1), n)
	return sorted[rank-1], p == 50 || n-rank >= minBeyond
}

// p99Windows is how many consecutive windows windowedP99 splits a phase
// into when every window can still hold p99Samples.
const p99Windows = 5

// windowedP99 splits latencies, in completion order, into up to
// p99Windows consecutive windows of at least p99Samples each, and returns
// the median of the windows' p99s in milliseconds. A tail is set by the
// slowest percent of requests, so a few seconds of load from outside the
// benchmark move a whole-phase p99; the median of windows discards a
// window they hit. It reports false below p99Samples latencies.
func windowedP99(lat []time.Duration) (float64, bool) {
	k := min(p99Windows, len(lat)/p99Samples)
	if k == 0 {
		return 0, false
	}
	p99s := make([]float64, k)
	for w := range k {
		p99s[w], _ = percentile(msSorted(lat[w*len(lat)/k:(w+1)*len(lat)/k]), 99)
	}
	return median(p99s), true
}

// msSorted converts durations to ascending milliseconds.
func msSorted(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	slices.Sort(out)
	return out
}

// median of unsorted values; 0 for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// promText is one /metrics scrape: series name with labels (exactly as
// exposed, e.g. `juryd_stage_duration_seconds_count{stage="apply"}`)
// to value.
type promText map[string]float64

func parseProm(text string) promText {
	out := promText{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta returns after − before for every series in after (gauges are
// better read from after alone).
func (after promText) delta(before promText) promText {
	out := promText{}
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// hist extracts one histogram: labels is the selector without le, such
// as `stage="apply"` (empty for an unlabelled histogram). It returns the
// finite upper bounds with their cumulative counts, and the total count
// and sum.
func (p promText) hist(name, labels string) (bounds, cum []float64, count, sum float64) {
	prefix := name + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	for k, v := range p {
		rest, ok := strings.CutPrefix(k, prefix)
		if !ok {
			continue
		}
		le, ok := strings.CutSuffix(rest, `"}`)
		if !ok || le == "+Inf" {
			continue
		}
		b, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		bounds = append(bounds, b)
		cum = append(cum, v)
	}
	idx := make([]int, len(bounds))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		switch {
		case bounds[a] < bounds[b]:
			return -1
		case bounds[a] > bounds[b]:
			return 1
		}
		return 0
	})
	sb := make([]float64, len(idx))
	sc := make([]float64, len(idx))
	for i, j := range idx {
		sb[i], sc[i] = bounds[j], cum[j]
	}
	sel := ""
	if labels != "" {
		sel = "{" + labels + "}"
	}
	return sb, sc, p[name+"_count"+sel], p[name+"_sum"+sel]
}

// histQuantile estimates quantile q (0..1) of a histogram delta by
// linear interpolation inside the bucket holding it, the way Prometheus'
// histogram_quantile does. Observations beyond the last finite bound
// report that bound. No observations report 0.
func histQuantile(bounds, cum []float64, count, q float64) float64 {
	if count <= 0 || len(bounds) == 0 {
		return 0
	}
	target := q * count
	lower, below := 0.0, 0.0
	for i, b := range bounds {
		if cum[i] >= target {
			in := cum[i] - below
			if in <= 0 {
				return b
			}
			return lower + (b-lower)*(target-below)/in
		}
		lower, below = b, cum[i]
	}
	return bounds[len(bounds)-1]
}

// stageQuantile is histQuantile over one juryd_stage_duration_seconds
// stage, in seconds.
func (p promText) stageQuantile(stage string, q float64) float64 {
	b, c, n, _ := p.hist("juryd_stage_duration_seconds", `stage="`+stage+`"`)
	return histQuantile(b, c, n, q)
}

// stageSum is the total seconds one stage accumulated.
func (p promText) stageSum(stage string) float64 {
	return p[`juryd_stage_duration_seconds_sum{stage="`+stage+`"}`]
}

// routeCountSum returns one route's completed-request count and total
// seconds.
func (p promText) routeCountSum(route string) (count, sum float64) {
	sel := `{route="` + route + `"}`
	return p["juryd_request_duration_seconds_count"+sel], p["juryd_request_duration_seconds_sum"+sel]
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
