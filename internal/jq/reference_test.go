package jq

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/worker"
)

// This file keeps the dense bucket DP exactly as it was before the sparse
// run DP replaced it. It is the reference the property and fuzz tests
// hold dpScratch.run to, bit for bit.

// referenceBucketDP is the pre-sparse bucketDP: the same Algorithms 1–2
// over a dense key window. workers is sorted in place by decreasing
// bucket, as run sorts it.
func referenceBucketDP(workers []bucketedWorker, disablePruning bool, res *Result) {
	n := len(workers)
	slices.SortFunc(workers, func(a, b bucketedWorker) int { return b.b - a.b })
	aggregate := make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		aggregate[i] = aggregate[i+1] + workers[i].b
	}
	span := aggregate[0]
	cur, next := make([]float64, 2*span+1), make([]float64, 2*span+1)

	// Dense DP over keys in [−span, span], stored at offset +span. The two
	// buffers are swapped each iteration; [lo, hi] tracks the live window.
	cur[span] = 1 // SM[0] = 1
	lo, hi := span, span
	var estimate float64
	for i := 0; i < n; i++ {
		b, q := workers[i].b, workers[i].q
		remaining := aggregate[i]
		newLo, newHi := len(next), -1
		for k := lo; k <= hi; k++ {
			prob := cur[k]
			if prob == 0 {
				continue
			}
			cur[k] = 0
			res.KeysVisited++
			key := k - span
			if !disablePruning {
				if key > 0 && key-remaining > 0 {
					estimate += prob
					res.KeysPruned++
					continue
				}
				if key < 0 && key+remaining < 0 {
					res.KeysPruned++
					continue
				}
			}
			up, down := k+b, k-b
			next[up] += prob * q // v_i = 0: key + b_i, weight q_i
			next[down] += prob * (1 - q)
			if down < newLo {
				newLo = down
			}
			if up > newHi {
				newHi = up
			}
		}
		cur, next = next, cur
		if newHi < newLo { // everything pruned
			lo, hi = span, span
			cur[span] = 0
			break
		}
		lo, hi = newLo, newHi
	}
	// Final evaluation: keys > 0 contribute fully, key = 0 half.
	for k := lo; k <= hi; k++ {
		prob := cur[k]
		if prob == 0 {
			continue
		}
		switch key := k - span; {
		case key > 0:
			estimate += prob
		case key == 0:
			estimate += 0.5 * prob
		}
	}
	res.JQ = estimate
}

// dpResults runs the sparse and the dense DP on copies of workers.
func dpResults(workers []bucketedWorker, disablePruning bool) (sparse, dense Result) {
	var dp dpScratch
	dp.run(slices.Clone(workers), disablePruning, &sparse)
	referenceBucketDP(slices.Clone(workers), disablePruning, &dense)
	return sparse, dense
}

// sameResult compares two Results field by field, JQ and Bound by bits.
func sameResult(a, b Result) bool {
	return math.Float64bits(a.JQ) == math.Float64bits(b.JQ) &&
		math.Float64bits(a.Bound) == math.Float64bits(b.Bound) &&
		a.KeysVisited == b.KeysVisited && a.KeysPruned == b.KeysPruned &&
		a.ShortCircuited == b.ShortCircuited
}

// checkEstimateAgainstDense compares Estimate with the same estimate run
// on the dense DP: Estimate's own bucketization, fed to the reference.
func checkEstimateAgainstDense(t *testing.T, p worker.Pool, alpha float64, opts Options) {
	t.Helper()
	got, err := Estimate(p, alpha, opts)
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	workers, want, ok := denseSetup(p, alpha, opts)
	if ok {
		referenceBucketDP(workers, opts.DisablePruning, &want)
	}
	if !sameResult(got, want) {
		t.Fatalf("n=%d alpha=%v opts=%+v: sparse %+v (%x) != dense %+v (%x)",
			len(p), alpha, opts, got, math.Float64bits(got.JQ), want, math.Float64bits(want.JQ))
	}
}

// denseSetup is Estimate's bucketization: the workers the DP sees and the
// Result it starts from, or ok == false with the short-circuit Result.
func denseSetup(p worker.Pool, alpha float64, opts Options) (workers []bucketedWorker, res Result, ok bool) {
	if opts.NumBuckets == 0 {
		opts.NumBuckets = DefaultNumBuckets
	}
	normalized, _ := WithPrior(p, alpha).Normalize()
	qs := normalized.Qualities()
	maxQ, upper := 0.0, 0.0
	for _, q := range qs {
		maxQ = math.Max(maxQ, q)
		upper = math.Max(upper, phiOf(q))
	}
	if maxQ > HighQualityCutoff {
		return nil, Result{JQ: maxQ, Bound: 1 - maxQ, ShortCircuited: true}, false
	}
	if upper == 0 {
		return nil, Result{JQ: 0.5, ShortCircuited: true}, false
	}
	delta := upper / float64(opts.NumBuckets)
	for _, q := range qs {
		workers = append(workers, bucketedWorker{b: bucketOf(phiOf(q), delta), q: q})
	}
	return workers, Result{Bound: ErrorBound(len(qs), upper, opts.NumBuckets)}, true
}

// The sparse DP must reproduce the dense one bit for bit on raw bucketed
// juries: zero buckets, repeated buckets, and juries long enough that
// probabilities underflow to 0.
func TestSparseDPMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(24)
		if rng.Intn(8) == 0 {
			n = 200 + rng.Intn(60)
		}
		maxB := []int{1, 3, 20, 60}[rng.Intn(4)]
		workers := make([]bucketedWorker, n)
		for i := range workers {
			workers[i] = bucketedWorker{b: rng.Intn(maxB + 1), q: 0.5 + 0.49*rng.Float64()}
		}
		for _, disable := range []bool{false, true} {
			sparse, dense := dpResults(workers, disable)
			if !sameResult(sparse, dense) {
				t.Fatalf("seed %d pruning off=%v: sparse %+v != dense %+v", seed, disable, sparse, dense)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Estimate must match the dense DP on the shapes that stress the merge:
// bucket-0 workers (q ≈ 0.5) beside a strong one, priors α ≠ 0.5, and
// 200+ worker juries whose vote-pattern probabilities underflow to 0.
func TestEstimateMatchesDenseDP(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Without pruning, the 230-worker jury's near-all-wrong vote patterns
	// (probability ≤ 0.03^230) underflow, so both DPs meet zero keys.
	large := make([]float64, 230)
	for i := range large {
		large[i] = 0.97 + 0.019*rng.Float64()
	}
	cases := []struct {
		name string
		qs   []float64
	}{
		{"bucket-0 beside strong", []float64{0.5001, 0.95, 0.5002, 0.5, 0.6}},
		{"all bucket-0 but one", []float64{0.501, 0.502, 0.503, 0.95}},
		{"sub-half workers", []float64{0.1, 0.3, 0.8, 0.45, 0.7}},
		{"underflowing 230", large},
	}
	for _, c := range cases {
		for _, alpha := range []float64{0.5, 0.3, 0.9} {
			for _, buckets := range []int{1, 7, 50} {
				for _, disable := range []bool{false, true} {
					checkEstimateAgainstDense(t, worker.UniformCost(c.qs, 1), alpha,
						Options{NumBuckets: buckets, DisablePruning: disable})
				}
			}
		}
	}
}

// FuzzSparseDPMatchesDense drives arbitrary juries, priors, bucket counts
// and the pruning switch through Estimate and the dense reference DP and
// asserts the whole Result is bit-identical. Run with
// `go test -fuzz FuzzSparseDPMatchesDense ./internal/jq`; the seed corpus
// runs on every `go test`.
func FuzzSparseDPMatchesDense(f *testing.F) {
	f.Add([]byte{128, 150, 200}, byte(128), uint16(50), false)
	f.Add([]byte{128, 129, 242, 128}, byte(77), uint16(9), true)
	f.Add([]byte{10, 240, 30, 200, 180}, byte(230), uint16(1), false)
	strong := make([]byte, 220)
	for i := range strong {
		strong[i] = 248 + byte(i%5) // q ∈ [0.973, 0.988]
	}
	f.Add(strong, byte(128), uint16(20), true)
	f.Add(strong, byte(40), uint16(20), false)
	f.Fuzz(func(t *testing.T, qualityBytes []byte, alphaByte byte, bucketsRaw uint16, disablePruning bool) {
		if len(qualityBytes) == 0 || len(qualityBytes) > 256 {
			t.Skip()
		}
		qs := make([]float64, len(qualityBytes))
		for i, b := range qualityBytes {
			qs[i] = float64(b) / 255
		}
		// Bound the dense window (2·n·buckets keys per step) so each run
		// stays fast.
		buckets := int(bucketsRaw)%(4096/len(qs)+1) + 1
		checkEstimateAgainstDense(t, worker.UniformCost(qs, 1), float64(alphaByte)/255,
			Options{NumBuckets: buckets, DisablePruning: disablePruning})
	})
}
