package jq

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/worker"
)

// scratches recycles the sparse DP runs across Estimate calls: the
// annealing search evaluates thousands of juries, and per-call run
// slices would dominate its allocation profile.
var scratches = sync.Pool{New: func() any { return new(dpScratch) }}

// DefaultNumBuckets is the bucket count used by the paper's experiments
// (Section 6.1.1). The analytic error bound below 1% needs numBuckets ≥
// 200·n; in practice 50 buckets already yields errors under 0.01% (Figure
// 9c), which this reproduction confirms.
const DefaultNumBuckets = 50

// HighQualityCutoff is the quality above which Estimate short-circuits: a
// single worker with q > 0.99 already pins JQ into (0.99, 1] (Lemma 1), so
// the estimate returns that quality directly, keeping the error below 1%
// and φ(q) = ln(q/(1−q)) bounded by φ(0.99) < 5 (Section 4.4).
const HighQualityCutoff = 0.99

// Options configures Estimate and NewEstimator.
type Options struct {
	// NumBuckets is the number of equal-width buckets dividing
	// [0, max φ(q_i)]. Zero selects DefaultNumBuckets.
	NumBuckets int
	// DisablePruning turns off the Algorithm 2 pruning; results are
	// identical, only slower. Used by the Figure 9(d) experiment.
	DisablePruning bool
	// DisableMemo turns off the Estimator's result memoization. Ignored
	// by the one-shot Estimate, which never memoizes.
	DisableMemo bool
	// MemoLimit caps the number of juries the Estimator memoizes; zero
	// selects DefaultMemoLimit and a negative value is rejected. Ignored
	// by Estimate.
	MemoLimit int
}

// Result carries the estimate and the work counters used by the pruning
// experiments.
type Result struct {
	// JQ is the estimated jury quality. It never exceeds the true
	// JQ(J, BV, α) (the bucketed decision rule is itself a deterministic
	// voting strategy, and BV is optimal).
	JQ float64
	// Bound is the analytic additive error bound e^{n·Δ/4} − 1 for this
	// run's bucket width Δ; the true JQ lies in [JQ, JQ+Bound].
	Bound float64
	// KeysVisited counts (key, prob) pairs expanded across iterations.
	KeysVisited int
	// KeysPruned counts pairs resolved early by the pruning rule.
	KeysPruned int
	// ShortCircuited reports that a worker above HighQualityCutoff (or a
	// degenerate all-q=0.5 jury) resolved the estimate without running the
	// bucket DP.
	ShortCircuited bool
}

// Estimate approximates JQ(J, BV, α) with the paper's Algorithm 1:
//
//  1. reduce the prior to a pseudo-worker (Theorem 3) and reinterpret
//     workers with q < 0.5 as quality 1−q (Section 3.3);
//  2. map each worker's log-odds φ(q_i) = ln(q_i/(1−q_i)) to an integer
//     bucket b_i = ⌈φ(q_i)/Δ − ½⌉ with Δ = upper/numBuckets;
//  3. run the iterative (key, prob) dynamic program over the bucketed
//     log-likelihood-ratio R(V), pruning keys whose sign can no longer
//     change (Algorithm 2);
//  4. sum the probability mass of keys > 0 plus half the mass at key = 0.
//
// The returned estimate is a lower bound on the true JQ with additive error
// below Result.Bound, which is < 1% when numBuckets ≥ 200·n (Section 4.4).
// Time is O(n · live keys), where a step's live keys number at most
// min(2ⁿ, 2·Σbᵢ+1), and memory is O(Σbᵢ) ⊆ O(numBuckets · n).
func Estimate(pool worker.Pool, alpha float64, opts Options) (Result, error) {
	if err := pool.Validate(); err != nil {
		return Result{}, err
	}
	if err := checkPrior(alpha); err != nil {
		return Result{}, err
	}
	if opts.NumBuckets == 0 {
		opts.NumBuckets = DefaultNumBuckets
	}
	if opts.NumBuckets < 1 {
		return Result{}, fmt.Errorf("jq: NumBuckets must be positive, got %d", opts.NumBuckets)
	}
	withPrior := WithPrior(pool, alpha)
	normalized, _ := withPrior.Normalize()
	qs := normalized.Qualities()

	// High-quality short-circuit (Section 4.4): JQ ≥ max q_i by Lemma 1,
	// so with q > 0.99 returning q keeps the error under 1% while keeping
	// φ bounded for everyone else.
	maxQ := 0.0
	for _, q := range qs {
		if q > maxQ {
			maxQ = q
		}
	}
	if maxQ > HighQualityCutoff {
		return Result{JQ: maxQ, Bound: 1 - maxQ, ShortCircuited: true}, nil
	}

	// Bucketize. upper = max φ(q_i); all-q=0.5 juries have upper = 0 and
	// JQ exactly 0.5.
	n := len(qs)
	phis := make([]float64, n)
	upper := 0.0
	for i, q := range qs {
		phis[i] = math.Log(q / (1 - q)) // q ∈ [0.5, 0.99] ⇒ φ ∈ [0, ~4.6]
		if phis[i] > upper {
			upper = phis[i]
		}
	}
	if upper == 0 {
		return Result{JQ: 0.5, ShortCircuited: true}, nil
	}
	delta := upper / float64(opts.NumBuckets)
	workers := make([]bucketedWorker, n)
	for i := range qs {
		workers[i] = bucketedWorker{b: bucketOf(phis[i], delta), q: qs[i]}
	}

	res := Result{Bound: ErrorBound(n, upper, opts.NumBuckets)}
	dp := scratches.Get().(*dpScratch)
	defer scratches.Put(dp)
	dp.run(workers, opts.DisablePruning, &res)
	return res, nil
}

// bucketedWorker is one jury member after bucketization: the integer
// log-odds bucket b and the (normalized) quality q.
type bucketedWorker struct {
	b int
	q float64
}

// bucketOf maps a log-odds value to its integer bucket, b = ⌈φ/Δ − ½⌉.
func bucketOf(phi, delta float64) int {
	return int(math.Ceil(phi/delta - 0.5))
}

// dpScratch holds the sparse DP's runs: the live keys of one step in
// ascending order and their probabilities, plus the next step's run and
// Algorithm 2's suffix sums. Every slice is reused across runs.
type dpScratch struct {
	aggregate     []int
	keys, nkeys   []int
	probs, nprobs []float64
}

// run is the sorted (key, prob) dynamic program of Algorithms 1–2 over
// the bucketized jury, accumulating the estimate and work counters into
// res. It is the single shared core of Estimate and Estimator, which
// keeps the two paths bit-identical by construction. workers holds the
// jury in evaluation order and is sorted in place by decreasing bucket.
//
// The DP keeps only the live keys, as one ascending run. Each step first
// prunes the run's ends, then merges the two shifted copies of the
// survivors (vote 0: key+b, weight q; vote 1: key−b, weight 1−q) into the
// next run. Every float operation is one a dense scan of the key window
// in ascending key order performs, on the same operands and in the same
// order: pruned mass joins the estimate by ascending key, a key reached by
// both votes sums its two terms, and the final sum runs by ascending key,
// so results do not depend on how sparse the window is.
func (dp *dpScratch) run(workers []bucketedWorker, disablePruning bool, res *Result) {
	n := len(workers)
	// Sort by decreasing bucket so the largest keys appear first, making
	// the pruning suffix-bound as tight as possible as early as possible.
	// slices.SortFunc (unlike sort.Slice) does not box its argument, which
	// keeps steady-state Estimator evaluations allocation-free.
	slices.SortFunc(workers, func(a, b bucketedWorker) int { return b.b - a.b })

	// aggregate[i] = Σ_{j ≥ i} b_j: the largest swing the remaining
	// workers can still apply to a key (Algorithm 2's AggregateBucket).
	aggregate := slices.Grow(dp.aggregate[:0], n+1)[:n+1]
	aggregate[n] = 0
	for i := n - 1; i >= 0; i-- {
		aggregate[i] = aggregate[i+1] + workers[i].b
	}

	// The run holds only keys of nonzero probability: a child whose
	// probability underflows to 0 is dropped, as the dense scan skipped
	// zero slots. Every key lies in [−Σb, Σb], so no run outgrows 2·Σb+1
	// entries.
	size := 2*aggregate[0] + 1
	keys, probs := slices.Grow(dp.keys[:0], size), slices.Grow(dp.probs[:0], size)
	nkeys, nprobs := slices.Grow(dp.nkeys[:0], size), slices.Grow(dp.nprobs[:0], size)
	keys, probs = append(keys, 0), append(probs, 1) // SM[0] = 1
	var estimate float64
	for i := 0; i < n && len(keys) > 0; i++ {
		b, q := workers[i].b, workers[i].q
		remaining := aggregate[i]
		res.KeysVisited += len(keys)
		// Prune pass. Algorithm 2: once |key| exceeds the remaining swing
		// the final sign is fixed; positive keys contribute their full
		// descendant mass (the vote-probability factors sum to 1), negative
		// keys contribute nothing. In an ascending run the pruned keys are
		// a prefix (key < −remaining) and a suffix (key > remaining); the
		// survivors between them stay in place.
		lo, hi := 0, len(keys)
		if !disablePruning {
			for lo < hi && keys[lo] < -remaining {
				lo++
			}
			for hi > lo && keys[hi-1] > remaining {
				hi--
			}
			for _, prob := range probs[hi:] {
				estimate += prob
			}
			res.KeysPruned += lo + len(keys) - hi
		}
		sk, sp := keys[lo:hi], probs[lo:hi]
		m := len(sk)
		// Merge pass. A down key never passes the up key of the same
		// parent, so the down run is exhausted first.
		p := 1 - q
		nkeys, nprobs = nkeys[:size], nprobs[:size]
		u, d, o := 0, 0, 0
		for d < m {
			var key int
			var prob float64
			switch uk, dk := sk[u]+b, sk[d]-b; {
			case dk < uk:
				key, prob = dk, sp[d]*p
				d++
			case dk > uk:
				key, prob = uk, sp[u]*q
				u++
			default:
				key, prob = uk, sp[u]*q+sp[d]*p
				u++
				d++
			}
			nkeys[o], nprobs[o] = key, prob
			if prob != 0 {
				o++
			}
		}
		for ; u < m; u++ {
			nkeys[o], nprobs[o] = sk[u]+b, sp[u]*q
			if nprobs[o] != 0 {
				o++
			}
		}
		keys, nkeys = nkeys[:o], keys
		probs, nprobs = nprobs[:o], probs
	}
	// Final evaluation: keys > 0 contribute fully, key = 0 half.
	for j, key := range keys {
		switch {
		case key > 0:
			estimate += probs[j]
		case key == 0:
			estimate += 0.5 * probs[j]
		}
	}
	res.JQ = estimate
	dp.aggregate, dp.keys, dp.nkeys, dp.probs, dp.nprobs = aggregate, keys, nkeys, probs, nprobs
}

// ErrorBound returns the additive approximation bound of Section 4.4,
// e^{n·Δ/4} − 1 with bucket width Δ = upper/numBuckets. Setting
// numBuckets = d·n with d ≥ 200 and upper < 5 keeps it under 0.627%.
func ErrorBound(n int, upper float64, numBuckets int) float64 {
	if numBuckets < 1 || n < 1 || upper <= 0 {
		return 0
	}
	delta := upper / float64(numBuckets)
	return math.Exp(float64(n)*delta/4) - 1
}
