package jq

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/setmemo"
	"repro/internal/worker"
)

// DefaultMemoLimit caps the Estimator's memo table. An entry holds the
// jury's mask, its Result and an index slot: ~80 bytes at a pool of 128,
// so the default bounds the table near 10 MB, far beyond what one
// annealing run visits, while keeping a runaway caller from exhausting
// memory.
const DefaultMemoLimit = 1 << 17

// ErrIndexRange is returned when a subset refers to a worker outside the
// evaluator's candidate pool.
var ErrIndexRange = fmt.Errorf("jq: subset index outside candidate pool")

// EstimatorStats reports the work an Estimator has performed, alongside
// the per-call KeysVisited/KeysPruned counters carried by Result.
type EstimatorStats struct {
	// Evals counts Eval/EvalBits calls.
	Evals int
	// Hits counts evaluations answered from the memo table.
	Hits int
	// Misses counts evaluations that ran the bucket DP (or a
	// short-circuit).
	Misses int
	// MemoEntries is the current memo table size.
	MemoEntries int
}

// Estimator is the incremental evaluation engine for the Algorithm 1
// bucket approximation of JQ(J, BV, α): it is constructed once per
// (candidate pool, prior, options) and then evaluates arbitrary subsets
// of the pool without re-validating, re-normalizing, or recomputing
// log-odds, and without per-call allocation. Results are bit-identical
// to the one-shot Estimate on the same subset: both run the shared
// sparse DP core (dpScratch.run) on identically assembled inputs.
//
// Eval takes the jury as a bitmask over the pool and evaluates its
// members in canonical ascending order, so the result (and the memo key)
// is independent of the order the search produced the jury in. Juries
// revisited during a search — ubiquitous under simulated annealing — are
// answered from a hash-indexed memo of jury masks, verified on every hit.
// An index list that is not a set (a duplicated index counts as two jury
// members, exactly as Pool.Subset would materialize it) is sorted and
// evaluated without the memo.
//
// An Estimator is NOT safe for concurrent use: it owns scratch buffers
// and the memo table. Parallel searches must construct one each.
type Estimator struct {
	alpha    float64
	opts     Options
	poolSize int

	// Per-worker precomputation over the normalized pool (Section 3.3:
	// q < 0.5 reinterpreted as 1−q), plus the Theorem 3 pseudo-worker
	// when α ≠ 0.5.
	qs       []float64 // normalized qualities, by pool index
	phis     []float64 // φ(q_i) = ln(q_i/(1−q_i)), by pool index
	hasPrior bool
	priorQ   float64
	priorPhi float64

	// Scratch, reused across evaluations.
	key     setmemo.Set // the jury being evaluated
	idx     []int       // its members, ascending
	bitsIdx []int       // EvalBits' members
	workers []bucketedWorker
	dp      dpScratch

	memo  *setmemo.Memo[Result] // nil with DisableMemo
	stats EstimatorStats
}

// phiOf is the Bayesian log-odds weight of a normalized quality; the
// same expression Estimate applies, so precomputed values are
// bit-identical.
func phiOf(q float64) float64 { return math.Log(q / (1 - q)) }

// NewEstimator validates the candidate pool and prior once and
// precomputes every per-worker quantity the bucket approximation needs.
func NewEstimator(pool worker.Pool, alpha float64, opts Options) (*Estimator, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	if err := checkPrior(alpha); err != nil {
		return nil, err
	}
	if opts.NumBuckets == 0 {
		opts.NumBuckets = DefaultNumBuckets
	}
	if opts.NumBuckets < 1 {
		return nil, fmt.Errorf("jq: NumBuckets must be positive, got %d", opts.NumBuckets)
	}
	if opts.MemoLimit < 0 {
		return nil, fmt.Errorf("jq: MemoLimit must not be negative, got %d", opts.MemoLimit)
	}
	e := &Estimator{
		alpha:    alpha,
		opts:     opts,
		poolSize: len(pool),
		qs:       make([]float64, len(pool)),
		phis:     make([]float64, len(pool)),
		key:      make(setmemo.Set, setmemo.Words(len(pool))),
	}
	for i, w := range pool {
		q := w.Quality
		if q < 0.5 {
			q = 1 - q
		}
		e.qs[i] = q
		e.phis[i] = phiOf(q)
	}
	if alpha != 0.5 {
		q := alpha
		if q < 0.5 {
			q = 1 - q
		}
		e.hasPrior = true
		e.priorQ = q
		e.priorPhi = phiOf(q)
	}
	if !opts.DisableMemo {
		limit := opts.MemoLimit
		if limit == 0 {
			limit = DefaultMemoLimit
		}
		e.memo = setmemo.New[Result](len(pool), limit)
	}
	return e, nil
}

// Alpha returns the prior the estimator was built for.
func (e *Estimator) Alpha() float64 { return e.alpha }

// Stats returns the evaluation and memoization counters.
func (e *Estimator) Stats() EstimatorStats {
	s := e.stats
	s.MemoEntries = e.memo.Len()
	return s
}

// Eval evaluates the jury given by candidate-pool indices (any order,
// duplicates allowed). The result is bit-identical to
//
//	Estimate(pool.Subset(sortedIndices), alpha, opts)
//
// including the KeysVisited/KeysPruned counters. An empty subset returns
// worker.ErrEmptyPool, as Estimate does on an empty jury.
func (e *Estimator) Eval(indices []int) (Result, error) {
	if len(indices) == 0 {
		return Result{}, worker.ErrEmptyPool
	}
	if !e.key.Fill(indices, e.poolSize) {
		return e.evalSorted(indices)
	}
	e.stats.Evals++
	if e.memo != nil {
		if res, ok := e.memo.Get(e.key); ok {
			e.stats.Hits++
			return res, nil
		}
	}
	e.stats.Misses++
	e.idx = e.key.AppendMembers(e.idx[:0])
	res := e.evalSubset()
	if e.memo != nil {
		e.memo.Put(e.key, res)
	}
	return res, nil
}

// EvalBits evaluates the jury given as a bitmask over pool indices: bit
// i%64 of word i/64 selects worker i.
func (e *Estimator) EvalBits(mask []uint64) (Result, error) {
	e.bitsIdx = setmemo.Set(mask).AppendMembers(e.bitsIdx[:0])
	return e.Eval(e.bitsIdx)
}

// evalSorted evaluates an index list that is not a set — it repeats an
// index or leaves the pool — in ascending order, bypassing the memo.
func (e *Estimator) evalSorted(indices []int) (Result, error) {
	e.idx = append(e.idx[:0], indices...)
	slices.Sort(e.idx)
	if e.idx[0] < 0 || e.idx[len(e.idx)-1] >= e.poolSize {
		return Result{}, fmt.Errorf("%w: n=%d, indices %v", ErrIndexRange, e.poolSize, e.idx)
	}
	e.stats.Evals++
	e.stats.Misses++
	return e.evalSubset(), nil
}

// evalSubset mirrors Estimate step for step on the precomputed data.
func (e *Estimator) evalSubset() Result {
	n := len(e.idx)
	if e.hasPrior {
		n++
	}

	// High-quality short-circuit (Section 4.4).
	maxQ := 0.0
	for _, i := range e.idx {
		if e.qs[i] > maxQ {
			maxQ = e.qs[i]
		}
	}
	if e.hasPrior && e.priorQ > maxQ {
		maxQ = e.priorQ
	}
	if maxQ > HighQualityCutoff {
		return Result{JQ: maxQ, Bound: 1 - maxQ, ShortCircuited: true}
	}

	// upper = max φ; all-q=0.5 juries have upper = 0 and JQ exactly 0.5.
	upper := 0.0
	for _, i := range e.idx {
		if e.phis[i] > upper {
			upper = e.phis[i]
		}
	}
	if e.hasPrior && e.priorPhi > upper {
		upper = e.priorPhi
	}
	if upper == 0 {
		return Result{JQ: 0.5, ShortCircuited: true}
	}

	// Bucketize into scratch, subset order then the pseudo-worker — the
	// same assembly order Estimate sees after WithPrior.
	delta := upper / float64(e.opts.NumBuckets)
	if cap(e.workers) < n {
		e.workers = make([]bucketedWorker, 0, 2*n)
	}
	ws := e.workers[:0]
	for _, i := range e.idx {
		ws = append(ws, bucketedWorker{b: bucketOf(e.phis[i], delta), q: e.qs[i]})
	}
	if e.hasPrior {
		ws = append(ws, bucketedWorker{b: bucketOf(e.priorPhi, delta), q: e.priorQ})
	}
	res := Result{Bound: ErrorBound(n, upper, e.opts.NumBuckets)}
	e.dp.run(ws, e.opts.DisablePruning, &res)
	return res
}

// ExactBVEvaluator is the subset-evaluation fast path of ExactBV: the
// pool's qualities are captured once, and each evaluation enumerates the
// 2^n vote patterns of the subset directly from them, with no per-call
// allocation. Results are bit-identical to ExactBV on the canonical
// (ascending-index) subset. Not safe for concurrent use.
type ExactBVEvaluator struct {
	alpha float64
	qs    []float64
	idx   []int
	sub   []float64
}

// NewExactBVEvaluator validates the pool and prior once.
func NewExactBVEvaluator(pool worker.Pool, alpha float64) (*ExactBVEvaluator, error) {
	if err := pool.Validate(); err != nil {
		return nil, err
	}
	if err := checkPrior(alpha); err != nil {
		return nil, err
	}
	return &ExactBVEvaluator{alpha: alpha, qs: pool.Qualities()}, nil
}

// Eval returns the exact JQ under Bayesian Voting of the subset, which
// must not exceed MaxExactJurySize workers.
func (e *ExactBVEvaluator) Eval(indices []int) (float64, error) {
	if len(indices) == 0 {
		return 0, worker.ErrEmptyPool
	}
	if len(indices) > MaxExactJurySize {
		return 0, fmt.Errorf("%w: n=%d > %d", ErrJuryTooLarge, len(indices), MaxExactJurySize)
	}
	e.idx = append(e.idx[:0], indices...)
	slices.Sort(e.idx)
	if e.idx[0] < 0 || e.idx[len(e.idx)-1] >= len(e.qs) {
		return 0, fmt.Errorf("%w: n=%d, indices %v", ErrIndexRange, len(e.qs), e.idx)
	}
	e.sub = e.sub[:0]
	for _, i := range e.idx {
		e.sub = append(e.sub, e.qs[i])
	}
	return exactBVOf(e.sub, e.alpha), nil
}
