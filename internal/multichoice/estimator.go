package multichoice

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/setmemo"
)

// MaxEstimateBuckets bounds the margin resolution of EstimateBV and
// Estimator. A margin is an int32 bucket count that moves by at most
// numBuckets per worker, so an unbounded resolution overflows it and
// silently corrupts the estimate.
const MaxEstimateBuckets = 1 << 16

// maxMarginSpan bounds n·numBuckets, the farthest a margin can move from
// its base over a jury of n workers. Together with the base-margin clamp
// it keeps every margin inside int32.
const maxMarginSpan = math.MaxInt32 / 2

// estimatorMemoLimit caps an Estimator's memo table, like
// jq.DefaultMemoLimit caps the binary one.
const estimatorMemoLimit = 1 << 17

// Estimator is the Section 7 bucketed JQ estimate of EstimateBV, built
// once per (pool, prior, numBuckets) and evaluated on juries given as
// index sets into the pool. It precomputes each worker's clamped
// log-confusions, their exponentials and its largest |log-ratio|, keeps
// the DP in reused flat buffers, and memoizes results by jury set, so an
// annealing search that revisits juries pays for each one once.
//
// Eval scores the jury in ascending pool-index order whatever order the
// indices arrive in: the estimate is a function of the jury set, and
// equals EstimateBV(pool.Subset(sorted), prior, numBuckets) bit for bit.
// The memo is keyed on the jury's bitmask over the pool.
//
// An Estimator owns scratch state and is NOT safe for concurrent use.
type Estimator struct {
	pool      Pool
	prior     Prior
	labels    int
	buckets   int
	priorOnly float64   // BV with no informative votes: max_t prior[t]
	logPrior  []float64 // ln max(prior[t], logFloor)
	logC      []float64 // [worker][truth][vote]: ln max(C[t][v], logFloor)
	expC      []float64 // math.Exp(logC): the DP's per-vote probabilities
	upper     []float64 // per worker: max |logC[t1][v] − logC[t2][v]|

	order []int       // the jury being scored, ascending
	key   setmemo.Set // the jury as a bitmask over the pool
	memo  setmemo.Memo[float64]
	hits  int // evaluations answered from memo

	dp dpState
}

// estimators recycles the scratch of EstimateBV's one-shot estimators.
var estimators = sync.Pool{New: func() any { return new(Estimator) }}

// NewEstimator validates the inputs and precomputes the per-worker state.
// numBuckets 0 selects DefaultEstimateBuckets.
func NewEstimator(pool Pool, prior Prior, numBuckets int) (*Estimator, error) {
	e := new(Estimator)
	if err := e.reset(pool, prior, numBuckets); err != nil {
		return nil, err
	}
	return e, nil
}

// reset points e at a new (pool, prior, numBuckets), reusing its buffers.
func (e *Estimator) reset(pool Pool, prior Prior, numBuckets int) error {
	if err := checkVoting(pool, prior, nil); err != nil {
		return err
	}
	if numBuckets == 0 {
		numBuckets = DefaultEstimateBuckets
	}
	if numBuckets < 1 || numBuckets > MaxEstimateBuckets {
		return fmt.Errorf("%w: %d outside [1, %d]", ErrBadBuckets, numBuckets, MaxEstimateBuckets)
	}
	l := pool.Labels()
	e.pool, e.prior, e.labels, e.buckets = pool, prior, l, numBuckets
	e.priorOnly = 0
	e.logPrior = e.logPrior[:0]
	for _, p := range prior {
		e.priorOnly = math.Max(e.priorOnly, p)
		e.logPrior = append(e.logPrior, math.Log(math.Max(p, logFloor)))
	}
	e.logC, e.expC, e.upper = e.logC[:0], e.expC[:0], e.upper[:0]
	for _, w := range pool {
		c := len(e.logC)
		for t := 0; t < l; t++ {
			for v := 0; v < l; v++ {
				lc := math.Log(math.Max(w.Confusion[t][v], logFloor))
				e.logC = append(e.logC, lc)
				e.expC = append(e.expC, math.Exp(lc))
			}
		}
		var upper float64
		for t1 := 0; t1 < l; t1++ {
			for t2 := 0; t2 < l; t2++ {
				for v := 0; v < l; v++ {
					if d := math.Abs(e.logC[c+t1*l+v] - e.logC[c+t2*l+v]); d > upper {
						upper = d
					}
				}
			}
		}
		e.upper = append(e.upper, upper)
	}
	e.key = slices.Grow(e.key[:0], setmemo.Words(len(pool)))[:setmemo.Words(len(pool))]
	e.memo.Reset(len(pool), estimatorMemoLimit)
	e.hits = 0
	return nil
}

// Eval returns the estimated JQ of the jury whose pool indices are given,
// in any order. Indices must be distinct and in range; the empty jury
// scores max_t prior[t], the Bayesian answer from the prior alone.
func (e *Estimator) Eval(indices []int) (float64, error) {
	if !e.key.Fill(indices, len(e.pool)) {
		return 0, e.arityError(indices)
	}
	if jq, ok := e.memo.Get(e.key); ok {
		e.hits++
		return jq, nil
	}
	e.order = e.key.AppendMembers(e.order[:0])
	jq, err := e.estimate(e.order)
	if err != nil {
		return 0, err
	}
	e.memo.Put(e.key, jq)
	return jq, nil
}

// arityError reports the first out-of-range or repeated index of a list
// that is not a set, in ascending order.
func (e *Estimator) arityError(indices []int) error {
	e.order = append(e.order[:0], indices...)
	slices.Sort(e.order)
	for k, i := range e.order {
		if i < 0 || i >= len(e.pool) {
			return fmt.Errorf("%w: index %d outside a pool of %d", ErrArity, i, len(e.pool))
		}
		if k > 0 && e.order[k-1] == i {
			return fmt.Errorf("%w: index %d repeated", ErrArity, i)
		}
	}
	panic("multichoice: arityError on a set")
}

// estimate runs the bucketed DP over the workers of order, in that order.
//
// For each candidate label t' the states are (margins, probability)
// pairs, where the margins are the ℓ−1 bucketed log-posterior margins
// against the other labels. Each worker expands every state by every vote;
// children with equal margins merge. The merge sums a child's
// contributions in the order the original string-keyed DP did — by the
// byte order of the parents' little-endian int32 margin encodings, then by
// vote — and the final sum over winning states runs in that byte order
// too, so the result is a pure function of the inputs and bit-identical
// to that DP.
func (e *Estimator) estimate(order []int) (float64, error) {
	n, l := len(order), e.labels
	var upper float64
	for _, i := range order {
		if e.upper[i] > upper {
			upper = e.upper[i]
		}
	}
	if upper == 0 {
		// Every worker is label-blind: BV follows the prior alone.
		return e.priorOnly, nil
	}
	span := n * e.buckets
	if span > maxMarginSpan {
		return 0, fmt.Errorf("%w: %d workers at %d buckets", ErrJuryTooLarge, n, e.buckets)
	}
	// Bucket width Δ = (max |increment| over the jury)/numBuckets.
	delta := upper / float64(e.buckets)
	dp := &e.dp
	dp.setDims(l-1, n*l)
	var jq float64
	for tPrime := 0; tPrime < l; tPrime++ {
		for k, i := range order {
			c := e.logC[i*l*l : (i+1)*l*l]
			for v := 0; v < l; v++ {
				d := 0
				for j := 0; j < l; j++ {
					if j != tPrime {
						dp.margins[d] = int32(math.Round((c[tPrime*l+v] - c[j*l+v]) / delta))
						d++
					}
				}
				dp.setMove(k*l + v)
			}
		}
		d := 0
		for j := 0; j < l; j++ {
			if j != tPrime {
				dp.margins[d] = baseMargin(e.logPrior[tPrime]-e.logPrior[j], delta, span)
				d++
			}
		}
		dp.init()
		for k, i := range order {
			dp.step(k*l, e.expC[i*l*l+tPrime*l:][:l])
		}
		jq += e.prior[tPrime] * dp.wins(tPrime)
	}
	return jq, nil
}

// baseMargin buckets the prior's log-ratio x into the starting margin. A
// margin moves at most span = n·numBuckets buckets from its base, so a
// base beyond ±(span+1) decides every sign test alone; where the bucketed
// value could carry a margin out of int32 it is clamped to ±(span+1),
// which changes no sign test. Nearer zero it is left exact, so the
// margins, their key order and the summation order are unchanged there.
func baseMargin(x, delta float64, span int) int32 {
	q := math.Round(x / delta)
	if math.Abs(q) > float64(math.MaxInt32-span) {
		return int32(math.Copysign(float64(span+1), q))
	}
	return int32(q)
}

// dpState holds one t' pass of the bucket DP in flat, reused buffers.
//
// A state's key packs its ℓ−1 margins two to a uint64, each as the
// margin's int32 bits with the sign bit flipped (the last half-word zero
// when ℓ−1 is odd). Comparing keys word by word then orders states by
// their margins numerically, and adding a packed step moves every margin
// at once: no half-word carries into its neighbour, because no margin
// leaves int32. States stay in that numeric order, so the children of
// each vote form a sorted run and one step is an ℓ-way merge.
type dpState struct {
	dims, words int

	margins []int32  // one margin tuple being packed or unpacked
	moves   []uint64 // per (member, vote): the packed margin step
	keys    []uint64 // states, ascending
	probs   []float64
	nkeys   []uint64 // the next step's states
	nprobs  []float64
	heads   []int     // per vote: the next state to expand
	next    []uint64  // per vote: the key of that state's child
	group   []contrib // contributions to one child

	winners []int // states where t' wins, in byte order
}

// contrib is one parent's contribution to a child: parent state index
// and vote.
type contrib struct{ parent, vote int }

const signFlip = 1 << 31

func (dp *dpState) setDims(dims, moves int) {
	dp.dims, dp.words = dims, (dims+1)/2
	dp.margins = slices.Grow(dp.margins[:0], dims)[:dims]
	dp.moves = slices.Grow(dp.moves[:0], moves*dp.words)[:moves*dp.words]
}

// setMove stores dp.margins as the packed step of move m. Two's
// complement addition of the step to a key adds each margin in place.
func (dp *dpState) setMove(m int) {
	for x := 0; x < dp.words; x++ {
		w := int64(dp.margins[2*x]) << 32
		if 2*x+1 < dp.dims {
			w += int64(dp.margins[2*x+1])
		}
		dp.moves[m*dp.words+x] = uint64(w)
	}
}

// init starts the DP at the single state dp.margins with probability 1.
func (dp *dpState) init() {
	dp.keys = dp.keys[:0]
	for x := 0; x < dp.words; x++ {
		w := uint64(uint32(dp.margins[2*x])^signFlip) << 32
		if 2*x+1 < dp.dims {
			w |= uint64(uint32(dp.margins[2*x+1]) ^ signFlip)
		}
		dp.keys = append(dp.keys, w)
	}
	dp.probs = append(dp.probs[:0], 1)
}

// margin returns margin d of state s.
func (dp *dpState) margin(s, d int) int32 {
	return int32(uint32(dp.keys[s*dp.words+d/2]>>(32*(1-d%2))) ^ signFlip)
}

// byteLess orders states s and t as the original DP's string keys did:
// by the bytes of their margins' little-endian int32 encodings.
func (dp *dpState) byteLess(s, t int) bool {
	for d := 0; d < dp.dims; d++ {
		a := bits.ReverseBytes32(uint32(dp.margin(s, d)))
		b := bits.ReverseBytes32(uint32(dp.margin(t, d)))
		if a != b {
			return a < b
		}
	}
	return false
}

// step expands every state by one worker: vote v moves the margins by
// dp.moves[first+v] and multiplies the probability by p[v]. Each vote's
// children are the states shifted by one constant, so they are already
// in order; the step merges those ℓ runs, summing every child's
// contributions by parent byte order, then vote.
func (dp *dpState) step(first int, p []float64) {
	w, l, n := dp.words, len(p), len(dp.probs)
	keys, probs := dp.keys, dp.probs
	moves := dp.moves[first*w : (first+l)*w]
	// heads[v] is the next state vote v expands; next[v] its child's key.
	heads := append(dp.heads[:0], make([]int, l)...)
	next := slices.Grow(dp.next[:0], l*w)[:l*w]
	for x := range next {
		next[x] = keys[x%w] + moves[x]
	}
	nkeys, nprobs, g := dp.nkeys[:0], dp.nprobs[:0], dp.group[:0]
	for {
		// The smallest pending child, and every vote producing it.
		g = g[:0]
		var least []uint64
		for v, h := range heads {
			if h == n {
				continue
			}
			key := next[v*w : (v+1)*w]
			c := -1
			if least != nil {
				c = compareKeys(key, least)
			}
			if c < 0 {
				g, least = g[:0], key
			}
			if c <= 0 {
				g = append(g, contrib{h, v})
			}
		}
		if len(g) == 0 {
			break
		}
		nkeys = append(nkeys, least...)
		// Insertion-sort the (at most ℓ) contributions by parent byte
		// order; g is already in vote order.
		for a := 1; a < len(g); a++ {
			for b := a; b > 0 && dp.byteLess(g[b].parent, g[b-1].parent); b-- {
				g[b], g[b-1] = g[b-1], g[b]
			}
		}
		sum := probs[g[0].parent] * p[g[0].vote]
		for _, c := range g[1:] {
			sum += probs[c.parent] * p[c.vote]
		}
		nprobs = append(nprobs, sum)
		for _, c := range g {
			if h := c.parent + 1; h < n {
				heads[c.vote] = h
				for x := 0; x < w; x++ {
					next[c.vote*w+x] = keys[h*w+x] + moves[c.vote*w+x]
				}
			} else {
				heads[c.vote] = n
			}
		}
	}
	dp.heads, dp.next, dp.group = heads, next, g
	dp.keys, dp.nkeys = nkeys, keys
	dp.probs, dp.nprobs = nprobs, probs
}

// compareKeys orders two keys of equal length word by word.
func compareKeys(a, b []uint64) int {
	for x := range a {
		if a[x] != b[x] {
			if a[x] < b[x] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// wins sums the probability of the states where BV answers t' — every
// margin ≥ 0, strictly > 0 against a smaller label (ties go to it) — in
// the byte order of their margins, as the original DP did.
func (dp *dpState) wins(tPrime int) float64 {
	dp.winners = dp.winners[:0]
	for s := range dp.probs {
		win := true
		for d := 0; d < dp.dims; d++ {
			if m := dp.margin(s, d); m < 0 || (d < tPrime && m == 0) {
				win = false
				break
			}
		}
		if win {
			dp.winners = append(dp.winners, s)
		}
	}
	slices.SortFunc(dp.winners, func(s, t int) int {
		if dp.byteLess(s, t) {
			return -1
		}
		return 1
	})
	var h float64
	for _, s := range dp.winners {
		h += dp.probs[s]
	}
	return h
}
