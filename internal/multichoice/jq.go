package multichoice

import (
	"fmt"
	"sort"
)

// MaxExactStates bounds the ℓ^n enumeration of the exact JQ computations.
const MaxExactStates = 1 << 24

// ExactJQ evaluates the generalized Definition 3 (Equation 9) for any
// strategy by enumerating all ℓ^n votings:
//
//	JQ = Σ_V Σ_t prior[t]·P(V|t)·P(S(V) = t).
func ExactJQ(pool Pool, s Strategy, prior Prior) (float64, error) {
	if err := checkVoting(pool, prior, nil); err != nil {
		return 0, err
	}
	l, n := pool.Labels(), len(pool)
	if err := checkExactSize(l, n); err != nil {
		return 0, err
	}
	votes := make([]Label, n)
	var jq float64
	var rec func(i int) error
	rec = func(i int) error {
		if i == n {
			probs, err := s.Probabilities(votes, pool, prior)
			if err != nil {
				return err
			}
			for t := 0; t < l; t++ {
				p := prior[t]
				for j, w := range pool {
					p *= w.Confusion[t][votes[j]]
				}
				jq += p * probs[t]
			}
			return nil
		}
		for v := 0; v < l; v++ {
			votes[i] = Label(v)
			if err := rec(i + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0); err != nil {
		return 0, err
	}
	return jq, nil
}

// ExactBV computes the exact JQ of the optimal (Bayesian) strategy:
// JQ = Σ_V max_t prior[t]·P(V|t).
func ExactBV(pool Pool, prior Prior) (float64, error) {
	if err := checkVoting(pool, prior, nil); err != nil {
		return 0, err
	}
	l, n := pool.Labels(), len(pool)
	if err := checkExactSize(l, n); err != nil {
		return 0, err
	}
	votes := make([]Label, n)
	var jq float64
	var rec func(i int)
	rec = func(i int) {
		if i == n {
			best := 0.0
			for t := 0; t < l; t++ {
				p := prior[t]
				for j, w := range pool {
					p *= w.Confusion[t][votes[j]]
				}
				if p > best {
					best = p
				}
			}
			jq += best
			return
		}
		for v := 0; v < l; v++ {
			votes[i] = Label(v)
			rec(i + 1)
		}
	}
	rec(0)
	return jq, nil
}

func checkExactSize(l, n int) error {
	states := 1.0
	for i := 0; i < n; i++ {
		states *= float64(l)
		if states > MaxExactStates {
			return fmt.Errorf("%w: %d^%d votings", ErrJuryTooLarge, l, n)
		}
	}
	return nil
}

// logFloor guards against −Inf from zero confusion entries in the bucketed
// DP: probabilities are clamped to this floor before taking logs.
const logFloor = 1e-12

// DefaultEstimateBuckets is the margin resolution EstimateBV uses when
// numBuckets is 0.
const DefaultEstimateBuckets = 50

// EstimateBV approximates JQ(J, BV, prior) with the Section 7 bucketed
// dynamic program. For each candidate label t' it accumulates
//
//	H(t') = Σ_{V : BV(V) = t'} P(V | t')
//
// over bucketed (ℓ−1)-tuples of log-posterior margins
// ln(prior[t']·P(V|t')) − ln(prior[j]·P(V|j)) (j ≠ t'), expanding one
// worker per iteration; JQ = Σ_{t'} prior[t']·H(t'). BV(V) = t'
// corresponds to all margins ≥ 0, with ties broken toward the smaller
// label (strict margin required against j < t').
//
// numBuckets controls the margin resolution per unit of the largest
// absolute per-worker log-ratio; 0 selects 50, and values above
// MaxEstimateBuckets are rejected. Accuracy improves with more buckets,
// matching the binary Algorithm 1. EstimateBV is a one-shot Estimator
// over the whole pool, in pool order.
func EstimateBV(pool Pool, prior Prior, numBuckets int) (float64, error) {
	e := estimators.Get().(*Estimator)
	defer func() {
		e.pool, e.prior = nil, nil
		estimators.Put(e)
	}()
	if err := e.reset(pool, prior, numBuckets); err != nil {
		return 0, err
	}
	e.order = e.order[:0]
	for i := range pool {
		e.order = append(e.order, i)
	}
	return e.estimate(e.order)
}

// Accuracy of the symmetric single-parameter model: a convenience for
// building test pools ordered by informativeness.
func sortByDiagonalDesc(pool Pool) Pool {
	out := append(Pool(nil), pool...)
	sort.SliceStable(out, func(i, j int) bool {
		return diagMean(out[i].Confusion) > diagMean(out[j].Confusion)
	})
	return out
}

func diagMean(m ConfusionMatrix) float64 {
	var sum float64
	for i := range m {
		sum += m[i][i]
	}
	return sum / float64(len(m))
}
