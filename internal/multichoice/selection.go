package multichoice

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"repro/internal/anneal"
)

// SelectionResult is the outcome of multi-choice jury selection.
type SelectionResult struct {
	Jury        Pool
	Indices     []int
	JQ          float64
	Cost        float64
	Evaluations int
}

// Objective scores a candidate multi-choice jury; the prior's maximum is
// used for the empty jury.
type Objective func(jury Pool, prior Prior) (float64, error)

// EstimateObjective returns an Objective backed by EstimateBV.
func EstimateObjective(numBuckets int) Objective {
	return func(jury Pool, prior Prior) (float64, error) {
		return EstimateBV(jury, prior, numBuckets)
	}
}

// ExactObjective is an Objective backed by ExactBV (small juries only).
func ExactObjective(jury Pool, prior Prior) (float64, error) {
	return ExactBV(jury, prior)
}

// SelectAnnealing solves the multi-choice JSP with the same Algorithm 3/4
// annealing as the binary case (anneal.Search), treating the JQ
// computation as a black box (Section 7, "Jury Selection Problem
// Extension"). obj scores each candidate jury as pool.Subset of its
// members in ascending pool order, so a jury's score depends only on the
// set. Evaluations counts the non-empty juries scored.
func SelectAnnealing(pool Pool, budget float64, prior Prior, obj Objective, seed int64) (SelectionResult, error) {
	if err := checkSelect(pool, budget, prior); err != nil {
		return SelectionResult{}, err
	}
	var sorted []int
	return selectAnnealing(pool, budget, prior, seed, func(members []int) (float64, error) {
		sorted = append(sorted[:0], members...)
		sort.Ints(sorted)
		return obj(pool.Subset(sorted), prior)
	})
}

// SelectAnnealingEstimate is SelectAnnealing(pool, budget, prior,
// EstimateObjective(numBuckets), seed) run on one Estimator for the pool:
// the same jury, JQ bits and Evaluations, without re-deriving per-worker
// state on every move or re-scoring a jury the search revisits.
func SelectAnnealingEstimate(pool Pool, budget float64, prior Prior, numBuckets int, seed int64) (SelectionResult, error) {
	if err := checkSelect(pool, budget, prior); err != nil {
		return SelectionResult{}, err
	}
	est, err := NewEstimator(pool, prior, numBuckets)
	if err != nil {
		return SelectionResult{}, err
	}
	return selectAnnealing(pool, budget, prior, seed, est.Eval)
}

// selectAnnealing runs anneal.Search over the pool's index sets, scoring
// the empty jury from the prior and every other one with eval.
func selectAnnealing(pool Pool, budget float64, prior Prior, seed int64, eval func([]int) (float64, error)) (SelectionResult, error) {
	costs := make([]float64, len(pool))
	for i, w := range pool {
		costs[i] = w.Cost
	}
	priorOnly := slices.Max(prior)
	evals := 0
	best, err := anneal.Search(costs, budget, anneal.DefaultSchedule(), rand.New(rand.NewSource(seed)), false,
		func(members []int) (float64, error) {
			if len(members) == 0 {
				return priorOnly, nil
			}
			evals++
			return eval(members)
		})
	if err != nil {
		return SelectionResult{}, err
	}
	return SelectionResult{
		Jury:        pool.Subset(best.Members),
		Indices:     best.Members,
		JQ:          best.Score,
		Cost:        best.Cost,
		Evaluations: evals,
	}, nil
}

// checkSelect validates a selection's pool, prior and budget.
func checkSelect(pool Pool, budget float64, prior Prior) error {
	if err := checkVoting(pool, prior, nil); err != nil {
		return err
	}
	if budget < 0 || budget != budget {
		return fmt.Errorf("%w: %v", ErrBadBudget, budget)
	}
	return nil
}

// SelectExhaustive enumerates every feasible multi-choice jury; ground
// truth for small pools.
func SelectExhaustive(pool Pool, budget float64, prior Prior, obj Objective) (SelectionResult, error) {
	if err := checkSelect(pool, budget, prior); err != nil {
		return SelectionResult{}, err
	}
	n := len(pool)
	if n > 20 {
		return SelectionResult{}, fmt.Errorf("%w: N=%d", ErrJuryTooLarge, n)
	}
	best := SelectionResult{JQ: slices.Max(prior), Indices: []int{}}
	evals := 0
	for mask := 1; mask < 1<<uint(n); mask++ {
		var cost float64
		var indices []int
		for i := 0; i < n; i++ {
			if mask&(1<<uint(i)) != 0 {
				cost += pool[i].Cost
				indices = append(indices, i)
			}
		}
		if cost > budget {
			continue
		}
		score, err := obj(pool.Subset(indices), prior)
		if err != nil {
			return SelectionResult{}, err
		}
		evals++
		if score > best.JQ+1e-12 || (score > best.JQ-1e-12 && cost < best.Cost-1e-12) {
			best = SelectionResult{
				Jury:    pool.Subset(indices),
				Indices: indices,
				JQ:      score,
				Cost:    cost,
			}
		}
	}
	best.Evaluations = evals
	return best, nil
}
