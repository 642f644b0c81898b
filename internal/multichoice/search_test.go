package multichoice

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// gridPool mirrors the benchmark's multi-choice pool: n symmetric ℓ-label
// workers with qualities and costs spread over fixed grids, shuffled.
func gridPool(rng *rand.Rand, n, labels int) Pool {
	pool := make(Pool, n)
	for i, k := range rng.Perm(n) {
		w := symWorker(labels, 0.45+0.5*float64(k)/float64(n-1), 1+9*float64(7*k%n)/float64(n-1))
		w.ID = fmt.Sprintf("w%02d", i)
		pool[i] = w
	}
	return pool
}

// canonical wraps an objective so it scores a jury in ascending pool
// order (IDs are zero-padded indices), whatever order the search built
// it in: the order SelectAnnealing evaluates in.
func canonical(obj Objective) Objective {
	return func(jury Pool, prior Prior) (float64, error) {
		sorted := append(Pool(nil), jury...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a].ID < sorted[b].ID })
		return obj(sorted, prior)
	}
}

// The shared anneal.Search must walk exactly the trajectory of the
// multi-choice loop it replaced: the same juries, JQ bits, costs and
// evaluation counts, once that loop scores juries in canonical order.
// SelectAnnealingEstimate must agree with both.
func TestSelectAnnealingMatchesReferenceLoop(t *testing.T) {
	reference := canonical(func(jury Pool, prior Prior) (float64, error) {
		return referenceEstimateBV(jury, prior, 0)
	})
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		labels := 2 + int(seed%3)
		pool := gridPool(rng, 8+rng.Intn(5), labels)
		prior := randomPrior(rng, labels)
		budget := 6 + 10*rng.Float64()
		want, err := referenceSelectAnnealing(pool, budget, prior, reference, seed)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SelectAnnealing(pool, budget, prior, EstimateObjective(0), seed)
		if err != nil {
			t.Fatal(err)
		}
		est, err := SelectAnnealingEstimate(pool, budget, prior, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]SelectionResult{"SelectAnnealing": got, "SelectAnnealingEstimate": est} {
			if !reflect.DeepEqual(res.Indices, want.Indices) || math.Float64bits(res.JQ) != math.Float64bits(want.JQ) ||
				res.Cost != want.Cost || res.Evaluations != want.Evaluations {
				t.Fatalf("seed %d: %s = %v JQ %v cost %v evals %d; reference loop %v JQ %v cost %v evals %d",
					seed, name, res.Indices, res.JQ, res.Cost, res.Evaluations,
					want.Indices, want.JQ, want.Cost, want.Evaluations)
			}
		}
	}
}

// On a 20×3 pool at budget 15 the pre-Estimator search made ~350k
// allocations per select; reused scratch brings it to about a hundred.
// The bound guards against a per-move allocation creeping back.
func TestSelectAnnealingAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	pool := gridPool(rand.New(rand.NewSource(1)), 20, 3)
	prior := UniformPrior(3)
	seed := int64(0)
	for name, run := range map[string]func() (SelectionResult, error){
		"SelectAnnealing": func() (SelectionResult, error) {
			return SelectAnnealing(pool, 15, prior, EstimateObjective(0), seed)
		},
		"SelectAnnealingEstimate": func() (SelectionResult, error) {
			return SelectAnnealingEstimate(pool, 15, prior, 0, seed)
		},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			seed++
			if _, err := run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2000 {
			t.Errorf("%s: %.0f allocations per select, want ≤ 2000", name, allocs)
		}
		t.Logf("%s: %.0f allocations per select", name, allocs)
	}
}

func TestSelectRejectsBadBudgets(t *testing.T) {
	pool := symPool(3, 0.7, 0.8)
	prior := UniformPrior(3)
	for _, budget := range []float64{-1, math.NaN()} {
		if _, err := SelectAnnealing(pool, budget, prior, ExactObjective, 1); !errors.Is(err, ErrBadBudget) {
			t.Errorf("SelectAnnealing(budget %v): err = %v, want ErrBadBudget", budget, err)
		}
		if _, err := SelectAnnealingEstimate(pool, budget, prior, 0, 1); !errors.Is(err, ErrBadBudget) {
			t.Errorf("SelectAnnealingEstimate(budget %v): err = %v, want ErrBadBudget", budget, err)
		}
		if _, err := SelectExhaustive(pool, budget, prior, ExactObjective); !errors.Is(err, ErrBadBudget) {
			t.Errorf("SelectExhaustive(budget %v): err = %v, want ErrBadBudget", budget, err)
		}
		if _, err := GreedyByInformativeness(pool, budget, prior, ExactObjective); !errors.Is(err, ErrBadBudget) {
			t.Errorf("GreedyByInformativeness(budget %v): err = %v, want ErrBadBudget", budget, err)
		}
	}
}
