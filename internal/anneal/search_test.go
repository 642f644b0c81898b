package anneal

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// A knapsack toy: the score is the sum of the members' values, so the
// best feasible set is known. Search must stay within budget, find it,
// and repeat itself exactly for one seed.
func TestSearchFindsBestFeasibleSet(t *testing.T) {
	costs := []float64{3, 1, 2, 4, 1, 2}
	values := []float64{5, 1, 4, 6, 2, 1}
	eval := func(members []int) (float64, error) {
		var v float64
		for _, m := range members {
			v += values[m]
		}
		return v, nil
	}
	run := func(seed int64) Outcome {
		slow := Schedule{InitialTemp: 4, Cooling: 0.9, Epsilon: 1e-3}
		out, err := Search(costs, 6, slow, rand.New(rand.NewSource(seed)), true, eval)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for seed := int64(0); seed < 10; seed++ {
		out := run(seed)
		var cost float64
		for _, m := range out.Members {
			cost += costs[m]
		}
		if cost != out.Cost || cost > 6 {
			t.Fatalf("seed %d: members %v cost %v, reported %v, budget 6", seed, out.Members, cost, out.Cost)
		}
		// Best under budget 6: {0, 2, 4} (cost 6, value 11).
		if out.Score != 11 || !reflect.DeepEqual(out.Members, []int{0, 2, 4}) {
			t.Fatalf("seed %d: %+v, want members [0 2 4] scoring 11", seed, out)
		}
		if again := run(seed); !reflect.DeepEqual(again, out) {
			t.Fatalf("seed %d: rerun %+v differs from %+v", seed, again, out)
		}
	}
}

func TestSearchPropagatesEvalErrors(t *testing.T) {
	boom := errors.New("boom")
	_, err := Search([]float64{1, 1, 1}, 2, DefaultSchedule(), rand.New(rand.NewSource(1)), false,
		func(members []int) (float64, error) {
			if len(members) == 2 {
				return 0, boom
			}
			return float64(len(members)), nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the eval error", err)
	}
	if _, err := Search([]float64{1}, 1, Schedule{}, rand.New(rand.NewSource(1)), false,
		func([]int) (float64, error) { return 0, nil }); err == nil {
		t.Fatal("no error for an invalid schedule")
	}
}
