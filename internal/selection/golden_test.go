package selection

import (
	"math"
	"reflect"
	"testing"
)

// selectorGoldens pins the juries, JQ bits and evaluation counts of the
// OPTJS and MVJS systems (and a plain single-pass annealing) on fixed
// datagen pools. They were recorded before the annealing loop moved into
// internal/anneal; any change to the search's trajectory, its RNG
// consumption or its evaluation count shows up here.
var selectorGoldens = []struct {
	poolSeed      int64
	n             int
	budget, alpha float64
	system        string
	seed          int64
	indices       []int
	jqBits        uint64
	evaluations   int
}{
	{61, 20, 0.5, 0.5, "OPTJS", 1, []int{0, 1, 4, 6, 8, 9, 10, 11, 12, 14, 17}, 0x3fefe86dec7f44f8, 1082},
	{61, 20, 0.5, 0.5, "OPTJS", 7, []int{0, 1, 4, 6, 8, 9, 10, 11, 12, 14, 17}, 0x3fefe86dec7f44f8, 1082},
	{61, 20, 0.5, 0.5, "MVJS", 1, []int{0, 1, 4, 8, 9, 10, 11, 12, 14}, 0x3fefd67b81b02be4, 1082},
	{61, 20, 0.5, 0.5, "MVJS", 7, []int{0, 1, 4, 8, 9, 10, 11, 12, 14}, 0x3fefd67b81b02be4, 1082},
	{61, 20, 0.5, 0.5, "anneal-BV", 1, []int{0, 1, 4, 6, 8, 9, 10, 11, 12, 14, 16, 18}, 0x3fefe86155acd200, 63},
	{61, 20, 0.5, 0.5, "anneal-BV", 7, []int{0, 1, 4, 6, 8, 9, 10, 11, 12, 14, 16, 18}, 0x3fefe86155acd200, 66},
	{62, 30, 1, 0.6, "OPTJS", 1, []int{0, 2, 3, 4, 6, 9, 10, 11, 14, 15, 16, 17, 19, 20, 21, 22, 23, 24, 25, 27, 28}, 0x3feffeb2b23e67b0, 1622},
	{62, 30, 1, 0.6, "OPTJS", 7, []int{0, 1, 2, 3, 4, 6, 9, 10, 11, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 27}, 0x3feffe830957d736, 1622},
	{62, 30, 1, 0.6, "MVJS", 1, []int{0, 2, 3, 4, 6, 10, 14, 15, 16, 19, 20, 21, 22, 23, 25, 27, 28}, 0x3feff600c7289a89, 1622},
	{62, 30, 1, 0.6, "MVJS", 7, []int{0, 2, 3, 4, 5, 6, 10, 14, 15, 16, 19, 20, 25, 27, 28}, 0x3feff4edd6073cc2, 1622},
	{62, 30, 1, 0.6, "anneal-BV", 1, []int{0, 1, 2, 3, 4, 5, 6, 9, 10, 11, 14, 15, 16, 17, 18, 20, 21, 22, 23, 25, 27}, 0x3feffe708bf79af2, 113},
	{62, 30, 1, 0.6, "anneal-BV", 7, []int{0, 1, 2, 3, 4, 6, 9, 10, 11, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 27}, 0x3feffe830957d736, 116},
	{63, 48, 1.5, 0.5, "OPTJS", 1, []int{0, 4, 5, 6, 7, 8, 12, 13, 15, 16, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 31, 34, 35, 37, 38, 40, 43, 46}, 0x3feffec98fc95425, 2594},
	{63, 48, 1.5, 0.5, "OPTJS", 7, []int{0, 4, 5, 6, 7, 8, 9, 10, 12, 13, 15, 16, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 33, 34, 37, 38, 40, 43, 46}, 0x3feffebd64620fe9, 2594},
	{63, 48, 1.5, 0.5, "MVJS", 1, []int{0, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 31, 33, 34, 35, 38, 40, 41, 43, 46}, 0x3feff8894faa3e99, 2594},
	{63, 48, 1.5, 0.5, "MVJS", 7, []int{0, 5, 8, 12, 15, 16, 18, 19, 20, 21, 22, 23, 24, 26, 27, 34, 35, 36, 37, 38, 41, 42, 46}, 0x3feffa29531d9828, 2594},
	{63, 48, 1.5, 0.5, "anneal-BV", 1, []int{0, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 15, 16, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 32, 33, 34, 35, 38, 40, 41, 42, 43, 46}, 0x3feffe3cd091e405, 128},
	{63, 48, 1.5, 0.5, "anneal-BV", 7, []int{0, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 18, 19, 20, 21, 22, 23, 24, 26, 27, 28, 29, 31, 32, 33, 34, 35, 37, 38, 40, 42, 43, 46}, 0x3feffe611b697dda, 149},
	{64, 24, 0.8, 0.3, "OPTJS", 1, []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 16, 19, 23}, 0x3fefefbbb15d5ff9, 1298},
	{64, 24, 0.8, 0.3, "OPTJS", 7, []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 16, 19, 23}, 0x3fefefbbb15d5ff9, 1298},
	{64, 24, 0.8, 0.3, "MVJS", 1, []int{1, 2, 3, 4, 5, 6, 7, 9, 10, 11, 12, 13, 16, 19, 23}, 0x3fefe0af18b7a327, 1298},
	{64, 24, 0.8, 0.3, "MVJS", 7, []int{1, 2, 3, 5, 6, 7, 9, 10, 11, 12, 13, 16, 19}, 0x3fefe585c6db1bfb, 1298},
	{64, 24, 0.8, 0.3, "anneal-BV", 1, []int{1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13, 16, 17, 19, 20, 21, 23}, 0x3fefe8653fd79459, 75},
	{64, 24, 0.8, 0.3, "anneal-BV", 7, []int{1, 2, 3, 4, 5, 6, 7, 9, 11, 12, 13, 16, 17, 19, 20, 21, 23}, 0x3fefe8653fd79459, 67},
}

func TestSelectorGoldens(t *testing.T) {
	for _, g := range selectorGoldens {
		var sel Selector
		switch g.system {
		case "OPTJS":
			sel = OPTJS(g.seed)
		case "MVJS":
			sel = MVJS(g.seed)
		default:
			sel = Annealing{Objective: BVObjective{}, Seed: g.seed}
		}
		res, err := sel.Select(evalTestPool(t, g.poolSeed, g.n), g.budget, g.alpha)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Indices, g.indices) || math.Float64bits(res.JQ) != g.jqBits ||
			res.Evaluations != g.evaluations {
			t.Errorf("%s seed %d on pool %d/%d: got %v JQ %#x evals %d, want %v JQ %#x evals %d",
				g.system, g.seed, g.poolSeed, g.n, res.Indices, math.Float64bits(res.JQ), res.Evaluations,
				g.indices, g.jqBits, g.evaluations)
		}
	}
}
