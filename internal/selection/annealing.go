package selection

import (
	"math/rand"
	"runtime"

	"repro/internal/anneal"
	"repro/internal/conc"
	"repro/internal/worker"
)

// restartSeedStride separates the derived RNG seeds of annealing
// restarts; restart r runs on Seed + r·restartSeedStride.
const restartSeedStride = 0x9E3779B9

// Annealing is the simulated-annealing JSP heuristic of Algorithm 3, with
// the add-or-swap local search of Algorithm 4, run by anneal.Search over
// the candidates' index sets. It returns the best jury seen across the
// whole run rather than the final state.
//
// Objective evaluations go through the objective's Evaluator fast path
// (see EvaluatorProvider): the per-pool setup runs once per restart, and
// each move is scored from precomputed state with no per-move allocation.
type Annealing struct {
	Objective Objective
	// Schedule defaults to anneal.DefaultSchedule() when zero.
	Schedule anneal.Schedule
	// Seed makes runs reproducible. Two selectors with equal seeds and
	// inputs return identical juries.
	Seed int64
	// Restarts runs the annealing loop multiple times (fresh random state,
	// derived seeds) and keeps the best jury. Zero means 1. Restarts fan
	// out across a bounded goroutine pool; because every restart derives
	// its RNG and evaluator independently and the results are folded in
	// restart order, the outcome is identical to running them
	// sequentially.
	Restarts int
	// AllowRemoval extends Algorithm 4 with a pure removal move: when the
	// chosen swap is infeasible (it would exceed the budget), the member
	// that would have left the jury may be removed outright, accepted by
	// the same Boltzmann rule. Removals typically lower JQ (Lemma 1), so
	// they fire mostly at high temperature — but they let the search
	// escape juries packed with cheap workers that block every single
	// swap toward an expensive high-quality worker. This is an extension
	// over the paper's algorithm and is off by default.
	AllowRemoval bool
}

// Name implements Selector.
func (a Annealing) Name() string { return "anneal(" + a.Objective.Name() + ")" }

// Select implements Selector.
func (a Annealing) Select(pool worker.Pool, budget, alpha float64) (Result, error) {
	if err := checkSelectInput(pool, budget, alpha); err != nil {
		return Result{}, err
	}
	schedule := a.Schedule
	if schedule == (anneal.Schedule{}) {
		schedule = anneal.DefaultSchedule()
	}
	if err := schedule.Validate(); err != nil {
		return Result{}, err
	}
	restarts := a.Restarts
	if restarts < 1 {
		restarts = 1
	}
	results := make([]Result, restarts)
	errs := make([]error, restarts)
	conc.ForEach(runtime.GOMAXPROCS(0), restarts, func(r int) {
		rng := rand.New(rand.NewSource(a.Seed + int64(r)*restartSeedStride))
		results[r], errs[r] = a.run(pool, budget, alpha, schedule, rng)
	})
	// Fold in restart order so the result matches a sequential run
	// bit for bit: the first error wins, ties keep the earlier restart.
	var best Result
	bestSet := false
	evals := 0
	for r := 0; r < restarts; r++ {
		if errs[r] != nil {
			return Result{}, errs[r]
		}
		evals += results[r].Evaluations
		if !bestSet || results[r].JQ > best.JQ {
			best = results[r]
			bestSet = true
		}
	}
	best.Evaluations = evals
	return best, nil
}

// run executes one annealing pass (Algorithm 3) on a fresh evaluator.
func (a Annealing) run(pool worker.Pool, budget, alpha float64, schedule anneal.Schedule, rng *rand.Rand) (Result, error) {
	eval, err := newEvaluator(a.Objective, pool, alpha)
	if err != nil {
		return Result{}, err
	}
	evals := 0
	best, err := anneal.Search(pool.Costs(), budget, schedule, rng, a.AllowRemoval, func(members []int) (float64, error) {
		evals++
		return eval.Eval(members)
	})
	if err != nil {
		return Result{}, err
	}
	return Result{
		Jury:        pool.Subset(best.Members),
		Indices:     best.Members,
		JQ:          best.Score,
		Cost:        best.Cost,
		Evaluations: evals,
	}, nil
}
