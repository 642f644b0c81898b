// Package multi exposes the multiple-choice extension of the jury-selection
// library (Section 7 of the paper): tasks with ℓ ≥ 2 possible answers and
// workers modeled by confusion matrices instead of a single quality score.
//
// Bayesian voting remains the optimal strategy in this model, the Jury
// Quality is computed by a bucketed dynamic program over log-posterior
// margins, and the Jury Selection Problem is solved by the same simulated
// annealing with the JQ computation as a black box.
package multi

import (
	"repro/internal/multichoice"
)

// Label is a task answer in {0, …, ℓ−1}.
type Label = multichoice.Label

// ConfusionMatrix is a row-stochastic ℓ×ℓ matrix: entry [j][k] is the
// probability of voting k when the true answer is j.
type ConfusionMatrix = multichoice.ConfusionMatrix

// NewSymmetricConfusion builds the single-parameter symmetric matrix with
// diagonal q — the natural generalization of the binary quality model.
func NewSymmetricConfusion(labels int, q float64) (ConfusionMatrix, error) {
	return multichoice.NewSymmetricConfusion(labels, q)
}

// Worker is a multi-choice crowd worker.
type Worker = multichoice.Worker

// Pool is an ordered set of workers sharing one label count.
type Pool = multichoice.Pool

// Prior is the task provider's distribution over the ℓ labels.
type Prior = multichoice.Prior

// UniformPrior returns the maximum-entropy prior over ℓ labels.
func UniformPrior(labels int) Prior { return multichoice.UniformPrior(labels) }

// Strategy estimates the true label from a voting.
type Strategy = multichoice.Strategy

// Bayesian returns the optimal strategy: argmax of the posterior.
func Bayesian() Strategy { return multichoice.Bayesian{} }

// Plurality returns the most-votes strategy (ℓ-ary majority voting).
func Plurality() Strategy { return multichoice.Plurality{} }

// JQ computes the exact Jury Quality of a strategy by enumeration
// (exponential; small juries only).
func JQ(pool Pool, s Strategy, prior Prior) (float64, error) {
	return multichoice.ExactJQ(pool, s, prior)
}

// EstimateJQ approximates the optimal-strategy JQ with the Section 7
// bucketed dynamic program. numBuckets 0 selects 50.
func EstimateJQ(pool Pool, prior Prior, numBuckets int) (float64, error) {
	return multichoice.EstimateBV(pool, prior, numBuckets)
}

// Selection is the outcome of multi-choice jury selection.
type Selection = multichoice.SelectionResult

// Select solves the multi-choice Jury Selection Problem by simulated
// annealing over the approximate JQ.
func Select(pool Pool, budget float64, prior Prior, seed int64) (Selection, error) {
	return multichoice.SelectAnnealingEstimate(pool, budget, prior, 0, seed)
}

// InformativenessScore quantifies how much a worker's votes reveal about
// the truth, in [0, 1]: 0 for label-blind spammers (identical confusion
// rows), 1 for perfect workers, |2q−1| for the binary symmetric model.
func InformativenessScore(m ConfusionMatrix) float64 {
	return multichoice.InformativenessScore(m)
}

// RankWorkers orders pool indices by decreasing informativeness (ties
// toward cheaper workers) — the heuristic the paper suggests for ranking
// confusion-matrix workers.
func RankWorkers(pool Pool) []int { return multichoice.RankWorkers(pool) }

// GreedySelect picks workers in informativeness order within the budget —
// a fast baseline against Select.
func GreedySelect(pool Pool, budget float64, prior Prior) (Selection, error) {
	return multichoice.GreedyByInformativeness(pool, budget, prior, multichoice.EstimateObjective(0))
}
