// Package multichoice extends the jury-selection machinery to the
// multiple-choice tasks and confusion-matrix worker model of Section 7 of
// Zheng et al. (EDBT 2015).
//
// A task has ℓ possible answers {0, …, ℓ−1} with one latent truth; the
// provider's prior is a distribution over the labels. Each worker is
// described by an ℓ×ℓ confusion matrix C where C[j][k] is the probability
// of voting k when the truth is j (Dawid & Skene [1], Ipeirotis et al.
// [18]). The single-quality binary model is the special case ℓ=2 with
// C = [[q, 1−q], [1−q, q]].
//
// The package proves out the paper's three extension claims: Bayesian
// voting remains optimal w.r.t. JQ (Equation 10), JQ can be computed by a
// bucketed dynamic program over tuples of log-posterior margins, and the
// annealing JSP solver carries over by treating JQ as a black box.
package multichoice

import (
	"errors"
	"fmt"
	"math"
)

// Label is a task answer in {0, …, ℓ−1}.
type Label int

// Errors returned by validation.
var (
	ErrBadMatrix    = errors.New("multichoice: invalid confusion matrix")
	ErrBadPrior     = errors.New("multichoice: invalid prior")
	ErrArity        = errors.New("multichoice: mismatched labels/votes/workers")
	ErrEmptyJury    = errors.New("multichoice: empty jury")
	ErrJuryTooLarge = errors.New("multichoice: jury too large for exact computation")
	ErrBadBudget    = errors.New("multichoice: negative budget")
	ErrBadBuckets   = errors.New("multichoice: numBuckets out of range")
)

// ConfusionMatrix is an ℓ×ℓ row-stochastic matrix: entry [j][k] is the
// probability the worker votes k when the true label is j.
type ConfusionMatrix [][]float64

// NewSymmetricConfusion builds the symmetric single-parameter matrix with
// diagonal q and uniform off-diagonal mass (1−q)/(ℓ−1): the natural
// generalization of the binary quality model.
func NewSymmetricConfusion(labels int, q float64) (ConfusionMatrix, error) {
	if labels < 2 {
		return nil, fmt.Errorf("%w: need at least 2 labels, got %d", ErrBadMatrix, labels)
	}
	if q < 0 || q > 1 || q != q {
		return nil, fmt.Errorf("%w: diagonal %v outside [0, 1]", ErrBadMatrix, q)
	}
	off := (1 - q) / float64(labels-1)
	m := make(ConfusionMatrix, labels)
	for j := range m {
		m[j] = make([]float64, labels)
		for k := range m[j] {
			if j == k {
				m[j][k] = q
			} else {
				m[j][k] = off
			}
		}
	}
	return m, nil
}

// Labels returns ℓ.
func (m ConfusionMatrix) Labels() int { return len(m) }

// Validate checks squareness, entry ranges, and row sums.
func (m ConfusionMatrix) Validate() error {
	l := len(m)
	if l < 2 {
		return fmt.Errorf("%w: %d labels", ErrBadMatrix, l)
	}
	for j, row := range m {
		if len(row) != l {
			return fmt.Errorf("%w: row %d has %d entries, want %d", ErrBadMatrix, j, len(row), l)
		}
		var sum float64
		for k, p := range row {
			if p < 0 || p > 1 || p != p {
				return fmt.Errorf("%w: entry [%d][%d] = %v", ErrBadMatrix, j, k, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("%w: row %d sums to %v", ErrBadMatrix, j, sum)
		}
	}
	return nil
}

// Worker is a multi-choice crowd worker.
type Worker struct {
	ID        string
	Confusion ConfusionMatrix
	Cost      float64
}

// Validate checks the worker.
func (w Worker) Validate() error {
	if err := w.Confusion.Validate(); err != nil {
		return fmt.Errorf("worker %q: %w", w.ID, err)
	}
	if w.Cost < 0 || w.Cost != w.Cost {
		return fmt.Errorf("multichoice: worker %q has negative cost %v", w.ID, w.Cost)
	}
	return nil
}

// Pool is an ordered set of multi-choice workers sharing a label count.
type Pool []Worker

// Labels returns the common ℓ, or 0 for an empty pool.
func (p Pool) Labels() int {
	if len(p) == 0 {
		return 0
	}
	return p[0].Confusion.Labels()
}

// Validate checks every worker and that all share one label count.
func (p Pool) Validate() error {
	if len(p) == 0 {
		return ErrEmptyJury
	}
	l := p.Labels()
	for i, w := range p {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("worker %d: %w", i, err)
		}
		if w.Confusion.Labels() != l {
			return fmt.Errorf("%w: worker %d has %d labels, want %d", ErrArity, i, w.Confusion.Labels(), l)
		}
	}
	return nil
}

// TotalCost sums the member costs.
func (p Pool) TotalCost() float64 {
	var sum float64
	for _, w := range p {
		sum += w.Cost
	}
	return sum
}

// Subset returns the pool restricted to indices.
func (p Pool) Subset(indices []int) Pool {
	out := make(Pool, len(indices))
	for i, idx := range indices {
		out[i] = p[idx]
	}
	return out
}

// Prior is the provider's distribution over the ℓ labels.
type Prior []float64

// UniformPrior returns the maximum-entropy prior over ℓ labels.
func UniformPrior(labels int) Prior {
	p := make(Prior, labels)
	for i := range p {
		p[i] = 1 / float64(labels)
	}
	return p
}

// Validate checks the prior sums to one.
func (p Prior) Validate() error {
	if len(p) < 2 {
		return fmt.Errorf("%w: %d labels", ErrBadPrior, len(p))
	}
	var sum float64
	for i, v := range p {
		if v < 0 || v > 1 || v != v {
			return fmt.Errorf("%w: entry %d = %v", ErrBadPrior, i, v)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		return fmt.Errorf("%w: sums to %v", ErrBadPrior, sum)
	}
	return nil
}

// checkVoting validates a (pool, prior, votes) triple.
func checkVoting(pool Pool, prior Prior, votes []Label) error {
	if err := pool.Validate(); err != nil {
		return err
	}
	if err := prior.Validate(); err != nil {
		return err
	}
	l := pool.Labels()
	if len(prior) != l {
		return fmt.Errorf("%w: prior has %d labels, pool %d", ErrArity, len(prior), l)
	}
	if votes != nil {
		if len(votes) != len(pool) {
			return fmt.Errorf("%w: %d votes for %d workers", ErrArity, len(votes), len(pool))
		}
		for i, v := range votes {
			if v < 0 || int(v) >= l {
				return fmt.Errorf("%w: vote %d = %d outside [0, %d)", ErrArity, i, v, l)
			}
		}
	}
	return nil
}

// Strategy estimates the true label from a voting. Probabilities returns
// the distribution over returned labels (a point mass for deterministic
// strategies), mirroring the binary package's ProbZero generalized to ℓ.
type Strategy interface {
	Name() string
	Deterministic() bool
	Probabilities(votes []Label, pool Pool, prior Prior) ([]float64, error)
}

// Plurality returns the label with the most votes, breaking ties toward
// the smallest label. It is the ℓ-ary analogue of Majority Voting.
type Plurality struct{}

// Name implements Strategy.
func (Plurality) Name() string { return "PLURALITY" }

// Deterministic implements Strategy.
func (Plurality) Deterministic() bool { return true }

// Probabilities implements Strategy.
func (Plurality) Probabilities(votes []Label, pool Pool, prior Prior) ([]float64, error) {
	if err := checkVoting(pool, prior, votes); err != nil {
		return nil, err
	}
	l := pool.Labels()
	counts := make([]int, l)
	for _, v := range votes {
		counts[v]++
	}
	best := 0
	for t := 1; t < l; t++ {
		if counts[t] > counts[best] {
			best = t
		}
	}
	out := make([]float64, l)
	out[best] = 1
	return out, nil
}

// Bayesian returns argmax_t prior[t]·Π_i C_i[t][v_i], ties toward the
// smallest label — the optimal strategy of Equation 10.
type Bayesian struct{}

// Name implements Strategy.
func (Bayesian) Name() string { return "BV" }

// Deterministic implements Strategy.
func (Bayesian) Deterministic() bool { return true }

// Probabilities implements Strategy.
func (Bayesian) Probabilities(votes []Label, pool Pool, prior Prior) ([]float64, error) {
	if err := checkVoting(pool, prior, votes); err != nil {
		return nil, err
	}
	post, err := Posterior(votes, pool, prior)
	if err != nil {
		return nil, err
	}
	best := 0
	for t := 1; t < len(post); t++ {
		if post[t] > post[best] {
			best = t
		}
	}
	out := make([]float64, len(post))
	out[best] = 1
	return out, nil
}

// Posterior returns the unnormalized posterior prior[t]·Π_i C_i[t][v_i]
// for each label t.
func Posterior(votes []Label, pool Pool, prior Prior) ([]float64, error) {
	if err := checkVoting(pool, prior, votes); err != nil {
		return nil, err
	}
	l := pool.Labels()
	post := make([]float64, l)
	for t := 0; t < l; t++ {
		p := prior[t]
		for i, w := range pool {
			p *= w.Confusion[t][votes[i]]
		}
		post[t] = p
	}
	return post, nil
}

// RandomBallot returns a uniformly random label regardless of the votes.
type RandomBallot struct{}

// Name implements Strategy.
func (RandomBallot) Name() string { return "RBV" }

// Deterministic implements Strategy.
func (RandomBallot) Deterministic() bool { return false }

// Probabilities implements Strategy.
func (RandomBallot) Probabilities(votes []Label, pool Pool, prior Prior) ([]float64, error) {
	if err := checkVoting(pool, prior, votes); err != nil {
		return nil, err
	}
	l := pool.Labels()
	out := make([]float64, l)
	for i := range out {
		out[i] = 1 / float64(l)
	}
	return out, nil
}
