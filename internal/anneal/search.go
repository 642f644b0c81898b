package anneal

import (
	"math/rand"
	"sort"
)

// Outcome is the best index set one Search pass visited.
type Outcome struct {
	// Members lists the best set's candidate indices, ascending.
	Members []int
	// Score is eval(Members) as the search computed it.
	Score float64
	// Cost is Σ costs[m] over Members.
	Cost float64
}

// Search runs one pass of the paper's Algorithm 3 with the add-or-swap
// local search of Algorithm 4 over subsets of len(costs) candidates. The
// state is the selection vector X; at each of the N local searches per
// temperature level a random candidate r is drawn and either added (when
// it fits the remaining budget) or swapped against a random member or
// non-member, accepting a worsening swap with probability exp(Δ/T).
//
// eval scores a candidate set; it is called once on the empty set before
// the first level and once per feasible move after that. The slice it
// receives is scratch owned by the search: eval must not retain it, and
// members arrive in insertion order, not sorted.
//
// allowRemoval extends Algorithm 4 with a pure removal move: when the
// chosen swap would exceed the budget, the member that would have left
// may be removed outright, accepted by the same Boltzmann rule.
//
// Unlike the paper's pseudo-code, Search returns the best set seen across
// the whole run rather than the final state; this never hurts and makes
// the returned score monotone in the number of iterations. rng drives
// every random choice, so equal inputs and seeds give equal outcomes.
func Search(costs []float64, budget float64, schedule Schedule, rng *rand.Rand, allowRemoval bool,
	eval func(members []int) (float64, error)) (Outcome, error) {
	n := len(costs)
	s := &search{
		costs:        costs,
		eval:         eval,
		budget:       budget,
		rng:          rng,
		allowRemoval: allowRemoval,
		selected:     make([]bool, n),
		members:      make([]int, 0, n),
		spare:        make([]int, 0, n),
	}
	var err error
	s.cur, err = eval(s.members)
	if err != nil {
		return Outcome{}, err
	}
	best := Outcome{Score: s.cur}

	var loopErr error
	_, err = Run(schedule, func(temp float64) {
		if loopErr != nil {
			return
		}
		for step := 0; step < n; step++ {
			r := s.rng.Intn(n)
			if !s.selected[r] && s.cost+s.costs[r] <= s.budget {
				// Add r (Algorithm 3, steps 9–11).
				s.selected[r] = true
				s.members = append(s.members, r)
				s.cost += s.costs[r]
				score, err := s.eval(s.members)
				if err != nil {
					loopErr = err
					return
				}
				s.cur = score
			} else if err := s.swap(r, temp); err != nil {
				loopErr = err
				return
			}
			if s.cur > best.Score {
				best.Score = s.cur
				best.Members = append(best.Members[:0], s.members...)
				best.Cost = s.cost
			}
		}
	})
	if err != nil {
		return Outcome{}, err
	}
	if loopErr != nil {
		return Outcome{}, loopErr
	}
	sort.Ints(best.Members) // its own backing array: see the append above
	return best, nil
}

// search is the mutable state of one Search pass: the selection vector,
// the member list, and the scratch buffer the swap move builds candidate
// sets in. members and spare are two fixed backing arrays that trade
// roles when a move is accepted, so the search allocates nothing per move.
type search struct {
	costs        []float64
	eval         func([]int) (float64, error)
	budget       float64
	rng          *rand.Rand
	allowRemoval bool

	selected []bool // X
	members  []int
	spare    []int
	cost     float64 // M
	cur      float64
}

// swap implements Algorithm 4: exchange one selected candidate against one
// unselected candidate, accepting by the Boltzmann rule.
func (s *search) swap(r int, temp float64) error {
	n := len(s.selected)
	var out, in int // out leaves the set, in enters
	if !s.selected[r] {
		if len(s.members) == 0 {
			return nil // nothing to swap against
		}
		out = s.members[s.rng.Intn(len(s.members))]
		in = r
	} else {
		free := n - len(s.members)
		if free == 0 {
			return nil // everyone is already selected
		}
		pick := s.rng.Intn(free)
		in = -1
		for i := 0; i < n; i++ {
			if !s.selected[i] {
				if pick == 0 {
					in = i
					break
				}
				pick--
			}
		}
		out = r
	}
	newCost := s.cost - s.costs[out] + s.costs[in]
	candidate := s.spare[:0]
	for _, m := range s.members {
		if m != out {
			candidate = append(candidate, m)
		}
	}
	if newCost > s.budget {
		if !s.allowRemoval {
			return nil
		}
		// Extension: fall back to removing `out` alone.
		score, err := s.eval(candidate)
		if err != nil {
			return err
		}
		if Accept(score-s.cur, temp, s.rng) {
			s.selected[out] = false
			s.members, s.spare = candidate, s.members
			s.cost -= s.costs[out]
			s.cur = score
		}
		return nil
	}
	candidate = append(candidate, in)
	score, err := s.eval(candidate)
	if err != nil {
		return err
	}
	if Accept(score-s.cur, temp, s.rng) {
		s.selected[out] = false
		s.selected[in] = true
		s.members, s.spare = candidate, s.members
		s.cost = newCost
		s.cur = score
	}
	return nil
}
