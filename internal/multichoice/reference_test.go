package multichoice

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/anneal"
)

// This file keeps the string-keyed bucket DP and the second annealing loop
// exactly as they were before Estimator and anneal.Search replaced them.
// They are the references the property, fuzz and search-equivalence tests
// hold the new code to, bit for bit.

// referenceEstimateBV is the pre-Estimator EstimateBV. It approximates
// JQ(J, BV, prior) with the Section 7 bucketed dynamic program. For each candidate label t' it accumulates
//
//	H(t') = Σ_{V : BV(V) = t'} P(V | t')
//
// with a map from bucketed (ℓ−1)-tuples of log-posterior margins
// ln(prior[t']·P(V|t')) − ln(prior[j]·P(V|j)) (j ≠ t') to probability
// mass, expanding one worker per iteration; JQ = Σ_{t'} prior[t']·H(t').
// BV(V) = t' corresponds to all margins ≥ 0, with ties broken toward the
// smaller label (strict margin required against j < t').
//
// numBuckets controls the margin resolution per unit of the largest
// absolute per-worker log-ratio; 0 selects 50. Accuracy improves with more
// buckets, matching the binary Algorithm 1.
func referenceEstimateBV(pool Pool, prior Prior, numBuckets int) (float64, error) {
	if err := checkVoting(pool, prior, nil); err != nil {
		return 0, err
	}
	if numBuckets == 0 {
		numBuckets = DefaultEstimateBuckets
	}
	if numBuckets < 1 {
		return 0, fmt.Errorf("multichoice: numBuckets must be positive, got %d", numBuckets)
	}
	l, n := pool.Labels(), len(pool)

	// Pre-compute the per-worker log-ratio increments and the global
	// bucket width: Δ = (max |increment|)/numBuckets.
	logC := make([][][]float64, n) // [worker][truth][vote]
	var upper float64
	for i, w := range pool {
		logC[i] = make([][]float64, l)
		for t := 0; t < l; t++ {
			logC[i][t] = make([]float64, l)
			for v := 0; v < l; v++ {
				logC[i][t][v] = math.Log(math.Max(w.Confusion[t][v], logFloor))
			}
		}
		for t1 := 0; t1 < l; t1++ {
			for t2 := 0; t2 < l; t2++ {
				for v := 0; v < l; v++ {
					d := math.Abs(logC[i][t1][v] - logC[i][t2][v])
					if d > upper {
						upper = d
					}
				}
			}
		}
	}
	if upper == 0 {
		// Every worker is label-blind: BV follows the prior alone.
		best := 0.0
		for _, p := range prior {
			if p > best {
				best = p
			}
		}
		return best, nil
	}
	delta := upper / float64(numBuckets)
	bucket := func(x float64) int32 { return int32(math.Round(x / delta)) }

	var jq float64
	for tPrime := 0; tPrime < l; tPrime++ {
		// margin dimensions: every label j ≠ t'.
		others := make([]int, 0, l-1)
		for j := 0; j < l; j++ {
			if j != tPrime {
				others = append(others, j)
			}
		}
		base := make([]int32, len(others))
		for d, j := range others {
			base[d] = bucket(math.Log(math.Max(prior[tPrime], logFloor)) -
				math.Log(math.Max(prior[j], logFloor)))
		}
		// The expansion and the final accumulation walk the state maps in
		// sorted key order: float addition is not associative, so map
		// iteration order would otherwise leak into the result's last
		// ULPs. The serving layer (selection cache, bit-exact WAL replay)
		// requires JQ to be a pure function of its inputs.
		states := map[string]float64{refEncodeKey(base): 1}
		for i := 0; i < n; i++ {
			next := make(map[string]float64, len(states)*l)
			for _, key := range refSortedKeys(states) {
				prob := states[key]
				margins := refDecodeKey(key, len(others))
				for v := 0; v < l; v++ {
					newMargins := make([]int32, len(others))
					for d, j := range others {
						newMargins[d] = margins[d] + bucket(logC[i][tPrime][v]-logC[i][j][v])
					}
					next[refEncodeKey(newMargins)] += prob * math.Exp(logC[i][tPrime][v])
				}
			}
			states = next
		}
		var h float64
		for _, key := range refSortedKeys(states) {
			prob := states[key]
			margins := refDecodeKey(key, len(others))
			wins := true
			for d, j := range others {
				if j < tPrime {
					if margins[d] <= 0 { // strict: smaller label wins ties
						wins = false
						break
					}
				} else if margins[d] < 0 {
					wins = false
					break
				}
			}
			if wins {
				h += prob
			}
		}
		jq += prior[tPrime] * h
	}
	return jq, nil
}

// sortedKeys returns the map's keys in sorted order, the deterministic
// iteration order of the bucket DP.
func refSortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// encodeKey packs a margin tuple into a map key.
func refEncodeKey(margins []int32) string {
	buf := make([]byte, 4*len(margins))
	for i, m := range margins {
		u := uint32(m)
		buf[4*i] = byte(u)
		buf[4*i+1] = byte(u >> 8)
		buf[4*i+2] = byte(u >> 16)
		buf[4*i+3] = byte(u >> 24)
	}
	return string(buf)
}

// decodeKey unpacks a map key into a margin tuple.
func refDecodeKey(key string, n int) []int32 {
	out := make([]int32, n)
	for i := 0; i < n; i++ {
		out[i] = int32(uint32(key[4*i]) | uint32(key[4*i+1])<<8 |
			uint32(key[4*i+2])<<16 | uint32(key[4*i+3])<<24)
	}
	return out
}

// referenceSelectAnnealing is the pre-anneal.Search SelectAnnealing: the
// Algorithm 3/4 annealing over multi-choice juries, scoring each candidate
// with obj(pool.Subset(members)) in the search's insertion order.
func referenceSelectAnnealing(pool Pool, budget float64, prior Prior, obj Objective, seed int64) (SelectionResult, error) {
	if err := checkVoting(pool, prior, nil); err != nil {
		return SelectionResult{}, err
	}
	if budget < 0 || budget != budget {
		return SelectionResult{}, fmt.Errorf("multichoice: negative budget %v", budget)
	}
	rng := rand.New(rand.NewSource(seed))
	n := len(pool)

	priorOnly := 0.0
	for _, p := range prior {
		if p > priorOnly {
			priorOnly = p
		}
	}
	evals := 0
	score := func(members []int) (float64, error) {
		if len(members) == 0 {
			return priorOnly, nil
		}
		evals++
		return obj(pool.Subset(members), prior)
	}

	selected := make([]bool, n)
	var members []int
	var cost float64
	curJQ := priorOnly
	bestJQ, bestMembers, bestCost := curJQ, []int(nil), 0.0

	var loopErr error
	_, err := anneal.Run(anneal.DefaultSchedule(), func(temp float64) {
		if loopErr != nil {
			return
		}
		for step := 0; step < n; step++ {
			r := rng.Intn(n)
			if !selected[r] && cost+pool[r].Cost <= budget {
				selected[r] = true
				members = append(members, r)
				cost += pool[r].Cost
				newJQ, err := score(members)
				if err != nil {
					loopErr = err
					return
				}
				curJQ = newJQ
			} else if len(members) > 0 {
				// Swap a random member against a random non-member.
				var out, in int
				if !selected[r] {
					out, in = members[rng.Intn(len(members))], r
				} else {
					free := n - len(members)
					if free == 0 {
						continue
					}
					pick := rng.Intn(free)
					in = -1
					for i := 0; i < n; i++ {
						if !selected[i] {
							if pick == 0 {
								in = i
								break
							}
							pick--
						}
					}
					out = r
				}
				newCost := cost - pool[out].Cost + pool[in].Cost
				if newCost > budget {
					continue
				}
				candidate := make([]int, 0, len(members))
				for _, m := range members {
					if m != out {
						candidate = append(candidate, m)
					}
				}
				candidate = append(candidate, in)
				newJQ, err := score(candidate)
				if err != nil {
					loopErr = err
					return
				}
				if anneal.Accept(newJQ-curJQ, temp, rng) {
					selected[out] = false
					selected[in] = true
					members = candidate
					cost = newCost
					curJQ = newJQ
				}
			}
			if curJQ > bestJQ {
				bestJQ = curJQ
				bestMembers = append([]int(nil), members...)
				bestCost = cost
			}
		}
	})
	if err != nil {
		return SelectionResult{}, err
	}
	if loopErr != nil {
		return SelectionResult{}, loopErr
	}
	sort.Ints(bestMembers)
	return SelectionResult{
		Jury:        pool.Subset(bestMembers),
		Indices:     bestMembers,
		JQ:          bestJQ,
		Cost:        bestCost,
		Evaluations: evals,
	}, nil
}
