package main

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/multichoice"
	"repro/internal/selection"
	"repro/internal/server"
	"repro/jury/serve"
)

// The oracles below decide whether juryd's answers are right. Each takes
// the reference result or ledger and the daemon's answer, so tests can
// feed them doctored answers.

// checkBinary compares a select answer with the in-process reference
// selection.OPTJS(seed).Select on the same pool: the same members in the
// same order and the same JQ and cost, bit for bit.
func checkBinary(want selection.Result, ids []string, budget float64, got serve.SelectResponse) error {
	if got.Cost > budget {
		return fmt.Errorf("select: jury cost %v over budget %v", got.Cost, budget)
	}
	if len(got.Jury) != len(want.Indices) {
		return fmt.Errorf("select: jury of %d members, reference has %d", len(got.Jury), len(want.Indices))
	}
	for k, idx := range want.Indices {
		if got.Jury[k].ID != ids[idx] {
			return fmt.Errorf("select: member %d is %q, reference has %q", k, got.Jury[k].ID, ids[idx])
		}
	}
	if math.Float64bits(got.JQ) != math.Float64bits(want.JQ) {
		return fmt.Errorf("select: JQ %v, reference %v (not bit-identical)", got.JQ, want.JQ)
	}
	if math.Float64bits(got.Cost) != math.Float64bits(want.Cost) {
		return fmt.Errorf("select: cost %v, reference %v", got.Cost, want.Cost)
	}
	return nil
}

// checkMultiBounds checks what must hold for any multi-choice answer:
// distinct pool members whose costs sum to the reported cost within the
// budget, and a JQ no worse than answering from the prior alone and no
// better than certainty.
func checkMultiBounds(pool multichoice.Pool, ids []string, prior []float64, budget float64, got serve.MultiSelectResponse) error {
	cost := 0.0
	seen := map[string]bool{}
	for _, m := range got.Jury {
		i := slices.Index(ids, m.ID)
		if i < 0 {
			return fmt.Errorf("multi: member %q not in the pool", m.ID)
		}
		if seen[m.ID] {
			return fmt.Errorf("multi: member %q twice", m.ID)
		}
		seen[m.ID] = true
		cost += pool[i].Cost
	}
	// The search keeps its running cost by adding and removing members,
	// so the reported cost may differ from a fresh sum in the last bits.
	const slack = 1e-9
	if got.Cost > budget || cost > budget+slack {
		return fmt.Errorf("multi: jury cost %v (reported %v) over budget %v", cost, got.Cost, budget)
	}
	if math.Abs(cost-got.Cost) > slack {
		return fmt.Errorf("multi: reported cost %v, members cost %v", got.Cost, cost)
	}
	floor := slices.Max(prior)
	if !(got.JQ >= floor && got.JQ <= 1) {
		return fmt.Errorf("multi: JQ %v outside [%v, 1]", got.JQ, floor)
	}
	return nil
}

// checkMultiSame compares two answers that must be identical: a repeat
// of one (budget, seed) request, or the in-process reference.
func checkMultiSame(want, got serve.MultiSelectResponse) error {
	if len(want.Jury) != len(got.Jury) {
		return fmt.Errorf("multi: jury of %d members, expected %d", len(got.Jury), len(want.Jury))
	}
	for k := range want.Jury {
		if want.Jury[k].ID != got.Jury[k].ID {
			return fmt.Errorf("multi: member %d is %q, expected %q", k, got.Jury[k].ID, want.Jury[k].ID)
		}
	}
	if math.Float64bits(want.JQ) != math.Float64bits(got.JQ) {
		return fmt.Errorf("multi: JQ %v, expected %v", got.JQ, want.JQ)
	}
	return nil
}

// multiAnswer renders an in-process selection as the daemon would.
func multiAnswer(res multichoice.SelectionResult, ids []string) serve.MultiSelectResponse {
	out := serve.MultiSelectResponse{JQ: res.JQ, Cost: res.Cost}
	for _, idx := range res.Indices {
		out.Jury = append(out.Jury, server.MultiJuryMember{ID: ids[idx]})
	}
	return out
}

// tally is one worker's vote counts.
type tally struct{ votes, correct int }

// checkLedger compares one node's per-worker vote counts with the
// ledger of votes the benchmark knows were applied: the seeded journal
// plus every acknowledged ingest.
func checkLedger(node string, want map[string]tally, got []serve.WorkerInfo) error {
	have := map[string]tally{}
	for _, w := range got {
		have[w.ID] = tally{w.Votes, w.Correct}
	}
	for id, t := range want {
		if have[id] != t {
			return fmt.Errorf("%s: worker %s has %d votes (%d correct), ledger says %d (%d)",
				node, id, have[id].votes, have[id].correct, t.votes, t.correct)
		}
	}
	for id, t := range have {
		if _, ok := want[id]; !ok && t != (tally{}) {
			return fmt.Errorf("%s: worker %s has %d votes the ledger does not know", node, id, t.votes)
		}
	}
	return nil
}

// checkConverged requires a drained follower to hold exactly the
// primary's state.
func checkConverged(primary, follower serve.PersistenceStatus) error {
	if primary.NextLSN != follower.NextLSN {
		return fmt.Errorf("follower next_lsn %d, primary %d", follower.NextLSN, primary.NextLSN)
	}
	if primary.StateSHA256 == "" || primary.StateSHA256 != follower.StateSHA256 {
		return fmt.Errorf("follower state_sha256 %q, primary %q", follower.StateSHA256, primary.StateSHA256)
	}
	return nil
}

// checkRead validates a cached follower select over the quiet workers:
// within budget, drawn from the quiet set, and identical to the first
// answer for the same budget.
func checkRead(quiet []string, budget float64, first *serve.SelectResponse, got serve.SelectResponse) error {
	if got.Cost > budget {
		return fmt.Errorf("read: jury cost %v over budget %v", got.Cost, budget)
	}
	for _, m := range got.Jury {
		if !slices.Contains(quiet, m.ID) {
			return fmt.Errorf("read: member %q outside the requested workers", m.ID)
		}
	}
	if first == nil {
		return nil
	}
	if len(first.Jury) != len(got.Jury) || math.Float64bits(first.JQ) != math.Float64bits(got.JQ) {
		return fmt.Errorf("read: budget %v answered JQ %v with %d members, earlier %v with %d",
			budget, got.JQ, len(got.Jury), first.JQ, len(first.Jury))
	}
	for k := range got.Jury {
		if got.Jury[k].ID != first.Jury[k].ID {
			return fmt.Errorf("read: budget %v member %d changed from %q to %q", budget, k, first.Jury[k].ID, got.Jury[k].ID)
		}
	}
	return nil
}
