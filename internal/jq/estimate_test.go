package jq

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/worker"
)

func TestEstimateMatchesExactOnFigure2(t *testing.T) {
	res, err := Estimate(figure2Pool(), 0.5, Options{NumBuckets: 2200}) // d=200·n... n=3
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JQ-0.9) > 1e-3 {
		t.Fatalf("estimated JQ = %v, want ≈0.90", res.JQ)
	}
	if res.ShortCircuited {
		t.Fatal("unexpected short circuit")
	}
}

func TestEstimateDefaultsBuckets(t *testing.T) {
	res, err := Estimate(figure2Pool(), 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JQ-0.9) > 5e-3 {
		t.Fatalf("estimated JQ with default buckets = %v, want ≈0.90", res.JQ)
	}
}

func TestEstimateRejectsNegativeBuckets(t *testing.T) {
	if _, err := Estimate(figure2Pool(), 0.5, Options{NumBuckets: -3}); err == nil {
		t.Fatal("no error for negative NumBuckets")
	}
}

func TestEstimateValidation(t *testing.T) {
	if _, err := Estimate(nil, 0.5, Options{}); !errors.Is(err, worker.ErrEmptyPool) {
		t.Errorf("empty pool: err = %v", err)
	}
	if _, err := Estimate(pool(0.7), -0.1, Options{}); !errors.Is(err, ErrPriorRange) {
		t.Errorf("bad prior: err = %v", err)
	}
}

func TestEstimateShortCircuitsHighQuality(t *testing.T) {
	res, err := Estimate(pool(0.995, 0.6, 0.7), 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShortCircuited {
		t.Fatal("expected short circuit for q=0.995")
	}
	if res.JQ != 0.995 {
		t.Fatalf("JQ = %v, want 0.995 (the dominating quality)", res.JQ)
	}
	if res.Bound > 0.01 {
		t.Fatalf("Bound = %v, want < 1%%", res.Bound)
	}
	// Exact JQ must dominate the short-circuit value (Lemma 1).
	exact, err := ExactBV(pool(0.995, 0.6, 0.7), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if exact < res.JQ {
		t.Fatalf("exact %v < estimate %v", exact, res.JQ)
	}
}

func TestEstimateShortCircuitsExtremePrior(t *testing.T) {
	// α=1 introduces a pseudo-worker of quality 1 → short circuit at JQ=1.
	res, err := Estimate(pool(0.6, 0.7), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShortCircuited || res.JQ != 1 {
		t.Fatalf("α=1: res = %+v, want short-circuited JQ=1", res)
	}
	// α=0 likewise: pseudo-worker q=0 normalizes to q=1.
	res, err = Estimate(pool(0.6, 0.7), 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.ShortCircuited || res.JQ != 1 {
		t.Fatalf("α=0: res = %+v, want short-circuited JQ=1", res)
	}
}

func TestEstimateAllCoinFlipWorkers(t *testing.T) {
	res, err := Estimate(pool(0.5, 0.5, 0.5), 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.JQ != 0.5 || !res.ShortCircuited {
		t.Fatalf("res = %+v, want short-circuited JQ=0.5", res)
	}
}

func TestEstimateSingleWorker(t *testing.T) {
	res, err := Estimate(pool(0.8), 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.JQ-0.8) > 1e-9 {
		t.Fatalf("JQ = %v, want 0.8", res.JQ)
	}
}

func TestEstimateLowQualityWorkersReinterpreted(t *testing.T) {
	// q=0.2 carries as much information as q=0.8.
	a, err := Estimate(pool(0.2, 0.7), 0.5, Options{NumBuckets: 400})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(pool(0.8, 0.7), 0.5, Options{NumBuckets: 400})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.JQ-b.JQ) > 1e-12 {
		t.Fatalf("JQ(0.2) = %v != JQ(0.8) = %v", a.JQ, b.JQ)
	}
}

// The central approximation guarantees of Section 4.4: the estimate is a
// lower bound on the true JQ, and the gap stays below the analytic bound.
func TestEstimateErrorBoundProperty(t *testing.T) {
	f := func(seed int64, nbRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(10) + 2
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.49*rng.Float64() // stay below the 0.99 cutoff
		}
		numBuckets := int(nbRaw%200) + 10
		alpha := rng.Float64()
		p := pool(qs...)
		exact, err := ExactBV(p, alpha)
		if err != nil {
			return false
		}
		res, err := Estimate(p, alpha, Options{NumBuckets: numBuckets})
		if err != nil {
			return false
		}
		if res.JQ > exact+1e-9 { // one-sided: ĴQ ≤ JQ
			return false
		}
		return exact-res.JQ <= res.Bound+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// The paper's headline guarantee: numBuckets = 200·n ⇒ error < 1% (in fact
// < 0.627%).
func TestEstimateSubPercentAt200BucketsPerWorker(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		size := rng.Intn(9) + 2
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.49*rng.Float64()
		}
		p := pool(qs...)
		exact, err := ExactBV(p, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Estimate(p, 0.5, Options{NumBuckets: 200 * size})
		if err != nil {
			t.Fatal(err)
		}
		if gap := exact - res.JQ; gap > 0.00627 {
			t.Fatalf("gap = %v > 0.627%% (n=%d, qs=%v)", gap, size, qs)
		}
		if res.Bound > 0.00627+1e-9 {
			t.Fatalf("analytic bound = %v > 0.627%%", res.Bound)
		}
	}
}

// Pruning must not change the estimate, only the work counters.
func TestPruningPreservesEstimateProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(12) + 2
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.49*rng.Float64()
		}
		p := pool(qs...)
		withP, err := Estimate(p, 0.5, Options{NumBuckets: 50})
		if err != nil {
			return false
		}
		withoutP, err := Estimate(p, 0.5, Options{NumBuckets: 50, DisablePruning: true})
		if err != nil {
			return false
		}
		if math.Abs(withP.JQ-withoutP.JQ) > 1e-9 {
			return false
		}
		if withoutP.KeysPruned != 0 {
			return false
		}
		return withP.KeysVisited <= withoutP.KeysVisited
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPruningSavesWorkOnLargeJuries(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	qs := make([]float64, 60)
	for i := range qs {
		qs[i] = 0.5 + 0.49*rng.Float64()
	}
	p := pool(qs...)
	withP, err := Estimate(p, 0.5, Options{NumBuckets: 50})
	if err != nil {
		t.Fatal(err)
	}
	withoutP, err := Estimate(p, 0.5, Options{NumBuckets: 50, DisablePruning: true})
	if err != nil {
		t.Fatal(err)
	}
	if withP.KeysPruned == 0 {
		t.Fatal("expected pruning to fire on a 60-worker jury")
	}
	if withP.KeysVisited >= withoutP.KeysVisited {
		t.Fatalf("pruned run visited %d keys, unpruned %d — no savings",
			withP.KeysVisited, withoutP.KeysVisited)
	}
	if math.Abs(withP.JQ-withoutP.JQ) > 1e-9 {
		t.Fatalf("pruning changed the estimate: %v vs %v", withP.JQ, withoutP.JQ)
	}
}

func TestEstimateScalesToLargeJuries(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	qs := make([]float64, 300)
	for i := range qs {
		qs[i] = 0.5 + 0.45*rng.Float64()
	}
	res, err := Estimate(pool(qs...), 0.5, Options{NumBuckets: 50})
	if err != nil {
		t.Fatal(err)
	}
	// A 300-strong jury of decent workers is essentially always right.
	if res.JQ < 0.999 || res.JQ > 1+1e-9 {
		t.Fatalf("JQ = %v, want ≈1", res.JQ)
	}
}

// Estimate must agree with the Theorem 3 reduction it uses internally.
func TestEstimatePriorConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		size := rng.Intn(8) + 2
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.45*rng.Float64()
		}
		alpha := 0.05 + 0.9*rng.Float64()
		p := pool(qs...)
		direct, err := Estimate(p, alpha, Options{NumBuckets: 300})
		if err != nil {
			return false
		}
		manual, err := Estimate(WithPrior(p, alpha), 0.5, Options{NumBuckets: 300})
		if err != nil {
			return false
		}
		return math.Abs(direct.JQ-manual.JQ) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// Monotonicity survives the approximation: more buckets ⇒ estimate at least
// as close to exact (checked as non-decreasing error quality on average via
// direct pairwise comparison of gap bounds).
func TestEstimateGapShrinksWithResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var coarseGaps, fineGaps float64
	for trial := 0; trial < 30; trial++ {
		size := rng.Intn(8) + 3
		qs := make([]float64, size)
		for i := range qs {
			qs[i] = 0.5 + 0.49*rng.Float64()
		}
		p := pool(qs...)
		exact, err := ExactBV(p, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		coarse, err := Estimate(p, 0.5, Options{NumBuckets: 10})
		if err != nil {
			t.Fatal(err)
		}
		fine, err := Estimate(p, 0.5, Options{NumBuckets: 400})
		if err != nil {
			t.Fatal(err)
		}
		coarseGaps += exact - coarse.JQ
		fineGaps += exact - fine.JQ
	}
	if fineGaps > coarseGaps {
		t.Fatalf("aggregate gap grew with resolution: coarse %v, fine %v", coarseGaps, fineGaps)
	}
}

func TestErrorBound(t *testing.T) {
	// upper < 5, d = 200 ⇒ bound = e^{5/800} − 1 < 0.627%.
	n := 7
	bound := ErrorBound(n, 5, 200*n)
	if bound >= 0.00627 {
		t.Fatalf("bound = %v, want < 0.627%%", bound)
	}
	if ErrorBound(0, 5, 100) != 0 || ErrorBound(5, 0, 100) != 0 || ErrorBound(5, 5, 0) != 0 {
		t.Fatal("degenerate ErrorBound inputs should yield 0")
	}
	// Bound grows with n at fixed buckets.
	if ErrorBound(10, 5, 100) <= ErrorBound(5, 5, 100) {
		t.Fatal("bound should grow with n")
	}
}

func TestEstimateReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	qs := make([]float64, 40)
	for i := range qs {
		qs[i] = 0.5 + 0.45*rng.Float64()
	}
	p := pool(qs...)
	// Warm the pool.
	if _, err := Estimate(p, 0.5, Options{NumBuckets: 50}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Estimate(p, 0.5, Options{NumBuckets: 50}); err != nil {
			t.Fatal(err)
		}
	})
	// Without pooling the DP's run slices would dominate; with pooling only
	// small fixed allocations (worker copies, sort) remain.
	if allocs > 15 {
		t.Fatalf("allocations per Estimate = %v, want ≤ 15", allocs)
	}
}
