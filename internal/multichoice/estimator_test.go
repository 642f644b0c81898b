package multichoice

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// estimatorCase draws a random (pool, prior, numBuckets) with the shapes
// that stress the DP: ℓ from 2 to 5, zero confusion and prior entries
// (clamped at logFloor), near-blind workers and coarse to fine buckets.
func estimatorCase(rng *rand.Rand) (Pool, Prior, int) {
	l := 2 + rng.Intn(4)
	n := 1 + rng.Intn(7-l/2)
	pool := make(Pool, n)
	for i := range pool {
		m := make(ConfusionMatrix, l)
		base := make([]float64, l)
		for k := range base {
			base[k] = rng.Float64()
		}
		kind := rng.Intn(4)
		for j := range m {
			m[j] = make([]float64, l)
			var sum float64
			for k := range m[j] {
				switch kind {
				case 0: // dense
					m[j][k] = 0.05 + rng.Float64()
				case 1: // sparse: some entries exactly zero
					if rng.Intn(3) > 0 {
						m[j][k] = rng.Float64()
					}
				case 2: // near-blind: every row close to one distribution
					m[j][k] = base[k] + 1e-3*rng.Float64()
				default: // diagonal-heavy
					m[j][k] = 0.1 * rng.Float64()
					if j == k {
						m[j][k] += 1
					}
				}
				sum += m[j][k]
			}
			if sum == 0 {
				m[j][j], sum = 1, 1
			}
			for k := range m[j] {
				m[j][k] /= sum
			}
		}
		pool[i] = Worker{Confusion: m, Cost: 0.1 + rng.Float64()}
	}
	prior := make(Prior, l)
	var sum float64
	for i := range prior {
		if rng.Intn(4) > 0 {
			prior[i] = rng.Float64()
			sum += prior[i]
		}
	}
	if sum == 0 {
		prior[rng.Intn(l)], sum = 1, 1
	}
	for i := range prior {
		prior[i] /= sum
	}
	buckets := []int{0, 1, 3, 17, 50, 400}[rng.Intn(6)]
	return pool, prior, buckets
}

// referenceSafe reports whether referenceEstimateBV keeps every margin
// inside int32 for this jury: no base margin plus n·numBuckets of steps
// can overflow. Only there is it a reference at all.
func referenceSafe(pool Pool, prior Prior, numBuckets int) bool {
	if numBuckets == 0 {
		numBuckets = DefaultEstimateBuckets
	}
	var upper float64
	for _, w := range pool {
		for t1 := range prior {
			for t2 := range prior {
				for v := range prior {
					d := math.Abs(math.Log(math.Max(w.Confusion[t1][v], logFloor)) -
						math.Log(math.Max(w.Confusion[t2][v], logFloor)))
					upper = math.Max(upper, d)
				}
			}
		}
	}
	if upper == 0 {
		return true
	}
	delta := upper / float64(numBuckets)
	for _, p := range prior {
		for _, q := range prior {
			base := math.Round((math.Log(math.Max(p, logFloor)) - math.Log(math.Max(q, logFloor))) / delta)
			if math.Abs(base)+float64(len(pool)*numBuckets) > math.MaxInt32 {
				return false
			}
		}
	}
	return true
}

// checkEstimatorCase compares EstimateBV and a memoizing Estimator with
// the pre-Estimator reference, bit for bit, on the whole pool and on
// shuffled sub-juries (each scored twice, so the second is a memo hit).
func checkEstimatorCase(t *testing.T, rng *rand.Rand, pool Pool, prior Prior, buckets int) {
	t.Helper()
	if referenceSafe(pool, prior, buckets) {
		want, err := referenceEstimateBV(pool, prior, buckets)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EstimateBV(pool, prior, buckets)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("EstimateBV = %v, reference %v (ℓ=%d n=%d buckets=%d prior=%v)",
				got, want, len(prior), len(pool), buckets, prior)
		}
	}
	est, err := NewEstimator(pool, prior, buckets)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		jury := rng.Perm(len(pool))[:1+rng.Intn(len(pool))]
		sorted := append([]int(nil), jury...)
		sort.Ints(sorted)
		sub := pool.Subset(sorted)
		if !referenceSafe(sub, prior, buckets) {
			continue
		}
		want, err := referenceEstimateBV(sub, prior, buckets)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			got, err := est.Eval(jury)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Estimator.Eval(%v) pass %d = %v, reference %v (ℓ=%d buckets=%d prior=%v)",
					jury, pass, got, want, len(prior), buckets, prior)
			}
		}
	}
	if est.hits == 0 {
		t.Fatal("no evaluation was answered from the memo")
	}
}

func TestEstimatorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 300; i++ {
		pool, prior, buckets := estimatorCase(rng)
		checkEstimatorCase(t, rng, pool, prior, buckets)
	}
}

// Keys pack two margins per word, so label counts far past the property
// test's 5 — odd and even ℓ−1, up to the server's 64 — take multi-word
// keys and a padded half-word; they must match the reference too.
func TestEstimatorMatchesReferenceWideLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, l := range []int{6, 9, 17, 64} {
		for trial := 0; trial < 3; trial++ {
			n := 1
			if l < 20 {
				n = 2 // the reference's ℓ^n states stay small
			}
			pool := make(Pool, n)
			for i := range pool {
				pool[i] = randomWorker(rng, l)
			}
			checkEstimatorCase(t, rng, pool, randomPrior(rng, l), []int{0, 3}[trial%2])
		}
	}
}

func FuzzEstimatorMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		pool, prior, buckets := estimatorCase(rng)
		checkEstimatorCase(t, rng, pool, prior, buckets)
	})
}

// EstimateBV recycles its scratch through a sync.Pool; concurrent calls
// must neither share it nor change any result.
func TestEstimateBVConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	type input struct {
		pool    Pool
		prior   Prior
		buckets int
		want    float64
	}
	inputs := make([]input, 32)
	for i := range inputs {
		pool, prior, buckets := estimatorCase(rng)
		want, err := EstimateBV(pool, prior, buckets)
		if err != nil {
			t.Fatal(err)
		}
		inputs[i] = input{pool, prior, buckets, want}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range inputs {
				in := inputs[(k+8*g)%len(inputs)]
				got, err := EstimateBV(in.pool, in.prior, in.buckets)
				if err != nil || math.Float64bits(got) != math.Float64bits(in.want) {
					t.Errorf("concurrent EstimateBV = %v, %v; want %v", got, err, in.want)
				}
			}
		}()
	}
	wg.Wait()
}

func TestEstimatorEvalRejectsBadIndices(t *testing.T) {
	est, err := NewEstimator(symPool(3, 0.7, 0.8), UniformPrior(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, jury := range [][]int{{0, 0}, {2}, {-1}} {
		if _, err := est.Eval(jury); !errors.Is(err, ErrArity) {
			t.Errorf("Eval(%v): err = %v, want ErrArity", jury, err)
		}
	}
	got, err := est.Eval(nil)
	if err != nil || got != 1.0/3 {
		t.Fatalf("Eval(empty) = %v, %v; want the prior's maximum", got, err)
	}
}

// Regression: margins are int32 bucket counts, so a resolution of 2^30
// buckets overflowed them; on this pool the estimate was 0.188 against an
// exact 0.99.
func TestEstimateBVRejectsHugeBuckets(t *testing.T) {
	pool := symPool(3, 0.9, 0.85, 0.8, 0.75, 0.7, 0.65)
	prior := Prior{0.6, 0.3, 0.1}
	for _, b := range []int{MaxEstimateBuckets + 1, 1 << 30} {
		if _, err := EstimateBV(pool, prior, b); !errors.Is(err, ErrBadBuckets) {
			t.Errorf("EstimateBV(buckets=%d): err = %v, want ErrBadBuckets", b, err)
		}
		if _, err := NewEstimator(pool, prior, b); !errors.Is(err, ErrBadBuckets) {
			t.Errorf("NewEstimator(buckets=%d): err = %v, want ErrBadBuckets", b, err)
		}
	}
	exact, err := ExactBV(pool, prior)
	if err != nil {
		t.Fatal(err)
	}
	got, err := EstimateBV(pool, prior, MaxEstimateBuckets)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-exact) > 1e-3 {
		t.Fatalf("EstimateBV at MaxEstimateBuckets = %v, exact %v", got, exact)
	}
}

// Regression: two workers whose confusion rows differ by 1e-9 make the
// bucket width tiny, and the prior's base margin ln(p_t/p_j)/Δ overflowed
// int32: EstimateBV returned 0.306, below even the prior-only answer 0.6.
func TestEstimateBVNearBlindWorkersMatchExact(t *testing.T) {
	near := func(eps float64) Worker {
		return Worker{Confusion: ConfusionMatrix{
			{0.5 + eps, 0.3 - eps, 0.2},
			{0.5, 0.3, 0.2},
			{0.5, 0.3, 0.2},
		}, Cost: 1}
	}
	for _, prior := range []Prior{{0.6, 0.3, 0.1}, {0.1, 0.3, 0.6}, {0.3, 0.6, 0.1}} {
		for _, pool := range []Pool{{near(1e-9), near(1e-9)}, {near(1e-9), near(2e-9), near(0)}} {
			exact, err := ExactBV(pool, prior)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []int{0, 1, 1000} {
				got, err := EstimateBV(pool, prior, b)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(got-exact) > 1e-6 {
					t.Errorf("prior %v, %d workers, buckets %d: EstimateBV = %v, exact %v",
						prior, len(pool), b, got, exact)
				}
			}
		}
	}
}
