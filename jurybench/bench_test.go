package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"repro/internal/multichoice"
	"repro/internal/selection"
	"repro/internal/server"
	"repro/jury/serve"
)

func TestScriptSameSeedSameRequests(t *testing.T) {
	for name := range mainKind {
		a, b := newScript(name, 42, streamMeasure), newScript(name, 42, streamMeasure)
		other := newScript(name, 43, streamMeasure)
		differs := false
		for i := 0; i < 300; i++ {
			x, y, z := a.next(), b.next(), other.next()
			if x != y {
				t.Fatalf("%s: request %d differs for one seed: %+v vs %+v", name, i, x, y)
			}
			differs = differs || x != z
		}
		if !differs {
			t.Errorf("%s: seeds 42 and 43 gave the same 300 requests", name)
		}
	}
	if !slices.Equal(binaryPool(5, 32, "w"), binaryPool(5, 32, "w")) {
		t.Error("binary pool differs for one seed")
	}
	p1, p2 := multiPoolSpecs(5), multiPoolSpecs(5)
	for i := range p1 {
		if p1[i].ID != p2[i].ID || *p1[i].Quality != *p2[i].Quality || p1[i].Cost != p2[i].Cost {
			t.Fatalf("multi pool worker %d differs for one seed", i)
		}
	}
	v1, v2 := prebuildVotes(5), prebuildVotes(5)
	for i := range v1 {
		if !slices.Equal(v1[i], v2[i]) {
			t.Fatalf("seeded journal batch %d differs for one seed", i)
		}
	}
}

func TestSelectScriptShape(t *testing.T) {
	s := newScript("select-128", 1, streamMeasure)
	seeds := map[int64]bool{}
	for round := 0; round < 100; round++ {
		var budgets []float64
		for range selectBudgets {
			o := s.next()
			if seeds[o.seed] {
				t.Fatalf("seed %d repeats: the request could hit the cache", o.seed)
			}
			seeds[o.seed] = true
			budgets = append(budgets, o.budget)
		}
		slices.Sort(budgets)
		if !slices.Equal(budgets, selectBudgets[:]) {
			t.Fatalf("round %d budgets %v, want each of %v once", round, budgets, selectBudgets)
		}
	}
}

func TestIngestScriptShape(t *testing.T) {
	s := newScript("ingest-fsync", 1, streamMeasure)
	quiet := quietIDs(1)
	keys := map[string]bool{}
	for i := 0; i < 400; i++ {
		o := s.next()
		if i%4 == 3 {
			if o.kind != opRead {
				t.Fatalf("request %d is %v, want every 4th a read", i, o.kind)
			}
			continue
		}
		if o.kind != opIngest || slices.Contains(quiet, o.vote.WorkerID) || keys[o.key] {
			t.Fatalf("request %d: %+v is not a fresh-keyed ingest on a busy worker", i, o)
		}
		keys[o.key] = true
	}
}

func TestPercentileRule(t *testing.T) {
	vals := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if v, ok := percentile(vals(1000), 99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(vals(999), 99); ok {
		t.Error("p99 of 999 samples has 9 beyond it and must not qualify")
	}
	if _, ok := percentile(vals(500), 98); !ok {
		t.Error("p98 of 500 samples has 10 beyond it and qualifies")
	}
	if v, ok := percentile(vals(3), 50); v != 2 || !ok {
		t.Errorf("median of 1..3 = %v, %v", v, ok)
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("no samples, no median")
	}
}

func TestWindowedP99(t *testing.T) {
	lat := func(n int, ms time.Duration) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = ms * time.Millisecond
		}
		return out
	}
	if _, ok := windowedP99(lat(999, 1)); ok {
		t.Error("999 samples cannot back a p99")
	}
	if v, ok := windowedP99(lat(1500, 2)); v != 2 || !ok {
		t.Errorf("one window of 1500 = %v, %v", v, ok)
	}
	// A burst of slow requests in the middle third moves that window's
	// p99 only; the median of the three windows ignores it.
	burst := append(append(lat(1200, 1), lat(1200, 50)...), lat(1200, 1)...)
	if v, _ := windowedP99(burst); v != 1 {
		t.Errorf("burst in one window moved the p99 to %v", v)
	}
	if v, _ := percentile(msSorted(burst), 99); v != 50 {
		t.Errorf("whole-phase p99 = %v; the burst should set it", v)
	}
}

func TestHistQuantile(t *testing.T) {
	text := `juryd_stage_duration_seconds_bucket{stage="apply",le="0.001"} 10
juryd_stage_duration_seconds_bucket{stage="apply",le="0.002"} 30
juryd_stage_duration_seconds_bucket{stage="apply",le="+Inf"} 40
juryd_stage_duration_seconds_sum{stage="apply"} 0.05
juryd_stage_duration_seconds_count{stage="apply"} 40
`
	p := parseProm(text)
	if got := p.stageQuantile("apply", 0.5); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("median = %v, want 0.0015 (halfway through the second bucket)", got)
	}
	if got := p.stageQuantile("apply", 0.99); got != 0.002 {
		t.Errorf("p99 in +Inf reports the last finite bound, got %v", got)
	}
	if got := p.stageQuantile("evaluate", 0.5); got != 0 {
		t.Errorf("absent stage = %v, want 0", got)
	}
	if got := p.delta(parseProm(text)).stageSum("apply"); got != 0 {
		t.Errorf("delta of a scrape with itself = %v", got)
	}
}

// TestNamesMatchBenchmarkJSON keeps the metric tables, BENCHMARK.json and
// daemons.json in step.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program emits %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			if d.name != listed[i].Name || d.unit != listed[i].Unit {
				t.Errorf("%s %d: program emits %s [%s], BENCHMARK.json lists %s [%s]",
					kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
			if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || seen[d.name] {
				t.Errorf("%s: bad or repeated name %q or unit %q", kind, d.name, d.unit)
			}
			seen[d.name] = true
		}
	}
	compare("end_to_end", endToEnd, doc.EndToEnd)
	compare("per_layer", perLayer, doc.PerLayer)

	var flags daemonFlags
	if err := json.Unmarshal(daemonsJSON, &flags); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("bad or repeated workload name %q", w.Name)
		}
		seen[w.Name] = true
		if _, ok := mainKind[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
		if _, err := flags.args(w.Name, "primary", false); err != nil {
			t.Error(err)
		}
	}
	if len(doc.Workloads) != len(mainKind) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(mainKind))
	}
	if got := render(perLayer, metricSet{"jq.evals": 3}); len(got) != len(perLayer) || got["jq.evals"].Value != 3 {
		t.Errorf("render dropped or changed metrics: %v", got)
	}
}

// answer renders an in-process selection the way juryd does.
func answer(res selection.Result, ids []string, budget float64) serve.SelectResponse {
	out := serve.SelectResponse{JQ: res.JQ, Cost: res.Cost, Budget: budget}
	for _, idx := range res.Indices {
		out.Jury = append(out.Jury, serve.JuryMember{ID: ids[idx]})
	}
	return out
}

func TestCheckBinaryRejectsDoctoredAnswers(t *testing.T) {
	pool, ids := asPool(binaryPool(3, 40, "w"))
	const budget, seed = 10, 77
	want, err := selection.OPTJS(seed).Select(pool, budget, defaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkBinary(want, ids, budget, answer(want, ids, budget)); err != nil {
		t.Fatalf("faithful answer rejected: %v", err)
	}
	doctor := map[string]func(*serve.SelectResponse){
		"JQ one ULP up":   func(r *serve.SelectResponse) { r.JQ = math.Nextafter(r.JQ, 2) },
		"JQ one ULP down": func(r *serve.SelectResponse) { r.JQ = math.Nextafter(r.JQ, 0) },
		"over budget":     func(r *serve.SelectResponse) { r.Cost = budget + 1 },
		"member swapped":  func(r *serve.SelectResponse) { r.Jury[0].ID = "nobody" },
		"member dropped":  func(r *serve.SelectResponse) { r.Jury = r.Jury[1:] },
	}
	for name, f := range doctor {
		got := answer(want, ids, budget)
		f(&got)
		if checkBinary(want, ids, budget, got) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBinaryPassLayeredMatches(t *testing.T) {
	pool, ids := asPool(binaryPool(3, selectPoolSize, "w"))
	var samples []binarySample
	for i, b := range selectBudgets {
		seed := int64(100 + i)
		res, err := selection.OPTJS(seed).Select(pool, b, defaultAlpha)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, binarySample{b, seed, answer(res, ids, b)})
	}
	out := metricSet{}
	if err := binaryPass(pool, ids, samples, defaultAlpha, true, out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"selection.select_ms_p50", "selection.evals_per_select", "jq.evals", "jq.dp_keys_per_eval"} {
		if out[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, out[name])
		}
	}
	samples[1].resp.JQ = math.Nextafter(samples[1].resp.JQ, 0)
	if binaryPass(pool, ids, samples, defaultAlpha, false, metricSet{}) == nil {
		t.Error("pass accepted a JQ one ULP off")
	}
}

func TestMultiChecksRejectDoctoredAnswers(t *testing.T) {
	pool, ids, err := asMultiPool(multiPoolSpecs(3))
	if err != nil {
		t.Fatal(err)
	}
	prior := multichoice.UniformPrior(multiLabels)
	res, err := multichoice.SelectAnnealing(pool[:8], 6, prior, multichoice.EstimateObjective(0), 9)
	if err != nil {
		t.Fatal(err)
	}
	good := multiAnswer(res, ids)
	if err := checkMultiBounds(pool, ids, prior, 6, good); err != nil {
		t.Fatalf("faithful answer rejected: %v", err)
	}
	if err := checkMultiSame(good, multiAnswer(res, ids)); err != nil {
		t.Fatalf("identical answers rejected: %v", err)
	}
	doctor := map[string]func(*serve.MultiSelectResponse){
		"over budget":      func(r *serve.MultiSelectResponse) { r.Cost = 7 },
		"JQ below prior":   func(r *serve.MultiSelectResponse) { r.JQ = 0.3 },
		"JQ above 1":       func(r *serve.MultiSelectResponse) { r.JQ = 1.01 },
		"unknown member":   func(r *serve.MultiSelectResponse) { r.Jury[0].ID = "nobody" },
		"member twice":     func(r *serve.MultiSelectResponse) { r.Jury = append(r.Jury, r.Jury[0]) },
		"cost not members": func(r *serve.MultiSelectResponse) { r.Cost -= 0.5 },
	}
	for name, f := range doctor {
		got := multiAnswer(res, ids)
		f(&got)
		if checkMultiBounds(pool, ids, prior, 6, got) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	repeat := multiAnswer(res, ids)
	repeat.JQ = math.Nextafter(repeat.JQ, 0)
	if checkMultiSame(good, repeat) == nil {
		t.Error("a repeat one ULP off was accepted")
	}
	repeat = multiAnswer(res, ids)
	repeat.Jury = append([]server.MultiJuryMember{{ID: ids[len(ids)-1]}}, repeat.Jury[1:]...)
	if checkMultiSame(good, repeat) == nil {
		t.Error("a repeat with another jury was accepted")
	}
}

func TestLedgerAndConvergenceChecks(t *testing.T) {
	want := map[string]tally{"a": {5, 3}, "b": {0, 0}}
	good := []serve.WorkerInfo{{ID: "a", Votes: 5, Correct: 3}, {ID: "b"}}
	if err := checkLedger("primary", want, good); err != nil {
		t.Fatalf("matching counts rejected: %v", err)
	}
	for name, got := range map[string][]serve.WorkerInfo{
		"lost vote":      {{ID: "a", Votes: 4, Correct: 3}, {ID: "b"}},
		"double applied": {{ID: "a", Votes: 6, Correct: 4}, {ID: "b"}},
		"wrong grade":    {{ID: "a", Votes: 5, Correct: 2}, {ID: "b"}},
		"stray votes":    {{ID: "a", Votes: 5, Correct: 3}, {ID: "b"}, {ID: "c", Votes: 1}},
	} {
		if checkLedger("primary", want, got) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	p := serve.PersistenceStatus{NextLSN: 9, StateSHA256: "abc"}
	if err := checkConverged(p, p); err != nil {
		t.Fatalf("equal nodes rejected: %v", err)
	}
	if checkConverged(p, serve.PersistenceStatus{NextLSN: 8, StateSHA256: "abc"}) == nil {
		t.Error("a follower one record behind was accepted")
	}
	if checkConverged(p, serve.PersistenceStatus{NextLSN: 9, StateSHA256: "abd"}) == nil {
		t.Error("a follower with other state was accepted")
	}
}

func TestCheckReadRejectsDoctoredAnswers(t *testing.T) {
	quiet := []string{"q1", "q2", "q3"}
	first := serve.SelectResponse{Jury: []serve.JuryMember{{ID: "q1"}, {ID: "q3"}}, JQ: 0.9, Cost: 5}
	if err := checkRead(quiet, 6, &first, first); err != nil {
		t.Fatalf("same answer rejected: %v", err)
	}
	for name, got := range map[string]serve.SelectResponse{
		"outside the subset": {Jury: []serve.JuryMember{{ID: "q1"}, {ID: "w9"}}, JQ: 0.9, Cost: 5},
		"over budget":        {Jury: first.Jury, JQ: 0.9, Cost: 7},
		"changed JQ":         {Jury: first.Jury, JQ: math.Nextafter(0.9, 1), Cost: 5},
		"changed jury":       {Jury: []serve.JuryMember{{ID: "q2"}, {ID: "q3"}}, JQ: 0.9, Cost: 5},
	} {
		if checkRead(quiet, 6, &first, got) == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestMirrorBoolFlags(t *testing.T) {
	var cfg server.Config
	mirrorBoolFlags(&cfg, []string{"-fsync", "-group-commit", "-max-batch-bytes", "0", "-no-such-flag"})
	if !cfg.Fsync || !cfg.GroupCommit {
		t.Errorf("Fsync %v GroupCommit %v, want both set", cfg.Fsync, cfg.GroupCommit)
	}
	if cfg.MaxBatchBytes != 0 {
		t.Errorf("non-bool flag touched: %d", cfg.MaxBatchBytes)
	}
}
