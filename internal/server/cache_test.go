package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

func key(sig string, budget float64) SelectionKey {
	return SelectionKey{Signature: sig, Strategy: "bv", Budget: budget, Alpha: 0.5, Seed: 1}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewSelectionCache(8)
	k := key("sig1", 10)
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k, selectionEntry{JQ: 0.9})
	res, ok := c.Get(k)
	if !ok || res.JQ != 0.9 {
		t.Fatalf("Get after Put = %+v, %v", res, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheKeyDiscriminates(t *testing.T) {
	c := NewSelectionCache(8)
	base := SelectionKey{Signature: "sig", Strategy: "bv", Budget: 10, Alpha: 0.5, Seed: 1}
	c.Put(base, selectionEntry{JQ: 1})
	variants := []SelectionKey{
		{Signature: "sig2", Strategy: "bv", Budget: 10, Alpha: 0.5, Seed: 1},
		{Signature: "sig", Strategy: "mv", Budget: 10, Alpha: 0.5, Seed: 1},
		{Signature: "sig", Strategy: "bv", Budget: 11, Alpha: 0.5, Seed: 1},
		{Signature: "sig", Strategy: "bv", Budget: 10, Alpha: 0.6, Seed: 1},
		{Signature: "sig", Strategy: "bv", Budget: 10, Alpha: 0.5, Seed: 2},
	}
	for _, k := range variants {
		if _, ok := c.Get(k); ok {
			t.Fatalf("key %v aliased with %v", k, base)
		}
	}
	if _, ok := c.Get(base); !ok {
		t.Fatal("base key lost")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewSelectionCache(2)
	c.Put(key("s", 1), selectionEntry{JQ: 1})
	c.Put(key("s", 2), selectionEntry{JQ: 2})
	if _, ok := c.Get(key("s", 1)); !ok { // promote budget 1
		t.Fatal("entry 1 missing")
	}
	c.Put(key("s", 3), selectionEntry{JQ: 3}) // evicts budget 2 (LRU)
	if _, ok := c.Get(key("s", 2)); ok {
		t.Fatal("LRU entry not evicted")
	}
	if _, ok := c.Get(key("s", 1)); !ok {
		t.Fatal("promoted entry evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewSelectionCache(-1)
	c.Put(key("s", 1), selectionEntry{JQ: 1})
	if _, ok := c.Get(key("s", 1)); ok {
		t.Fatal("disabled cache served an entry")
	}
}

// TestServerCacheInvalidationOnDrift is the acceptance-criteria test at the
// server level: a repeated selection on an unchanged pool hits the cache,
// and a quality-changing vote ingest invalidates it (the recompute sees
// the drifted pool).
func TestServerCacheInvalidationOnDrift(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1})
	if _, err := s.registry.Register(context.Background(), specs3(), 0); err != nil {
		t.Fatal(err)
	}
	req := SelectRequest{Budget: 6}

	first, err := s.selectOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first selection claims to be cached")
	}
	second, err := s.selectOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("repeated selection on unchanged pool was not served from cache")
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache counters = %+v, want 1 hit / 1 miss", st)
	}
	if second.JQ != first.JQ || second.Signature != first.Signature {
		t.Fatalf("cached result differs: %+v vs %+v", second, first)
	}

	// Quality-changing ingest: the pool signature drifts, so the cached
	// jury is unreachable and the next selection recomputes.
	if _, _, err := s.registry.Ingest(context.Background(), []VoteEvent{{WorkerID: "a", Correct: false}}); err != nil {
		t.Fatal(err)
	}
	third, err := s.selectOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Cached {
		t.Fatal("selection after quality drift was served from a stale cache entry")
	}
	if third.Signature == first.Signature {
		t.Fatal("signature did not change after ingest")
	}
	if st := s.CacheStats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("cache counters after drift = %+v, want 1 hit / 2 misses", st)
	}
}

// TestConcurrentIngestAndSelect exercises the registry/cache pair under
// concurrent quality drift and selection; run with -race it is the
// subsystem's data-race gate.
func TestConcurrentIngestAndSelect(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 1, CacheSize: 64})
	specs := make([]WorkerSpec, 12)
	for i := range specs {
		specs[i] = WorkerSpec{
			ID:      fmt.Sprintf("w%d", i),
			Quality: 0.55 + 0.03*float64(i%10),
			Cost:    1 + float64(i%4),
		}
	}
	if _, err := s.registry.Register(context.Background(), specs, 0); err != nil {
		t.Fatal(err)
	}
	const perWorker = 30
	var wg sync.WaitGroup
	errs := make(chan error, 4*perWorker)
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ev := VoteEvent{WorkerID: fmt.Sprintf("w%d", (g*7+i)%len(specs)), Correct: i%3 != 0}
				if _, _, err := s.registry.Ingest(context.Background(), []VoteEvent{ev}); err != nil {
					errs <- err
				}
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := s.selectOne(context.Background(), SelectRequest{Budget: float64(3 + (g+i)%5)}); err != nil {
					errs <- err
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := s.CacheStats()
	if st.Hits+st.Misses != 2*perWorker {
		t.Fatalf("lookup count = %d, want %d", st.Hits+st.Misses, 2*perWorker)
	}
}

// A cache hit rebuilds its response from the compact entry and the pool
// snapshot; its JSON must be byte-identical to the computed response's,
// except for "cached". Covers /v1/select, with and without a worker
// subset, and /v1/select/batch.
func TestCacheHitEncodesLikeComputed(t *testing.T) {
	s := New(Config{Alpha: 0.5, Seed: 3})
	specs := make([]WorkerSpec, 12)
	for i := range specs {
		specs[i] = WorkerSpec{ID: fmt.Sprintf("w%02d", 11-i), Quality: 0.55 + 0.035*float64(i), Cost: float64(1 + 3*i%5)}
	}
	if _, err := s.registry.Register(context.Background(), specs, 0); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	post := func(path, body string) []byte {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader([]byte(body))))
		if w.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", path, body, w.Code, w.Body)
		}
		return w.Body.Bytes()
	}
	cases := []struct{ path, body string }{
		{"/v1/select", `{"budget":9}`},
		{"/v1/select", `{"budget":7,"alpha":0.6,"strategy":"mv","seed":5}`},
		{"/v1/select", `{"budget":6,"worker_ids":["w07","w02","w10","w02","w05"]}`},
		{"/v1/select/batch", `{"budgets":[4,8,12],"strategy":"greedy"}`},
		{"/v1/select/batch", `{"budgets":[5,10],"worker_ids":["w09","w01","w03","w11"]}`},
	}
	for _, c := range cases {
		computed := post(c.path, c.body)
		cached := post(c.path, c.body)
		if !bytes.Contains(computed, []byte(`"cached":false`)) || bytes.Contains(computed, []byte(`"cached":true`)) {
			t.Fatalf("%s %s: first response was not computed: %s", c.path, c.body, computed)
		}
		if !bytes.Contains(cached, []byte(`"cached":true`)) || bytes.Contains(cached, []byte(`"cached":false`)) {
			t.Fatalf("%s %s: repeat was not a cache hit: %s", c.path, c.body, cached)
		}
		if asComputed := bytes.ReplaceAll(cached, []byte(`"cached":true`), []byte(`"cached":false`)); !bytes.Equal(asComputed, computed) {
			t.Fatalf("%s %s: cache hit encodes differently:\n computed %s\n cached   %s", c.path, c.body, computed, cached)
		}
	}
}
