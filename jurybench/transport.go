package main

import (
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
)

// countingTransport sits under the jury/serve client and counts what
// that layer did on the wire: attempts beyond the first of one logical
// call (the client reuses the call's X-Request-Id on every attempt) and
// 421 redirects it followed.
type countingTransport struct {
	base http.RoundTripper

	mu        sync.Mutex
	attempts  map[string]int
	last421   map[string]bool
	retries   int
	redirects int
}

func newCountingTransport() *countingTransport {
	return &countingTransport{
		base: &http.Transport{
			MaxIdleConnsPerHost: 2 * clients,
			IdleConnTimeout:     time.Minute,
		},
		attempts: map[string]int{},
		last421:  map[string]bool{},
	}
}

func (t *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := r.Header.Get(obs.RequestIDHeader)
	t.mu.Lock()
	if n := t.attempts[id]; n > 0 {
		if t.last421[id] {
			t.redirects++
		} else {
			t.retries++
		}
	}
	t.attempts[id]++
	t.mu.Unlock()
	resp, err := t.base.RoundTrip(r)
	t.mu.Lock()
	t.last421[id] = err == nil && resp.StatusCode == http.StatusMisdirectedRequest
	t.mu.Unlock()
	return resp, err
}

// counts returns the retries and followed redirects so far.
func (t *countingTransport) counts() (retries, redirects int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.retries, t.redirects
}

// close drops idle connections so daemons can be killed cleanly.
func (t *countingTransport) close() {
	if tr, ok := t.base.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
}

// clientSpan is the benchmark's own span around one call into
// jury/serve: kept in memory during the run and written when it ends.
type clientSpan struct {
	ID      string  `json:"id"`
	Op      string  `json:"op"`
	StartMs float64 `json:"start_ms"` // since the phase began
	DurMs   float64 `json:"dur_ms"`
	OK      bool    `json:"ok"`
	// ServerMs is the daemon's own duration for the same X-Request-Id,
	// when its trace ring still held it at the end of the run.
	ServerMs float64 `json:"server_ms,omitempty"`
}
