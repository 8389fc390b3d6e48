package fleet

// Per-backend state: the pooled raw HTTP/1.1 connections every proxied hop
// and probe uses, the pooled wire-protocol connections, and the health view
// the eligibility predicate reads on every routing decision.
//
// Health is two signals, updated two ways. The prober polls /readyz: 200
// means ready, a 503 "draining" body means the backend is shutting down
// gracefully (alive — it finishes what it holds — but must receive no new
// keys), anything else means not ready. The proxy path adds a reactive
// edge: a failed fresh dial marks the backend not-ready immediately,
// without waiting out a probe interval, so the retry-with-reroute and every
// subsequent routing decision steer around it at once; the prober's next
// 200 brings it back. Backends start optimistically ready so the router
// serves before the first probe completes.

import (
	"bytes"
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"sentinel/internal/obs"
	"sentinel/internal/rawhttp"
	"sentinel/internal/wire"
)

// Connection limits for every backend.
const (
	dialTimeout  = 2 * time.Second
	httpPoolSize = 64 // idle raw HTTP/1.1 connections
	wirePoolSize = 4  // idle wire-protocol connections
)

// backend is one sentineld process behind the router.
type backend struct {
	addr string // host:port, as configured (ring placement hashes this)

	httpConns *rawhttp.Pool // proxied HTTP hops and /readyz probes
	wireConns *rawhttp.Pool // wire-protocol exchanges

	ready    atomic.Bool  // last probe (or reactive edge) verdict
	draining atomic.Bool  // /readyz said "draining"
	failures atomic.Int32 // consecutive failed probes
	inflight atomic.Int64 // proxied requests + wire exchanges in flight

	// Per-backend routing counters. Standalone by default ( /fleet/status
	// reads them); a configured registry replaces them with its own so they
	// appear in /metrics too.
	hashed  *obs.Counter // requests routed here as ring owner
	spilled *obs.Counter // hot-key requests spilled here
}

// newBackend builds the backend handle and its connection pools.
func newBackend(addr string) *backend {
	b := &backend{
		addr:      addr,
		httpConns: rawhttp.NewPool(addr, httpPoolSize, 8<<10, dialTimeout),
		wireConns: rawhttp.NewPool(addr, wirePoolSize, wire.SniffBufSize, dialTimeout),
		hashed:    new(obs.Counter),
		spilled:   new(obs.Counter),
	}
	b.ready.Store(true)
	return b
}

// eligible reports whether new keys may route here.
func (b *backend) eligible() bool { return b.ready.Load() && !b.draining.Load() }

// probeLoop polls every backend until stop closes. One goroutine per
// router; backends are probed concurrently within a round so one hung
// backend cannot delay the verdict on the others.
func (rt *Router) probeLoop() {
	defer rt.probeWG.Done()
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stopProbe:
			return
		case <-tick.C:
			done := make(chan struct{}, len(rt.backends))
			for _, b := range rt.backends {
				go func(b *backend) { rt.probe(b); done <- struct{}{} }(b)
			}
			for range rt.backends {
				<-done
			}
		}
	}
}

// probe polls one backend's /readyz over the hop's own pool and folds the
// verdict into its health state, logging transitions.
func (rt *Router) probe(b *backend) {
	var resp rawhttp.Response
	req := rawhttp.AppendRequest(nil, "GET", "/readyz", "", b.addr, nil, nil)
	c, err := b.httpConns.Do(context.Background(), time.Now().Add(rt.cfg.ProbeTimeout), req, false, &resp)
	var body []byte
	if err == nil {
		body, err = resp.AppendBody(nil, maxRawRespBytes)
		b.httpConns.Release(c, &resp)
	}
	if err != nil {
		if int(b.failures.Add(1)) >= rt.cfg.FailureThreshold && b.ready.Swap(false) {
			rt.logf("fleet: backend %s unhealthy (%d consecutive probe failures): %v",
				b.addr, b.failures.Load(), err)
		}
		return
	}
	switch {
	case resp.Status == http.StatusOK:
		b.failures.Store(0)
		wasDraining := b.draining.Swap(false)
		if !b.ready.Swap(true) || wasDraining {
			rt.logf("fleet: backend %s ready", b.addr)
		}
	case isDrainingBody(body):
		// Alive but going away: stop sending new keys, let it finish.
		b.failures.Store(0)
		if !b.draining.Swap(true) {
			rt.logf("fleet: backend %s draining; rerouting new keys", b.addr)
		}
	default:
		// Warming or otherwise not ready: ineligible immediately (no
		// failure threshold — the backend itself said not-ready).
		b.failures.Store(0)
		if b.ready.Swap(false) {
			rt.logf("fleet: backend %s not ready (%d %s)", b.addr, resp.Status,
				bytes.TrimSpace(body))
		}
	}
}

// isDrainingBody reports whether a /readyz or refusal body marks a
// draining backend: the plain-text "draining" readiness body, or the
// quoted "draining" kind wherever it sits inside a JSON envelope — not
// just in the first 64 bytes.
func isDrainingBody(body []byte) bool {
	return bytes.HasPrefix(bytes.TrimSpace(body), []byte("draining")) ||
		bytes.Contains(body, []byte(`"draining"`))
}

// noteDialFailure is the reactive unhealthy edge: a hop whose fresh dial
// failed marks the backend down now, so the current request's retry
// and every following routing decision avoid it until a probe succeeds.
func (rt *Router) noteDialFailure(b *backend) {
	b.failures.Store(int32(rt.cfg.FailureThreshold))
	if b.ready.Swap(false) {
		rt.logf("fleet: backend %s unreachable; rerouting", b.addr)
	}
}
