package main

// serve_warm: direct sentineld traffic over the whole paper cell matrix.
// Set-up sends every key once, so every timed request is a response-cache
// hit: the work is in server, fingerprint, obs and net/http, and the
// simulator does nothing.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/fingerprint"
	"sentinel/internal/obs"
	"sentinel/internal/server"
)

// sendAll sends every key once to addr over nproc connections and checks
// each answer against want.
func sendAll(addr string, ks []key, want [][]byte) error {
	return parallelConns(addr, len(ks), func(c *conn, i int, buf []byte) ([]byte, error) {
		r, err := c.do(rawRequest("POST", ks[i].path, addr, ks[i].body), buf)
		if err != nil {
			return buf, err
		}
		if r.status != http.StatusOK || !bytes.Equal(r.body, want[i]) {
			return r.body, fmt.Errorf("set-up %s %s: status %d, body differs from the reference", ks[i].path, ks[i].body, r.status)
		}
		return r.body, nil
	})
}

// parallelConns runs fn(0..n-1) over nproc connections to addr.
func parallelConns(addr string, n int, fn func(c *conn, i int, buf []byte) ([]byte, error)) error {
	conns := make([]*conn, nproc)
	bufs := make([][]byte, nproc)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for w := range conns {
		c, err := dial(addr)
		if err != nil {
			return err
		}
		conns[w] = c
	}
	return parallelWorkers(n, func(w, i int) error {
		var err error
		bufs[w], err = fn(conns[w], i, bufs[w])
		return err
	})
}

// closedLoop runs work on goroutines, one per client, each told the shared
// deadline d from now, and waits for all of them.
func closedLoop(clients int, d time.Duration, work func(w int, deadline time.Time)) {
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w, deadline)
		}()
	}
	wg.Wait()
}

func runServeWarm(o opts) (*report, error) {
	rep := &report{correct: true}
	ks := keyspace()
	want, err := newReference().answerAll(ks)
	if err != nil {
		return nil, err
	}
	b, setup, err := timedSetup(func() (*backend, error) {
		b, err := startBackend()
		if err != nil {
			return nil, err
		}
		if err := waitReady(b.addr); err != nil {
			b.stop()
			return nil, err
		}
		if err := sendAll(b.addr, ks, want); err != nil {
			b.stop()
			return nil, err
		}
		return b, nil
	})
	if err != nil {
		return nil, err
	}
	defer b.stop()
	rep.setSetup(setup)

	reqs := make([][]byte, len(ks))
	for i, k := range ks {
		reqs[i] = rawRequest("POST", k.path, b.addr, k.body)
	}
	hits0, miss0 := gauge(b.reg, "server.respcache.hits"), gauge(b.reg, "server.respcache.misses")

	lats := make([]series, nproc)
	tallies := make([]tally, nproc)
	conns := make([]*conn, nproc)
	rs := make([]*rand.Rand, nproc)
	bufs := make([][]byte, nproc)
	for w := range conns {
		if conns[w], err = dial(b.addr); err != nil {
			return nil, err
		}
		defer conns[w].Close()
		rs[w] = newRand(o.seed, w)
	}
	p := beginPass(o.seconds)
	p.windows(nproc, func(w, u int) {
		i := rs[w].IntN(len(ks))
		t0 := time.Now()
		resp, err := conns[w].do(reqs[i], bufs[w])
		lats[w].record(u, int64(time.Since(t0)))
		bufs[w] = resp.body
		switch {
		case err != nil:
			tallies[w].fail("transport")
		case resp.status != http.StatusOK:
			tallies[w].fail(fmt.Sprintf("status_%d", resp.status))
		case !bytes.Equal(resp.body, want[i]):
			tallies[w].fail("wrong_bytes")
		default:
			tallies[w].ok()
		}
	})
	p.finish()
	for w := range tallies {
		rep.tally.merge(tallies[w])
	}
	s := rep.reportLatency(p, lats)
	rep.printE2E()
	hits, misses := gauge(b.reg, "server.respcache.hits")-hits0, gauge(b.reg, "server.respcache.misses")-miss0
	rep.logf("respcache: %d hits, %d misses in the timed phase", hits, misses)
	if !o.trace {
		return rep, nil
	}

	rep.setLayer("eval.cpu_util", p.cpuUtil, "ratio")
	rep.setLayer("server.respcache_hit_ratio", ratio(hits, hits+misses), "ratio")

	// Traced pass: the same request sequence, each request fingerprinted
	// and handed straight to the server's handler, no TCP.
	var wrong atomic.Int64
	tr := tracedHandlerPass(o, len(ks), func(t *tracer, w, i int, cw *captureWriter, scratch []byte) []byte {
		k := ks[i]
		req := newRequest(k.path, k.body)
		root := t.begin("request", -1)
		t.wrap("fingerprint.raw", root, func() { _, scratch = fingerprint.RawRequestInto(scratch, k.path, "", k.body) })
		t.wrap("server.handler", root, func() { b.srv.Handler().ServeHTTP(cw, req) })
		t.end(root)
		t.endOp()
		if cw.status != http.StatusOK || !bytes.Equal(cw.body.Bytes(), want[i]) {
			wrong.Add(1)
		}
		return scratch
	})
	if wrong.Load() > 0 {
		rep.correct = false
		rep.logf("traced pass: %d wrong answers", wrong.Load())
	}
	handler := tr.medianDur("server.handler")
	rep.setLayer("server.handler_ns", handler, "ns")
	rep.setLayer("fingerprint.raw_ns", tr.medianDur("fingerprint.raw"), "ns")
	rep.setLayer("server.transport_us", (s.p50-handler)/1e3, "us")
	rep.setLayer("server.allocs_per_op", allocsPerOp(b.srv.Handler(), ks, o.seed), "count")

	// obs.recorder_ns: the same handler timing on a twin server built
	// without the recorder, interleaved with the default one.
	bare := server.New(server.Config{MaxInFlight: 16, MaxQueue: 64, RequestTimeout: 30 * time.Second, Registry: obs.NewRegistry()})
	for i, k := range ks {
		if st, body := inProcess(bare.Handler(), "POST", k.path, k.body); st != http.StatusOK || !bytes.Equal(body, want[i]) {
			return nil, fmt.Errorf("recorder-free twin: %s %s answered %d", k.path, k.body, st)
		}
	}
	with, without := interleavedHandlerNs(b.srv.Handler(), bare.Handler(), ks, o.seed)
	rep.setLayer("obs.recorder_ns", with-without, "ns")
	rep.logf("handler median with recorder %.0f ns, without %.0f ns", with, without)

	rep.printSelfTimes(tr, "request", time.Duration(s.p50), tr.wall*time.Duration(nproc)/time.Duration(tr.ops))
	if err := rep.writeSpans(o, tr); err != nil {
		return nil, err
	}
	rep.finishLayers()
	return rep, nil
}

// newRequest builds an in-process POST.
func newRequest(path string, body []byte) *http.Request {
	req, _ := http.NewRequest("POST", path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// tracedHandlerPass runs nproc workers over the seeded key sequence for
// o.seconds; op records one traced request.
func tracedHandlerPass(o opts, nkeys int, op func(t *tracer, w, i int, cw *captureWriter, scratch []byte) []byte) traceResult {
	epoch := time.Now()
	tracers := make([]*tracer, nproc)
	for w := range tracers {
		tracers[w] = newTracer(epoch, w)
	}
	closedLoop(nproc, o.seconds, func(w int, deadline time.Time) {
		r := newRand(o.seed, w)
		var cw captureWriter
		var scratch []byte
		for time.Now().Before(deadline) {
			cw.reset()
			scratch = op(tracers[w], w, r.IntN(nkeys), &cw, scratch)
		}
	})
	return mergeTracers(time.Since(epoch), tracers...)
}

// allocsPerOp is the mean heap allocations per handled request over 4096
// requests of the seeded sequence, requests built beforehand.
func allocsPerOp(h http.Handler, ks []key, seed uint64) float64 {
	const n = 4096
	r := newRand(seed, 0)
	reqs := make([]*http.Request, n)
	for i := range reqs {
		k := ks[r.IntN(len(ks))]
		reqs[i] = newRequest(k.path, k.body)
	}
	var cw captureWriter
	cw.Header()
	h.ServeHTTP(&cw, newRequest(ks[0].path, ks[0].body))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, req := range reqs {
		cw.reset()
		h.ServeHTTP(&cw, req)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / n
}

// interleavedHandlerNs times two handlers on the same seeded requests,
// alternating, and returns each one's median.
func interleavedHandlerNs(a, b http.Handler, ks []key, seed uint64) (float64, float64) {
	const n = 20000
	r := newRand(seed, 0)
	var la, lb latencies
	var cw captureWriter
	for j := 0; j < n; j++ {
		k := ks[r.IntN(len(ks))]
		ra, rb := newRequest(k.path, k.body), newRequest(k.path, k.body)
		first, second := a, b
		if j%2 == 1 {
			first, second = b, a
		}
		cw.reset()
		t0 := time.Now()
		first.ServeHTTP(&cw, ra)
		d0 := int64(time.Since(t0))
		cw.reset()
		t1 := time.Now()
		second.ServeHTTP(&cw, rb)
		d1 := int64(time.Since(t1))
		if j%2 == 1 {
			d0, d1 = d1, d0
		}
		la, lb = append(la, d0), append(lb, d1)
	}
	return la.summarize().p50, lb.summarize().p50
}
