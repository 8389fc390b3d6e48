package main

// fleet_mixed: one sentinelfront router in front of three sentineld
// backends, driven with four request classes that use the fleet layer in
// different ways (see fleetShares): front-cache raw-lane repeats,
// canonical-lane variants, streamed batches and full:true simulates that
// cross the raw hop and simulate on the owning backend.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/eval"
	"sentinel/internal/fingerprint"
	"sentinel/internal/fleet"
	"sentinel/internal/machine"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// checkBatchStream verifies a /v1/batch response stream: one
// {"index","status","bytes"} header line per element followed by its
// payload, then a {"done":true,"elements":n} trailer. Every element must
// be 200 with exactly its expected bytes.
func checkBatchStream(body []byte, expect [][]byte) error {
	seen := make([]bool, len(expect))
	for {
		line, rest, ok := bytes.Cut(body, []byte("\n"))
		if !ok {
			return fmt.Errorf("batch stream ends without a trailer")
		}
		var h struct {
			Index, Status, Bytes int
			Done                 bool
			Elements             int
		}
		if err := json.Unmarshal(line, &h); err != nil {
			return fmt.Errorf("batch stream header %q: %v", line, err)
		}
		if h.Done {
			if h.Elements != len(expect) || len(rest) != 0 {
				return fmt.Errorf("batch trailer reports %d elements, want %d", h.Elements, len(expect))
			}
			for i, s := range seen {
				if !s {
					return fmt.Errorf("batch element %d missing", i)
				}
			}
			return nil
		}
		if h.Index < 0 || h.Index >= len(expect) || seen[h.Index] || h.Bytes > len(rest) {
			return fmt.Errorf("batch element header %q out of range", line)
		}
		seen[h.Index] = true
		if h.Status != http.StatusOK || !bytes.Equal(rest[:h.Bytes], expect[h.Index]) {
			return fmt.Errorf("batch element %d: status %d, bytes differ", h.Index, h.Status)
		}
		body = rest[h.Bytes:]
	}
}

// fleetStats is one client's view of the timed phase.
type fleetStats struct {
	ser, miss series
	tally     tally
	sent      [numClasses]int64
	cached    [numClasses]int64 // answered with X-Fleet-Backend: cache
	backends  map[string]int64  // non-cache answers per backend
}

// fleetReqs holds every preserialized request of one target address.
type fleetReqs struct {
	ks, opt            []key
	want, wantOpt      [][]byte
	repeat, optout     [][]byte
	variant            [][variantForms][]byte
	addr               string
	routeKeys, optKeys []fingerprint.Key
}

func newFleetReqs(addr string, ks, opt []key, want, wantOpt [][]byte) *fleetReqs {
	f := &fleetReqs{ks: ks, opt: opt, want: want, wantOpt: wantOpt, addr: addr,
		repeat: make([][]byte, len(ks)), variant: make([][variantForms][]byte, len(ks)),
		optout: make([][]byte, len(opt))}
	for i, k := range ks {
		f.repeat[i] = rawRequest("POST", k.path, addr, k.body)
		for v := 1; v <= variantForms; v++ {
			f.variant[i][v-1] = rawRequest("POST", k.path, addr, k.render(v))
		}
		f.routeKeys = append(f.routeKeys, canonicalKey(k))
	}
	for i, k := range opt {
		f.optout[i] = rawRequest("POST", k.path, addr, k.body)
		f.optKeys = append(f.optKeys, canonicalKey(k))
	}
	return f
}

// canonicalKey is the fingerprint the router routes k by.
func canonicalKey(k key) fingerprint.Key {
	md, err := machine.Resolve(k.model, k.width, k.predictor)
	if err != nil {
		panic(fmt.Sprintf("generated key %s does not resolve: %v", k.body, err))
	}
	if k.path == "/v1/schedule" {
		return fingerprint.Schedule(k.workload, "", md, true)
	}
	return fingerprint.Simulate(k.workload, "", md)
}

// request renders op: the raw request bytes, its body, path and the
// expected answer (a batch's expectations are per element).
func (f *fleetReqs) request(op fleetOp) (raw []byte, path string, body []byte, expect [][]byte) {
	switch op.class {
	case classRepeat:
		k := f.ks[op.key]
		return f.repeat[op.key], k.path, k.body, [][]byte{f.want[op.key]}
	case classVariant:
		k := f.ks[op.key]
		return f.variant[op.key][op.form-1], k.path, k.render(op.form), [][]byte{f.want[op.key]}
	case classOptout:
		k := f.opt[op.key]
		return f.optout[op.key], k.path, k.body, [][]byte{f.wantOpt[op.key]}
	default:
		body := batchBody(f.ks, op.elems[:])
		expect := make([][]byte, batchSize)
		for i, e := range op.elems {
			expect[i] = f.want[e]
		}
		return rawRequest("POST", "/v1/batch", f.addr, body), "/v1/batch", body, expect
	}
}

// check verifies one answer to op.
func check(op fleetOp, status int, body []byte, expect [][]byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status_%d", status)
	}
	if op.class == classBatch {
		if err := checkBatchStream(body, expect); err != nil {
			return fmt.Errorf("wrong_bytes")
		}
		return nil
	}
	if !bytes.Equal(body, expect[0]) {
		return fmt.Errorf("wrong_bytes")
	}
	return nil
}

func runFleetMixed(o opts) (*report, error) {
	rep := &report{correct: true}
	ks, opt := keyspace(), optoutCells()
	ref := newReference()
	want, err := ref.answerAll(ks)
	if err != nil {
		return nil, err
	}
	wantOpt, err := ref.answerAll(opt)
	if err != nil {
		return nil, err
	}
	ft, setup, err := timedSetup(func() (*fleetTarget, error) {
		ft, err := startFleet()
		if err != nil {
			return nil, err
		}
		// Every backend answers the whole keyspace once, as a long-running
		// fleet's would have: a batch routes whole by its raw bytes, so its
		// elements land on backends that do not own them. Then the router's
		// front cache is filled through the router.
		for _, b := range ft.backends {
			if err := sendAll(b.addr, ks, want); err != nil {
				ft.stop()
				return nil, err
			}
		}
		if err := sendAll(ft.router.addr, ks, want); err != nil {
			ft.stop()
			return nil, err
		}
		return ft, nil
	})
	if err != nil {
		return nil, err
	}
	defer ft.stop()
	rep.setSetup(setup)
	reqs := newFleetReqs(ft.router.addr, ks, opt, want, wantOpt)

	stats := make([]fleetStats, nproc)
	conns := make([]*conn, nproc)
	gens := make([]*fleetGen, nproc)
	bufs := make([][]byte, nproc)
	for w := range conns {
		if conns[w], err = dial(ft.router.addr); err != nil {
			return nil, err
		}
		defer conns[w].Close()
		gens[w] = newFleetGen(o.seed, w, len(ks), len(opt))
		stats[w].backends = map[string]int64{}
	}
	p := beginPass(o.seconds)
	p.windows(nproc, func(w, u int) {
		st := &stats[w]
		op := gens[w].next()
		raw, _, _, expect := reqs.request(op)
		t0 := time.Now()
		resp, err := conns[w].do(raw, bufs[w])
		d := int64(time.Since(t0))
		st.ser.record(u, d)
		bufs[w] = resp.body
		if op.class == classOptout || op.class == classBatch {
			st.miss.record(u, d)
		}
		st.sent[op.class]++
		if resp.backend == "cache" {
			st.cached[op.class]++
		} else if resp.backend != "" {
			st.backends[resp.backend]++
		}
		if err != nil {
			st.tally.fail("transport")
		} else if err := check(op, resp.status, resp.body, expect); err != nil {
			st.tally.fail(err.Error())
		} else {
			st.tally.ok()
		}
	})
	p.finish()
	var all fleetStats
	all.backends = map[string]int64{}
	for _, st := range stats {
		all.tally.merge(st.tally)
		for c := range all.sent {
			all.sent[c] += st.sent[c]
			all.cached[c] += st.cached[c]
		}
		for b, n := range st.backends {
			all.backends[b] += n
		}
	}
	rep.tally = all.tally
	var sers, misses []series
	for _, st := range stats {
		sers, misses = append(sers, st.ser), append(misses, st.miss)
	}
	s := rep.reportLatency(p, sers)
	rep.printE2E()
	_, missNorm := p.normalize(misses)
	ms := missNorm.summarize()
	rep.logf("miss_p50_us %.3f us (n=%d; optout and batch, the classes that cross the router hop)", ms.p50/1e3, ms.n)
	for c := range all.sent {
		rep.logf("class %-8s sent %d, answered by the front cache %d", classNames[c], all.sent[c], all.cached[c])
	}
	if !o.trace {
		return rep, nil
	}

	rep.setLayer("eval.cpu_util", p.cpuUtil, "ratio")
	rep.setLayer("fleet.fcache_hit_ratio", ratio(all.cached[classRepeat], all.sent[classRepeat]), "ratio")
	rep.setLayer("fleet.variant_hit_ratio", ratio(all.cached[classVariant], all.sent[classVariant]), "ratio")
	var maxN, sumN int64
	for _, b := range ft.backends {
		n := all.backends[b.addr]
		maxN = max(maxN, n)
		sumN += n
	}
	rep.setLayer("fleet.backend_skew", ratio(maxN*fleetSize, sumN), "ratio")
	rep.logf("backend answers: %v", all.backends)

	tr, sc, err := tracedFleetPass(o, ft, reqs, rep)
	if err != nil {
		return nil, err
	}
	rep.setLayer("fleet.route_ns", tr.medianDur("fleet.route"), "ns")
	rep.setLayer("fleet.hit_handler_ns", tr.medianDur("fleet.handler.repeat"), "ns")
	rep.setLayer("fingerprint.raw_ns", tr.medianDur("fingerprint.raw"), "ns")
	rep.setLayer("sim.run_ms", tr.selfPerOp("sim.run"), "ms")
	sc.report(rep)

	hop, streamHop, err := hopDiffs(o, ft, reqs)
	if err != nil {
		return nil, err
	}
	rep.setLayer("fleet.hop_us", hop, "us")
	rep.setLayer("fleet.stream_hop_us", streamHop, "us")

	rep.printSelfTimes(tr, "request", time.Duration(s.p50), tr.wall*time.Duration(nproc)/time.Duration(tr.ops))
	if err := rep.writeSpans(o, tr); err != nil {
		return nil, err
	}
	rep.finishLayers()
	return rep, nil
}

// tracedFleetPass replays the seeded request sequence in-process: each
// request's route decision (on a side router over the same ring, so the
// live router's hot-key sketch is untouched), its raw fingerprint, and the
// live router's handler; an optout request also replays its simulation.
// sim.instrs and sim.cycles cover one run of every optout cell.
func tracedFleetPass(o opts, ft *fleetTarget, reqs *fleetReqs, rep *report) (traceResult, simCounts, error) {
	var addrs []string
	for _, b := range ft.backends {
		addrs = append(addrs, b.addr)
	}
	side, err := fleet.New(fleet.Config{Backends: addrs, ProbeInterval: -1, RespCacheEntries: -1})
	if err != nil {
		return traceResult{}, simCounts{}, err
	}
	defer side.Close()
	runner := eval.NewRunner(nproc)
	prepared := func(k key) (eval.Prepared, machine.Desc, error) {
		b, _ := workload.ByName(k.workload)
		md, err := machine.Resolve(k.model, k.width, k.predictor)
		if err != nil {
			return eval.Prepared{}, md, err
		}
		p, err := runner.PreparedCtx(context.Background(), b, md, superblock.Options{})
		return p, md, err
	}
	var fixed simCounts
	for _, k := range reqs.opt {
		p, md, err := prepared(k)
		if err != nil {
			return traceResult{}, fixed, err
		}
		res, err := sim.Run(p.Prog, md, p.Mem, sim.Options{Index: p.Index})
		if err != nil {
			return traceResult{}, fixed, err
		}
		fixed.add(md, res, 0)
	}
	rep.setLayer("sim.instrs", float64(fixed.instrs), "count")
	rep.setLayer("sim.cycles", float64(fixed.cycles), "count")

	epoch := time.Now()
	tracers := make([]*tracer, nproc)
	counts := make([]simCounts, nproc)
	var wrong atomic.Int64
	var firstErr error
	var errOnce sync.Once
	for w := range tracers {
		tracers[w] = newTracer(epoch, w)
	}
	closedLoop(nproc, o.seconds, func(w int, deadline time.Time) {
		t := tracers[w]
		g := newFleetGen(o.seed, w, len(reqs.ks), len(reqs.opt))
		var cw captureWriter
		var scratch []byte
		h := ft.router.rt.Handler()
		for time.Now().Before(deadline) {
			op := g.next()
			_, path, body, expect := reqs.request(op)
			var rk fingerprint.Key
			switch op.class {
			case classOptout:
				rk = reqs.optKeys[op.key]
			case classBatch:
				rk = fingerprint.RawRequest(path, "", body)
			default:
				rk = reqs.routeKeys[op.key]
			}
			req := newRequest(path, body)
			cw.reset()
			root := t.begin("request", -1)
			t.wrap("fleet.route", root, func() { side.Route(rk) })
			t.wrap("fingerprint.raw", root, func() { _, scratch = fingerprint.RawRequestInto(scratch, path, "", body) })
			t.wrap("fleet.handler."+classNames[op.class], root, func() { h.ServeHTTP(&cw, req) })
			if op.class == classOptout {
				p, md, err := prepared(reqs.opt[op.key])
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				id := t.begin("sim.run", root)
				res, err := sim.Run(p.Prog, md, p.Mem, sim.Options{Index: p.Index})
				t.end(id)
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				counts[w].add(md, res, t.cur[id].End-t.cur[id].Start)
			}
			t.end(root)
			t.endOp()
			if check(op, cw.status, cw.body.Bytes(), expect) != nil {
				wrong.Add(1)
			}
		}
	})
	if firstErr != nil {
		return traceResult{}, fixed, firstErr
	}
	if wrong.Load() > 0 {
		rep.correct = false
		rep.logf("traced pass: %d wrong answers", wrong.Load())
	}
	var sc simCounts
	for _, c := range counts {
		sc.merge(c)
	}
	return mergeTracers(time.Since(epoch), tracers...), sc, nil
}

// hopDiffs measures what the router hop adds: for seeded optout and batch
// requests, the latency through the router minus the latency of the same
// bytes sent straight to the backend that answered, alternating which goes
// first. It returns the median differences in µs.
func hopDiffs(o opts, ft *fleetTarget, reqs *fleetReqs) (hop, streamHop float64, err error) {
	const perClass = 200
	rc, err := dial(ft.router.addr)
	if err != nil {
		return 0, 0, err
	}
	defer rc.Close()
	direct := map[string]*conn{}
	for _, b := range ft.backends {
		c, err := dial(b.addr)
		if err != nil {
			return 0, 0, err
		}
		defer c.Close()
		direct[b.addr] = c
	}
	g := newFleetGen(o.seed, nproc, len(reqs.ks), len(reqs.opt))
	var diffs [numClasses]latencies
	var buf []byte
	for len(diffs[classOptout]) < perClass || len(diffs[classBatch]) < perClass {
		op := g.next()
		if op.class != classOptout && op.class != classBatch || len(diffs[op.class]) >= perClass {
			continue
		}
		raw, _, _, expect := reqs.request(op)
		timed := func(c *conn) (response, int64, error) {
			t0 := time.Now()
			r, err := c.do(raw, buf)
			d := int64(time.Since(t0))
			buf = r.body
			if err == nil {
				err = check(op, r.status, r.body, expect)
			}
			return r, d, err
		}
		// The first routed send learns the owner; the pair then alternates.
		r, via, err := timed(rc)
		if err != nil {
			return 0, 0, err
		}
		dc := direct[r.backend]
		if dc == nil {
			return 0, 0, fmt.Errorf("routed answer names unknown backend %q", r.backend)
		}
		_, dir, err := timed(dc)
		if err != nil {
			return 0, 0, err
		}
		if len(diffs[op.class])%2 == 1 {
			if _, via, err = timed(rc); err != nil {
				return 0, 0, err
			}
		}
		diffs[op.class] = append(diffs[op.class], via-dir)
	}
	return diffs[classOptout].summarize().p50 / 1e3, diffs[classBatch].summarize().p50 / 1e3, nil
}
