package main

// batch_cold: binary wire frames sent straight to sentineld. Each frame
// carries distinct seeded inline MIR programs (each a cold assemble,
// profile, form, schedule and simulate), an in-frame twin that coalescing
// answers, and one full:true workload simulate. One op is one element.
//
// One client sends the frames: the server already spreads a frame's
// elements over its nproc runner workers, and with two clients the two
// frames' elements interleave on those workers in ways that moved
// throughput by ±20% from run to run.

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/asm"
	"sentinel/internal/core"
	"sentinel/internal/eval"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/wire"
	"sentinel/internal/workload"
)

// batchClients is how many clients send batch_cold frames.
const batchClients = 1

// encodeFrame renders es as one request frame.
func encodeFrame(dst []byte, es []coldElem) []byte {
	fr := wire.ReqFrame{Elems: make([]wire.ReqElem, len(es))}
	for i, e := range es {
		fr.Elems[i] = wire.ReqElem{Payload: e.payload, Tag: uint32(i), Op: e.op}
	}
	return wire.AppendRequest(dst, &fr)
}

// elemAnswer is what one element came back as: enough to check it later.
type elemAnswer struct {
	status int
	sum    [sha256.Size]byte
}

func runBatchCold(o opts) (*report, error) {
	rep := &report{correct: true}
	b, setup, err := timedSetup(func() (*backend, error) {
		b, err := startBackend()
		if err != nil {
			return nil, err
		}
		if err := waitReady(b.addr); err != nil {
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

	conns := make([]*conn, batchClients)
	for w := range conns {
		if conns[w], err = dial(b.addr); err != nil {
			return nil, err
		}
		defer conns[w].Close()
	}
	elems0, coal0 := gauge(b.reg, "server.batch_elements"), gauge(b.reg, "server.batch_coalesced")
	lats := make([]series, batchClients)
	answers := make([][]elemAnswer, batchClients) // per client, in generation order
	errs := make([]error, batchClients)
	gens := make([]*coldGen, batchClients)
	frames, bufs := make([][]byte, batchClients), make([][]byte, batchClients)
	for w := range gens {
		gens[w] = newColdGen(o.seed, w)
	}
	p := beginPass(o.seconds)
	p.windows(batchClients, func(w, u int) {
		if errs[w] != nil {
			time.Sleep(time.Millisecond) // the pass fails; wait out the window
			return
		}
		es := gens[w].frame()
		frames[w] = encodeFrame(frames[w][:0], es)
		got := make([]elemAnswer, len(es))
		c := conns[w]
		c.c.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a dead conn fails the write
		t0 := time.Now()
		if _, err := c.c.Write(frames[w]); err != nil {
			errs[w] = err
			return
		}
		var err error
		bufs[w], err = readFrame(c.br, len(es), bufs[w], func(tag uint32, status int, payload []byte) {
			lats[w].record(u, int64(time.Since(t0)))
			got[tag] = elemAnswer{status: status, sum: sha256.Sum256(payload)}
		})
		if err != nil {
			errs[w] = err
			return
		}
		answers[w] = append(answers[w], got...)
	})
	p.finish()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("wire exchange: %w", err)
		}
	}
	elems, coal := gauge(b.reg, "server.batch_elements")-elems0, gauge(b.reg, "server.batch_coalesced")-coal0

	// Every element is checked against the oracle after the clock stops:
	// the frames are regenerated from the seed and answered uncached.
	if err := verifyCold(o.seed, answers, &rep.tally); err != nil {
		return nil, err
	}
	s := rep.reportLatency(p, lats)
	rep.printE2E()
	rep.logf("frames of %d elements: %d programs, 1 in-frame twin, 1 full:true workload simulate; %d elements, %d coalesced", frameElems, framePrograms, elems, coal)
	if !o.trace {
		return rep, nil
	}

	rep.setLayer("eval.cpu_util", p.cpuUtil, "ratio")
	rep.setLayer("server.coalesce_ratio", ratio(coal, elems), "ratio")
	tr, sc, fixed, err := tracedColdPass(o)
	if err != nil {
		return nil, err
	}
	perElem := func(name string) float64 { return tr.selfPerOp(name) / frameElems }
	rep.setLayer("prog.ref_ms", perElem("prog.ref"), "ms")
	rep.setLayer("superblock.form_ms", perElem("superblock.form"), "ms")
	rep.setLayer("core.schedule_ms", perElem("core.schedule"), "ms")
	rep.setLayer("sim.run_ms", perElem("sim.run")+perElem("sim.index"), "ms")
	sc.report(rep)
	rep.setLayer("sim.instrs", float64(fixed.instrs), "count")
	rep.setLayer("sim.cycles", float64(fixed.cycles), "count")
	rep.setLayer("wire.encode_ns", perElem("wire.encode")*1e6, "ns")
	rep.setLayer("wire.decode_ns", perElem("wire.decode")*1e6, "ns")
	rep.setLayer("asm.parse_us", tr.medianDur("asm.parse")/1e3, "us")
	// One client: a frame's time is the pass's time over its frames.
	rep.printSelfTimes(tr, "frame", time.Duration(float64(p.wall)*frameElems/float64(s.n)), tr.wall/time.Duration(tr.ops))
	if err := rep.writeSpans(o, tr); err != nil {
		return nil, err
	}
	rep.finishLayers()
	return rep, nil
}

// verifyCold regenerates each worker's frames and compares every recorded
// answer with the uncached oracle's answer to the same element.
func verifyCold(seed uint64, answers [][]elemAnswer, t *tally) error {
	ref := newReference()
	type job struct {
		e   coldElem
		got elemAnswer
	}
	var jobs []job
	for w, got := range answers {
		g := newColdGen(seed, w)
		for len(got) > 0 {
			for _, e := range g.frame() {
				jobs = append(jobs, job{e, got[0]})
				got = got[1:]
			}
		}
	}
	// The oracle answers each distinct payload once: twins and repeated
	// workload cells share one answer.
	first := map[string]int{}
	var distinct []int
	for i, j := range jobs {
		if _, ok := first[string(j.e.payload)]; !ok {
			first[string(j.e.payload)] = len(distinct)
			distinct = append(distinct, i)
		}
	}
	oracle := make([]elemAnswer, len(distinct))
	if err := parallel(len(distinct), func(d int) error {
		status, body := inProcess(ref.srv.Handler(), "POST", "/v1/simulate", jobs[distinct[d]].e.payload)
		oracle[d] = elemAnswer{status: status, sum: sha256.Sum256(body)}
		return nil
	}); err != nil {
		return err
	}
	for _, j := range jobs {
		switch {
		case j.got.status != http.StatusOK:
			t.fail(fmt.Sprintf("status_%d", j.got.status))
		case j.got != oracle[first[string(j.e.payload)]]:
			t.fail("wrong_bytes")
		default:
			t.ok()
		}
	}
	return nil
}

// fixedFrames is how many frames of worker 0's stream sim.instrs and
// sim.cycles cover, so that they repeat exactly for a given seed.
const fixedFrames = 16

// tracedColdPass replays the seeded frames in-process: encode and decode
// each frame, then per element the pipeline the server runs — assemble,
// reference profile, form, schedule, index and simulate for an inline
// program; simulate over cached artifacts for a workload element. A twin
// is skipped, as coalescing skips it.
func tracedColdPass(o opts) (traceResult, simCounts, simCounts, error) {
	runner := eval.NewRunner(nproc)
	epoch := time.Now()
	tracers := make([]*tracer, batchClients)
	counts := make([]simCounts, batchClients)
	for w := range tracers {
		tracers[w] = newTracer(epoch, w)
	}
	var fixed simCounts
	var mu sync.Mutex
	var firstErr atomic.Pointer[error]
	closedLoop(batchClients, o.seconds, func(w int, deadline time.Time) {
		t := tracers[w]
		g := newColdGen(o.seed, w)
		var frame []byte
		for n := 0; time.Now().Before(deadline) || w == 0 && n < fixedFrames; n++ {
			es := g.frame()
			var sc simCounts
			root := t.begin("frame", -1)
			t.wrap("wire.encode", root, func() { frame = encodeFrame(frame[:0], es) })
			br := bufio.NewReader(bytes.NewReader(frame))
			var err error
			t.wrap("wire.decode", root, func() { _, err = wire.ReadRequest(br, wire.Limits{}) })
			for i, e := range es {
				if err != nil {
					break
				}
				if i == framePrograms {
					continue // the twin
				}
				err = replayElem(t, root, runner, e.payload, &sc)
			}
			t.end(root)
			t.endOp()
			if err != nil {
				firstErr.CompareAndSwap(nil, &err)
				return
			}
			counts[w].merge(sc)
			if w == 0 && n < fixedFrames {
				mu.Lock()
				fixed.merge(sc)
				mu.Unlock()
			}
		}
	})
	if e := firstErr.Load(); e != nil {
		return traceResult{}, simCounts{}, simCounts{}, *e
	}
	var sc simCounts
	for _, c := range counts {
		sc.merge(c)
	}
	return mergeTracers(time.Since(epoch), tracers...), sc, fixed, nil
}

// replayElem replays one element's pipeline under root.
func replayElem(t *tracer, root int32, runner *eval.Runner, payload []byte, sc *simCounts) error {
	var req struct {
		Workload, Source, Model, Predictor string
		Width                              int
	}
	if err := json.Unmarshal(payload, &req); err != nil {
		return err
	}
	md, err := machine.Resolve(req.Model, req.Width, req.Predictor)
	if err != nil {
		return err
	}
	var sched *prog.Program
	var idx *sim.ProgIndex
	var memory *mem.Memory
	if req.Workload != "" {
		b, _ := workload.ByName(req.Workload)
		p, err := runner.PreparedCtx(context.Background(), b, md, superblock.Options{})
		if err != nil {
			return err
		}
		sched, idx, memory = p.Prog, p.Index, p.Mem
	} else {
		var p *prog.Program
		t.wrap("asm.parse", root, func() { p, memory, err = asm.Parse(req.Source) })
		if err != nil {
			return err
		}
		var ref *prog.Result
		t.wrap("prog.ref", root, func() {
			p.Layout()
			ref, err = prog.Run(p, memory.Clone(), prog.Options{Collect: true})
		})
		if err != nil {
			return err
		}
		t.wrap("superblock.form", root, func() {
			p = superblock.Form(p, ref.Profile, superblock.Options{})
			p.Layout()
			err = p.Validate()
		})
		if err != nil {
			return err
		}
		t.wrap("core.schedule", root, func() { sched, _, err = core.Schedule(p, md.CompileView()) })
		if err != nil {
			return err
		}
		t.wrap("sim.index", root, func() { idx = sim.NewProgIndex(sched) })
	}
	id := t.begin("sim.run", root)
	res, err := sim.Run(sched, md, memory, sim.Options{Index: idx})
	t.end(id)
	if err != nil {
		return err
	}
	sc.add(md, res, t.cur[id].End-t.cur[id].Start)
	return nil
}
