package main

// paper_cold: the researcher's path. One op is a full `paperfigs -all`
// evaluation on a fresh eval.Runner, so every artifact is compiled and
// every cell simulated cold. The input is the paper's fixed kernel set; the
// seed has nothing to vary here.

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/eval"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// goldenDir holds the committed per-section goldens of paperfigs.
const goldenDir = "cmd/paperfigs/testdata/golden"

// evaluate renders every paperfigs section on a fresh runner.
func evaluate() ([]byte, error) {
	var b bytes.Buffer
	err := eval.RenderSections(context.Background(), eval.AllSections(), eval.NewRunner(nproc), &b)
	return b.Bytes(), err
}

// checkGoldens reports the first committed golden that out does not contain
// byte for byte.
func checkGoldens(out []byte) error {
	files, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no goldens under %s", goldenDir)
	}
	for _, f := range files {
		want, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		if !bytes.Contains(out, want) {
			return fmt.Errorf("evaluation output does not contain %s", f)
		}
	}
	return nil
}

func runPaper(o opts) (*report, error) {
	rep := &report{correct: true}
	first, setup, err := timedSetup(evaluate)
	if err != nil {
		return nil, err
	}
	if err := checkGoldens(first); err != nil {
		return nil, err
	}
	rep.setSetup(setup)

	var ser series
	p := beginPass(o.seconds)
	p.each(func(u int) {
		t0 := time.Now()
		out, err := evaluate()
		ser.record(u, int64(time.Since(t0)))
		switch {
		case err != nil:
			rep.tally.fail("error")
		case !bytes.Equal(out, first):
			rep.tally.fail("output_differs")
		default:
			rep.tally.ok()
		}
	})
	p.finish()
	s := rep.reportLatency(p, []series{ser})
	rep.printE2E()
	if !o.trace {
		return rep, nil
	}

	rep.setLayer("eval.cpu_util", p.cpuUtil, "ratio")
	tr, sc, err := replayEvaluations(o.seconds, rep)
	if err != nil {
		return nil, err
	}
	rep.setLayer("workload.build_ms", tr.selfPerOp("workload.build"), "ms")
	rep.setLayer("prog.ref_ms", tr.selfPerOp("prog.ref"), "ms")
	rep.setLayer("superblock.form_ms", tr.selfPerOp("superblock.form"), "ms")
	rep.setLayer("core.schedule_ms", tr.selfPerOp("core.schedule"), "ms")
	rep.setLayer("sim.run_ms", tr.selfPerOp("sim.run")+tr.selfPerOp("sim.index"), "ms")
	sc.report(rep)
	var layers float64
	for _, n := range tr.names() {
		if n != "bench" {
			layers += tr.selfPerOp(n)
		}
	}
	rep.setLayer("eval.unattributed_ms", s.p50/1e6-layers/float64(nproc), "ms")
	rep.printSelfTimes(tr, "eval", time.Duration(s.p50), tr.wall/time.Duration(tr.ops))
	if err := rep.writeSpans(o, tr); err != nil {
		return nil, err
	}
	rep.finishLayers()
	return rep, nil
}

// benchPlan is one benchmark's slice of the evaluation: the distinct
// compile configurations it schedules and the distinct cells it simulates,
// each cell naming its schedule.
type benchPlan struct {
	bench  workload.Benchmark
	scheds []machine.Desc
	cells  []machine.Desc
	of     []int // cells[i] simulates scheds[of[i]]
}

// evalPlan enumerates the cells `paperfigs -all` measures: the figure
// matrix and the recovery, store-buffer, sharing, boosting and prediction
// studies (the fault-injection runs reuse these schedules and are left out).
func evalPlan() []benchPlan {
	var descs []machine.Desc
	add := func(md machine.Desc) { descs = append(descs, md) }
	for _, m := range paperModels {
		for _, w := range eval.Widths {
			add(machine.Base(w, m))
		}
	}
	add(machine.Base(8, machine.Sentinel).WithRecovery())
	for _, sb := range []int{2, 4, 8, 16} {
		md := machine.Base(8, machine.SentinelStores)
		md.StoreBuffer = sb
		add(md)
	}
	for _, w := range []int{2, 8} {
		add(machine.Base(w, machine.Sentinel).WithoutSharedSentinels())
	}
	add(machine.Base(1, machine.Restricted))
	for _, l := range []int{1, 2, 4} {
		md := machine.Base(8, machine.Boosting)
		md.BoostLevels = l
		add(md)
	}
	for _, p := range []machine.Predictor{machine.PredPerfect, machine.PredStatic, machine.PredTAGE} {
		add(machine.Base(1, machine.Restricted).WithPredictor(p))
		for _, m := range []machine.Model{machine.General, machine.Sentinel, machine.Boosting} {
			for _, w := range []int{2, 8} {
				add(machine.Base(w, m).WithPredictor(p))
			}
		}
	}

	var plan benchPlan
	seenCell := map[machine.Desc]bool{}
	schedIdx := map[machine.Desc]int{}
	for _, md := range descs {
		if seenCell[md] {
			continue
		}
		seenCell[md] = true
		cv := md.CompileView()
		i, ok := schedIdx[cv]
		if !ok {
			i = len(plan.scheds)
			schedIdx[cv] = i
			plan.scheds = append(plan.scheds, cv)
		}
		plan.cells = append(plan.cells, md)
		plan.of = append(plan.of, i)
	}
	var plans []benchPlan
	for _, b := range workload.All() {
		p := plan
		p.bench = b
		plans = append(plans, p)
	}
	return plans
}

// simCounts accumulates simulated work and the host time it took.
type simCounts struct {
	instrs, cycles   int64
	ns               int64
	nsB, instrsB     int64 // boosting cells
	nsTage, instrsTg int64 // TAGE cells
}

func (c *simCounts) add(md machine.Desc, res *sim.Result, ns int64) {
	c.instrs += res.Instrs
	c.cycles += res.Cycles
	c.ns += ns
	if md.Model == machine.Boosting {
		c.nsB += ns
		c.instrsB += res.Instrs
	}
	if md.Predictor == machine.PredTAGE {
		c.nsTage += ns
		c.instrsTg += res.Instrs
	}
}

func (c *simCounts) merge(o simCounts) {
	c.instrs += o.instrs
	c.cycles += o.cycles
	c.ns += o.ns
	c.nsB += o.nsB
	c.instrsB += o.instrsB
	c.nsTage += o.nsTage
	c.instrsTg += o.instrsTg
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// report sets the host-speed ratios from c. sim.instrs and sim.cycles are
// set by the caller from a fixed cell set, so they repeat exactly.
func (c simCounts) report(rep *report) {
	rep.setLayer("sim.ns_per_instr", ratio(c.ns, c.instrs), "ns")
	rep.setLayer("sim.ns_per_instr.B", ratio(c.nsB, c.instrsB), "ns")
	rep.setLayer("sim.ns_per_instr.tage", ratio(c.nsTage, c.instrsTg), "ns")
}

// replayEvaluations is paper_cold's traced pass: it replays the Runner's
// pipeline — per benchmark one build, reference profile and formation, per
// compile configuration one schedule and PC index, per cell one simulation —
// through the layers' public functions, nproc benchmarks at a time, until
// d has passed. Every replay's instruction and cycle totals must equal the
// first's.
func replayEvaluations(d time.Duration, rep *report) (traceResult, simCounts, error) {
	plans := evalPlan()
	epoch := time.Now()
	tracers := make([]*tracer, nproc)
	for w := range tracers {
		tracers[w] = newTracer(epoch, w)
	}
	var total simCounts
	var firstInstrs, firstCycles int64
	replays := 0
	for replays == 0 || time.Since(epoch) < d {
		var mu sync.Mutex
		var once simCounts
		err := parallelWorkers(len(plans), func(w, i int) error {
			var c simCounts
			if err := replayBench(tracers[w], plans[i], &c); err != nil {
				return err
			}
			mu.Lock()
			once.merge(c)
			mu.Unlock()
			return nil
		})
		if err != nil {
			return traceResult{}, total, err
		}
		if replays == 0 {
			firstInstrs, firstCycles = once.instrs, once.cycles
		} else if once.instrs != firstInstrs || once.cycles != firstCycles {
			rep.correct = false
			rep.logf("sim counts changed between replays: %d/%d vs %d/%d", once.instrs, once.cycles, firstInstrs, firstCycles)
		}
		total.merge(once)
		replays++
	}
	tr := mergeTracers(time.Since(epoch), tracers...)
	tr.ops = int64(replays)
	rep.setLayer("sim.instrs", float64(firstInstrs), "count")
	rep.setLayer("sim.cycles", float64(firstCycles), "count")
	rep.logf("traced pass: %d replays of %d cells over %d benchmarks", replays, len(plans[0].cells)*len(plans), len(plans))
	return tr, total, nil
}

// replayBench replays one benchmark's slice of the evaluation.
func replayBench(t *tracer, bp benchPlan, c *simCounts) error {
	root := t.begin("bench", -1)
	defer t.endOp()
	defer t.end(root)

	var p *prog.Program
	var m *mem.Memory
	var verr error
	t.wrap("workload.build", root, func() {
		p, m = bp.bench.Build()
		p.Layout()
		verr = p.Validate()
	})
	if verr != nil {
		return fmt.Errorf("%s: %w", bp.bench.Name, verr)
	}
	var ref *prog.Result
	var err error
	t.wrap("prog.ref", root, func() { ref, err = prog.Run(p, m.Clone(), prog.Options{Collect: true}) })
	if err != nil {
		return fmt.Errorf("%s: reference: %w", bp.bench.Name, err)
	}
	var f *prog.Program
	t.wrap("superblock.form", root, func() {
		f = superblock.Form(p, ref.Profile, superblock.Options{}.WithDefaults())
		f.Layout()
		verr = f.Validate()
	})
	if verr != nil {
		return fmt.Errorf("%s: formation: %w", bp.bench.Name, verr)
	}
	scheds := make([]*prog.Program, len(bp.scheds))
	idx := make([]*sim.ProgIndex, len(bp.scheds))
	for i, md := range bp.scheds {
		t.wrap("core.schedule", root, func() { scheds[i], _, err = core.Schedule(f, md) })
		if err != nil {
			return fmt.Errorf("%s: schedule: %w", bp.bench.Name, err)
		}
		t.wrap("sim.index", root, func() { idx[i] = sim.NewProgIndex(scheds[i]) })
	}
	for i, md := range bp.cells {
		run := m.Clone()
		var res *sim.Result
		id := t.begin("sim.run", root)
		res, err = sim.Run(scheds[bp.of[i]], md, run, sim.Options{Index: idx[bp.of[i]]})
		t.end(id)
		if err != nil {
			return fmt.Errorf("%s: simulate: %w", bp.bench.Name, err)
		}
		c.add(md, res, t.cur[id].End-t.cur[id].Start)
	}
	return nil
}
