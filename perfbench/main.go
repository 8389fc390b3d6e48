// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the program built from this checkout, checks every
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of a separate traced pass) as a JSON object on its last
// line of standard output.
//
//	sh perfbench/run.sh --workload serve_warm --seed 1 --seconds 15 --trace 0
//
// See README.md for the workloads, the metrics and what each should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"time"
)

// nproc bounds every pool the benchmark starts: client connections, worker
// goroutines, and the evaluation runners' workers.
var nproc = runtime.GOMAXPROCS(0)

// parts is how many processes an untraced run is split into. Each part
// builds its own target and measures its share of the timed phase, so a
// run sees several set-ups and several processes: how fast one process of
// the same build runs varies with its memory layout and placement by more
// than the bounds allow, and the median over parts absorbs that.
const parts = 3

// opts are the command-line settings one workload runs with.
type opts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	spans   string // where the traced pass writes its spans
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run hands back to main.
type report struct {
	correct bool
	tally   tally
	e2e     map[string]metric
	layers  map[string]metric
	setup   float64    // this process's set-up time, s
	units   []unitStat // the timed phase, reduced (pass.go)
	lines   []string   // human-readable lines printed before the JSON
}

func (r *report) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *report) setE2E(name string, v float64, unit string) {
	if r.e2e == nil {
		r.e2e = map[string]metric{}
	}
	r.e2e[name] = metric{v, unit}
}

func (r *report) setSetup(secs float64) {
	r.setup = secs
	r.setE2E("setup_s", secs, "s")
}

func (r *report) setLayer(name string, v float64, unit string) {
	if r.layers == nil {
		r.layers = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layers[name] = metric{v, unit}
}

// endToEnd are the gated metrics every workload reports.
var endToEnd = []string{"setup_s", "ops_per_s", "p50_us", "peak_heap_mb"}

// perLayer are the traced run's metrics, in report order. A workload that
// does no work in a layer reports 0 for it.
var perLayer = []struct{ name, unit string }{
	{"workload.build_ms", "ms"},
	{"prog.ref_ms", "ms"},
	{"superblock.form_ms", "ms"},
	{"core.schedule_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.ns_per_instr", "ns"},
	{"sim.ns_per_instr.B", "ns"},
	{"sim.ns_per_instr.tage", "ns"},
	{"sim.instrs", "count"},
	{"sim.cycles", "count"},
	{"eval.unattributed_ms", "ms"},
	{"eval.cpu_util", "ratio"},
	{"server.handler_ns", "ns"},
	{"server.allocs_per_op", "count"},
	{"server.transport_us", "us"},
	{"server.respcache_hit_ratio", "ratio"},
	{"server.coalesce_ratio", "ratio"},
	{"fingerprint.raw_ns", "ns"},
	{"obs.recorder_ns", "ns"},
	{"fleet.route_ns", "ns"},
	{"fleet.hit_handler_ns", "ns"},
	{"fleet.fcache_hit_ratio", "ratio"},
	{"fleet.variant_hit_ratio", "ratio"},
	{"fleet.hop_us", "us"},
	{"fleet.stream_hop_us", "us"},
	{"fleet.backend_skew", "ratio"},
	{"wire.encode_ns", "ns"},
	{"wire.decode_ns", "ns"},
	{"asm.parse_us", "us"},
}

var workloads = map[string]func(opts) (*report, error){
	"paper_cold":  runPaper,
	"serve_warm":  runServeWarm,
	"fleet_mixed": runFleetMixed,
	"batch_cold":  runBatchCold,
}

func main() {
	name := flag.String("workload", "", "workload to run: paper_cold, serve_warm, fleet_mixed, batch_cold")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 15, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	part := flag.Int("part", -1, "run one part of an untraced run and print its figures as JSON (the run starts its parts itself)")
	flag.Parse()

	run, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	o := opts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1,
		spans: fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", *name, *seed)}
	var rep *report
	var err error
	switch {
	case *part >= 0:
		// Each part draws its own inputs, all made from the run's seed.
		o.seed = o.seed*parts + uint64(*part)
		if rep, err = run(o); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(rep.partOut())
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s part %d: %v\n", *name, *part, err)
			os.Exit(1)
		}
		return
	case o.trace:
		rep, err = run(o)
	default:
		rep, err = runParts(*name, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	fmt.Printf("error_ratio %.6f ratio (%s)\n", rep.tally.errorRatio(), rep.tally)

	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.correct && rep.tally.failed == 0, rep.tally.attempted, rep.tally.failed, rep.e2e}
	if o.trace {
		out.Metrics = rep.layers
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// partOut is what one part hands back to the run that started it.
type partOut struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Reasons   map[string]int64 `json:"reasons,omitempty"`
	Setup     float64          `json:"setup_s"`
	Units     []unitStat       `json:"units"`
	Lines     []string         `json:"lines"`
}

func (r *report) partOut() partOut {
	return partOut{r.correct, r.tally.attempted, r.tally.failed, r.tally.reasons, r.setup, r.units, r.lines}
}

// runParts runs an untraced measurement as parts processes, one after
// another, each with its own set-up and a parts-th of the timed phase, and
// merges them: set-up is the median of the parts', the other metrics come
// from all parts' units together.
func runParts(name string, o opts) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}
	var setups []float64
	for i := 0; i < parts; i++ {
		cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(o.seed),
			"--seconds", fmt.Sprint(o.seconds.Seconds()/parts), "--part", fmt.Sprint(i))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		var p partOut
		if err := json.Unmarshal(out, &p); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		for _, l := range p.Lines {
			rep.logf("part %d: %s", i, l)
		}
		rep.correct = rep.correct && p.Correct
		rep.tally.merge(tally{attempted: p.Attempted, failed: p.Failed, reasons: p.Reasons})
		rep.units = append(rep.units, p.Units...)
		setups = append(setups, p.Setup)
	}
	rep.setE2E("setup_s", median(setups), "s")
	rep.setEndToEnd()
	rep.logf("setup_s per part: %.4f", setups)
	rep.printE2E()
	return rep, nil
}

// timedSetup builds a target and returns it with the build time, less
// the CPU time stolen meanwhile (steal.go).
func timedSetup[T any](build func() (T, error)) (T, float64, error) {
	t0, st0 := time.Now(), readCPUStat()
	t, err := build()
	return t, time.Since(t0).Seconds() * (1 - stolen(st0, readCPUStat())), err
}

// printE2E adds the end-to-end lines in report order.
func (r *report) printE2E() {
	for _, name := range endToEnd {
		if m, ok := r.e2e[name]; ok {
			r.logf("%s %.6g %s", name, m.Value, m.Unit)
		}
	}
}

// finishLayers fills every per-layer metric the workload did not set with
// 0 and prints them all.
func (r *report) finishLayers() {
	for _, l := range perLayer {
		if _, ok := r.layers[l.name]; !ok {
			r.setLayer(l.name, 0, l.unit)
		}
		r.logf("layer %-28s %.6g %s", l.name, r.layers[l.name].Value, l.unit)
	}
}

// printSelfTimes prints every traced layer's self time per op and the
// traced-versus-untraced overhead.
func (r *report) printSelfTimes(tr traceResult, unit string, untracedPerOp, tracedPerOp time.Duration) {
	for _, n := range tr.names() {
		ls := tr.layers[n]
		r.logf("self %-24s %10.4f ms/%s (%d spans)", n, tr.selfPerOp(n), unit, ls.count)
	}
	r.logf("tracing overhead: traced %s/%s vs untraced %s/%s (%+.1f%%)",
		tracedPerOp, unit, untracedPerOp, unit,
		100*(float64(tracedPerOp)/float64(untracedPerOp)-1))
}

// writeSpans writes the spans file and notes where it went.
func (r *report) writeSpans(o opts, tr traceResult) error {
	sort.Slice(tr.spans, func(i, j int) bool {
		if tr.spans[i].Worker != tr.spans[j].Worker {
			return tr.spans[i].Worker < tr.spans[j].Worker
		}
		return tr.spans[i].Start < tr.spans[j].Start
	})
	if err := writeSpans(o.spans, tr.spans); err != nil {
		return err
	}
	r.logf("spans: %d written to %s", len(tr.spans), o.spans)
	return nil
}
