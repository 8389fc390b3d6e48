package eval

// The concurrent experiment engine. The paper's evaluation is a large cell
// matrix (benchmark × model × width × options); the serial path in eval.go
// rebuilds, re-profiles and re-interprets the benchmark for every cell. The
// Runner instead computes each expensive per-benchmark artifact exactly once
// per process — the built ir program, the reference-interpreter result and
// profile, the formed superblock program per superblock.Options, and each
// scheduled program per machine configuration — behind singleflight caches,
// and fans the remaining per-cell work (simulation + verification) out over
// a bounded worker pool. Aggregation is ordered by cell key, never by
// completion order, so output is byte-identical at any worker count.
//
// Sharing discipline (see the concurrency notes on prog.Program, mem.Memory
// and workload.Benchmark.Build): cached programs and reference results are
// read-only once constructed; superblock.Form and core.Schedule clone their
// input internally; every simulation gets its own mem.Memory clone.

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sentinel/internal/core"
	"sentinel/internal/machine"
	"sentinel/internal/mem"
	"sentinel/internal/obs"
	"sentinel/internal/prog"
	"sentinel/internal/sim"
	"sentinel/internal/superblock"
	"sentinel/internal/workload"
)

// CellKey names one cell of the experiment matrix: a benchmark compiled
// with the given formation options for the given machine. Runner errors
// wrap the failing cell's key.
type CellKey struct {
	Bench string
	MD    machine.Desc
	SBO   superblock.Options
}

func (k CellKey) String() string {
	s := fmt.Sprintf("%s/%v@%d", k.Bench, k.MD.Model, k.MD.IssueWidth)
	if k.MD.Recovery {
		s += "+recovery"
	}
	if k.MD.NoSharedSentinels {
		s += "+noshare"
	}
	if k.MD.Predictor != machine.PredPerfect {
		s += "+" + k.MD.Predictor.String()
	}
	return s
}

// buildArtifact is everything derivable from one benchmark independent of
// machine configuration: the built, laid-out, validated program; the
// pristine input memory image; and the reference-interpreter result with
// its execution profile. All fields are read-only after construction —
// simulations clone the memory, formation and scheduling clone the program.
type buildArtifact struct {
	prog *prog.Program
	mem  *mem.Memory
	ref  *prog.Result
}

type formKey struct {
	bench string
	sbo   superblock.Options
}

type schedArtifact struct {
	prog  *prog.Program
	stats core.Stats
	// index is the simulator's PC index for prog, built once alongside the
	// schedule and shared by every simulation of this cell.
	index *sim.ProgIndex
}

// Runner runs experiment cells concurrently with per-benchmark artifact
// caching. The zero value is not usable; construct with NewRunner. A Runner
// is safe for concurrent use and may be shared across experiments — sharing
// one Runner across sections is what makes `paperfigs -all` cheap, since
// the figure sweep and the extension studies revisit many identical cells.
type Runner struct {
	workers int

	// Metrics instruments, nil unless SetMetrics was called. Every handle
	// is nil-safe (obs's disabled path), but time.Now calls are still gated
	// on cellTime/busy to keep the disabled path free of syscalls.
	reg      *obs.Registry
	cellTime *obs.Histogram // per-cell wall time, ns
	busy     *obs.Counter   // summed worker busy time, ns
	span     *obs.Counter   // summed parallelFor wall spans, ns

	builds Flight[string, *buildArtifact]
	forms  Flight[formKey, *prog.Program]
	scheds Flight[CellKey, *schedArtifact]
	cells  Flight[CellKey, Cell]

	// caches is the metrics/Reset view over the four flights above, built
	// once at construction — CacheStats and the registry gauges iterate it
	// instead of rebuilding a map of closures per scrape.
	caches []namedCache

	// onReset callbacks run after every Reset, in registration order —
	// how derived caches (the server's response-byte cache) stay coherent
	// with the artifact caches they were computed from.
	resetMu sync.Mutex
	onReset []func()
}

// NewRunner returns a Runner that executes at most workers cells at once;
// workers < 1 selects GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	r := &Runner{workers: workers}
	r.builds.Arg = obs.ArgBuilds
	r.forms.Arg = obs.ArgForms
	r.scheds.Arg = obs.ArgScheds
	r.cells.Arg = obs.ArgCells
	r.caches = []namedCache{
		{"builds", view(&r.builds)},
		{"forms", view(&r.forms)},
		{"scheds", view(&r.scheds)},
		{"cells", view(&r.cells)},
	}
	return r
}

// Workers reports the configured parallelism.
func (r *Runner) Workers() int { return r.workers }

// SetMetrics attaches a metrics registry: per-cell wall-time histogram,
// worker busy/span counters, and gauges for every artifact cache's size,
// hits and misses. Pass nil to detach (the default: no metrics, no timing
// syscalls on the measurement path). Call before running cells, not during.
func (r *Runner) SetMetrics(reg *obs.Registry) {
	r.reg = reg
	if reg == nil {
		r.cellTime, r.busy, r.span = nil, nil, nil
		return
	}
	r.cellTime = reg.Histogram("runner.cell_ns")
	r.busy = reg.Counter("runner.busy_ns")
	r.span = reg.Counter("runner.span_ns")
	reg.Gauge("runner.workers", func() int64 { return int64(r.workers) })
	for _, c := range r.caches {
		c := c
		reg.Gauge("runner.cache."+c.name+".size", func() int64 { return int64(c.size()) })
		reg.Gauge("runner.cache."+c.name+".hits", func() int64 { return c.hits() })
		reg.Gauge("runner.cache."+c.name+".misses", func() int64 { return c.misses() })
	}
}

// cacheView abstracts one generic flight cache for metrics and Reset.
type cacheView struct {
	size   func() int
	hits   func() int64
	misses func() int64
	reset  func()
}

// namedCache pairs a cacheView with its stable metrics name. The Runner
// builds the full table once in NewRunner; everything that used to rebuild
// a map of closures per call (CacheStats on every /debug/vars scrape, the
// gauges, Reset) walks this slice instead.
type namedCache struct {
	name string
	cacheView
}

func view[K comparable, V any](f *Flight[K, V]) cacheView {
	return cacheView{
		size:   f.Len,
		hits:   f.hits.Load,
		misses: f.misses.Load,
		reset:  f.Reset,
	}
}

// CacheStats is one artifact cache's effectiveness snapshot.
type CacheStats struct {
	Size         int
	Hits, Misses int64
}

// CacheStats reports every artifact cache's current size and hit/miss
// counts, keyed by cache name (builds, forms, scheds, cells). This is how a
// long-lived Runner's growth is observed — see Reset.
func (r *Runner) CacheStats() map[string]CacheStats {
	out := make(map[string]CacheStats, len(r.caches))
	for _, c := range r.caches {
		out[c.name] = CacheStats{Size: c.size(), Hits: c.hits(), Misses: c.misses()}
	}
	return out
}

// CacheHitsMisses sums hit and miss counts across every artifact cache
// without allocating — the per-scrape form of CacheStats that metric gauges
// (the server's cache_hit_permille) poll on a hot service.
func (r *Runner) CacheHitsMisses() (hits, misses int64) {
	for _, c := range r.caches {
		hits += c.hits()
		misses += c.misses()
	}
	return hits, misses
}

// OnReset registers fn to run after every Reset, in registration order.
// Derived caches — anything whose entries were computed from this Runner's
// artifacts, like the serving layer's response-byte cache — hook in here so
// dropping the artifacts also drops everything memoized on top of them.
func (r *Runner) OnReset(fn func()) {
	r.resetMu.Lock()
	r.onReset = append(r.onReset, fn)
	r.resetMu.Unlock()
}

// Reset drops every cached artifact (hit/miss counters persist). The caches
// otherwise grow without bound across RunAll sweeps — one entry per distinct
// cell key — which is what makes a shared Runner fast within one figure
// regeneration but a leak in a long-lived process sweeping many
// configurations. Must not be called concurrently with in-flight
// measurements.
func (r *Runner) Reset() {
	for _, c := range r.caches {
		c.reset()
	}
	r.resetMu.Lock()
	fns := r.onReset
	r.resetMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// MetricsSummary renders the one-shot text summary of the attached
// registry, prefixed with derived worker utilization (busy / span×workers).
// Empty when SetMetrics was never called.
func (r *Runner) MetricsSummary() string {
	if r.reg == nil {
		return ""
	}
	var b strings.Builder
	if span := r.span.Value(); span > 0 {
		util := float64(r.busy.Value()) / (float64(span) * float64(r.workers))
		fmt.Fprintf(&b, "worker utilization: %.1f%% (%d workers)\n", 100*util, r.workers)
	}
	if s := r.cellTime.Snapshot(); s.Count > 0 {
		fmt.Fprintf(&b, "cell wall time: n=%d mean=%s min=%s max=%s\n",
			s.Count, time.Duration(int64(s.Mean())), time.Duration(s.Min), time.Duration(s.Max))
	}
	b.WriteString(r.reg.Summary())
	return b.String()
}

// build returns the benchmark's machine-independent artifact, computing it
// on first use: build + layout + validate + reference interpretation.
func (r *Runner) build(b workload.Benchmark) (*buildArtifact, error) {
	return r.buildCtx(context.Background(), b)
}

func (r *Runner) buildCtx(ctx context.Context, b workload.Benchmark) (*buildArtifact, error) {
	return r.builds.GetCtx(ctx, b.Name, func() (*buildArtifact, error) {
		rec := obs.RecordFrom(ctx)
		rec.Start(obs.StageCompile, obs.ArgBuilds)
		defer rec.End()
		p, m := b.Build()
		p.Layout()
		if err := p.Validate(); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		ref, err := prog.Run(p, m.Clone(), prog.Options{Collect: true})
		if err != nil {
			return nil, fmt.Errorf("%s: reference: %w", b.Name, err)
		}
		return &buildArtifact{prog: p, mem: m, ref: ref}, nil
	})
}

// formed returns the benchmark's superblock-formed program for the given
// options, formed once per (benchmark, options) pair.
func (r *Runner) formed(ctx context.Context, b workload.Benchmark, sbo superblock.Options) (*prog.Program, error) {
	sbo = sbo.WithDefaults()
	return r.forms.GetCtx(ctx, formKey{b.Name, sbo}, func() (*prog.Program, error) {
		art, err := r.buildCtx(ctx, b)
		if err != nil {
			return nil, err
		}
		rec := obs.RecordFrom(ctx)
		rec.Start(obs.StageCompile, obs.ArgForms)
		defer rec.End()
		f := superblock.Form(art.prog, art.ref.Profile, sbo)
		f.Layout()
		if err := f.Validate(); err != nil {
			return nil, fmt.Errorf("%s: formation: %w", b.Name, err)
		}
		return f, nil
	})
}

// scheduled returns the benchmark's scheduled program for the given machine
// configuration, compiled once per cell key. The key uses the machine's
// CompileView: the scheduler never consults the branch-prediction frontend,
// so one schedule is computed and shared across every predictor that
// simulates it.
func (r *Runner) scheduled(ctx context.Context, b workload.Benchmark, md machine.Desc, sbo superblock.Options) (*schedArtifact, error) {
	md = md.CompileView()
	key := CellKey{b.Name, md, sbo.WithDefaults()}
	return r.scheds.GetCtx(ctx, key, func() (*schedArtifact, error) {
		f, err := r.formed(ctx, b, sbo)
		if err != nil {
			return nil, err
		}
		rec := obs.RecordFrom(ctx)
		rec.Start(obs.StageSchedule, obs.ArgNone)
		defer rec.End()
		sched, stats, err := core.Schedule(f, md)
		if err != nil {
			return nil, fmt.Errorf("%s: schedule: %w", b.Name, err)
		}
		return &schedArtifact{prog: sched, stats: stats, index: sim.NewProgIndex(sched)}, nil
	})
}

// Measure is the cached equivalent of the package-level Measure: it
// compiles and simulates one cell, verifying the architectural result
// against the reference interpreter, reusing every artifact the Runner has
// already computed for the benchmark. Identical cells are measured once.
func (r *Runner) Measure(b workload.Benchmark, md machine.Desc, sbo superblock.Options) (Cell, error) {
	return r.MeasureCtx(context.Background(), b, md, sbo)
}

// MeasureCtx is Measure with cancellation: an expired context stops the
// measurement before the next pipeline stage and unblocks a caller waiting
// on another goroutine's in-flight computation of the same cell (which
// itself runs to completion and is cached — concurrent identical requests
// coalesce onto it).
func (r *Runner) MeasureCtx(ctx context.Context, b workload.Benchmark, md machine.Desc, sbo superblock.Options) (Cell, error) {
	key := CellKey{b.Name, md, sbo.WithDefaults()}
	return r.cells.GetCtx(ctx, key, func() (Cell, error) {
		var t0 time.Time
		if r.cellTime != nil {
			t0 = time.Now()
		}
		art, err := r.buildCtx(ctx, b)
		if err != nil {
			return Cell{}, err
		}
		sa, err := r.scheduled(ctx, b, md, sbo)
		if err != nil {
			return Cell{}, err
		}
		rec := obs.RecordFrom(ctx)
		rec.Start(obs.StageSimulate, obs.ArgNone)
		res, err := sim.Run(sa.prog, md, art.mem.Clone(), sim.Options{Index: sa.index})
		rec.End()
		if err != nil {
			return Cell{}, fmt.Errorf("%s: simulate: %w", b.Name, err)
		}
		if err := verifyResult(b.Name, md, res, art.ref); err != nil {
			return Cell{}, err
		}
		if r.cellTime != nil {
			r.cellTime.Observe(time.Since(t0).Nanoseconds())
		}
		return Cell{Cycles: res.Cycles, Instrs: res.Instrs, Stats: sa.stats, Sim: res.Stats}, nil
	})
}

// Simulate runs one cell's simulation with the given simulator options
// (typically a tracer) attached, reusing every cached artifact but caching
// nothing itself and skipping verification — the entry point `paperfigs
// -trace` and ad-hoc profiling use to observe a cell without perturbing the
// measured matrix.
func (r *Runner) Simulate(b workload.Benchmark, md machine.Desc, sbo superblock.Options, opts sim.Options) (*sim.Result, error) {
	return r.SimulateCtx(context.Background(), b, md, sbo, opts)
}

// SimulateCtx is Simulate with cancellation of the artifact-compilation
// stages (see MeasureCtx). The simulation itself, once started, runs to
// completion.
func (r *Runner) SimulateCtx(ctx context.Context, b workload.Benchmark, md machine.Desc, sbo superblock.Options, opts sim.Options) (*sim.Result, error) {
	art, err := r.buildCtx(ctx, b)
	if err != nil {
		return nil, err
	}
	sa, err := r.scheduled(ctx, b, md, sbo)
	if err != nil {
		return nil, err
	}
	if opts.Index == nil {
		opts.Index = sa.index
	}
	res, err := sim.Run(sa.prog, md, art.mem.Clone(), opts)
	if err != nil {
		return nil, fmt.Errorf("%s: simulate: %w", b.Name, err)
	}
	return res, nil
}

// Prepared is one cell's compiled artifact set, for callers that run their
// own simulations instead of going through Measure — fault injection,
// tracing, and the serving layer's uncached simulate path. Prog, Index, Ref
// and Stats are shared read-only cached artifacts; Mem is a fresh clone of
// the benchmark's pristine input image that the caller owns outright (and
// may mutate, e.g. paging a segment out before the run).
type Prepared struct {
	Prog  *prog.Program
	Index *sim.ProgIndex
	Stats core.Stats
	Ref   *prog.Result
	Mem   *mem.Memory
}

// PreparedCtx compiles (or fetches from cache) one cell's artifacts without
// simulating it.
func (r *Runner) PreparedCtx(ctx context.Context, b workload.Benchmark, md machine.Desc, sbo superblock.Options) (Prepared, error) {
	art, err := r.buildCtx(ctx, b)
	if err != nil {
		return Prepared{}, err
	}
	sa, err := r.scheduled(ctx, b, md, sbo)
	if err != nil {
		return Prepared{}, err
	}
	return Prepared{Prog: sa.prog, Index: sa.index, Stats: sa.stats, Ref: art.ref, Mem: art.mem.Clone()}, nil
}

// parallelFor runs fn(0..n-1) on up to r.workers goroutines and returns the
// lowest-index error (the same error a serial in-order run would hit
// first), so failures are independent of scheduling order.
func (r *Runner) parallelFor(n int, fn func(i int) error) error {
	return r.parallelForCtx(context.Background(), n, fn)
}

// ParallelCtx is the exported form of the Runner's fan-out primitive, for
// callers outside the package (the server's batch path): fn(0..n-1) runs on
// up to the Runner's workers, no further index is dispatched once ctx
// expires, and errors surface lowest-index-first. Any request record in ctx
// is stripped before dispatch (records are single-goroutine); a closure
// capturing a record-carrying context must strip its own copy.
func (r *Runner) ParallelCtx(ctx context.Context, n int, fn func(i int) error) error {
	return r.parallelForCtx(ctx, n, fn)
}

// parallelForCtx is parallelFor with cancellation: once ctx expires no
// further index is dispatched (already-running fn calls finish), and the
// context's error is returned in place of any per-index error — the results
// are incomplete, so no per-index error can be meaningfully "first".
func (r *Runner) parallelForCtx(ctx context.Context, n int, fn func(i int) error) error {
	// A request record is single-goroutine; fan-out would race on its span
	// arena. Strip it before dispatch (even at workers=1, so the recorded
	// shape does not depend on the worker count). Callers whose fn closure
	// captures a request-carrying ctx must strip that one themselves —
	// RunBenchmarksCtx does.
	if obs.RecordFrom(ctx) != nil {
		ctx = obs.ContextWithRecord(ctx, nil)
	}
	workers := r.workers
	if workers > n {
		workers = n
	}
	if r.busy != nil {
		inner := fn
		fn = func(i int) error {
			t0 := time.Now()
			defer func() { r.busy.Add(time.Since(t0).Nanoseconds()) }()
			return inner(i)
		}
		start := time.Now()
		defer func() { r.span.Add(time.Since(start).Nanoseconds()) }()
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Run measures benchmark b under every model at every width plus the
// issue-1 restricted base, like the serial Run, with cells fanned out over
// the worker pool.
func (r *Runner) Run(b workload.Benchmark, models []machine.Model, widths []int, sbo superblock.Options) (*BenchResult, error) {
	return r.RunCtx(context.Background(), b, models, widths, sbo)
}

// RunCtx is Run with cancellation (see RunBenchmarksCtx).
func (r *Runner) RunCtx(ctx context.Context, b workload.Benchmark, models []machine.Model, widths []int, sbo superblock.Options) (*BenchResult, error) {
	rs, err := r.RunBenchmarksCtx(ctx, []workload.Benchmark{b}, models, widths, sbo)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunAll measures every registered benchmark, like the serial RunAll, with
// the full cell matrix fanned out over the worker pool. Results are
// aggregated in benchmark order regardless of completion order, so the
// output is byte-identical to the serial path at any worker count.
func (r *Runner) RunAll(models []machine.Model, widths []int, sbo superblock.Options) ([]*BenchResult, error) {
	return r.RunAllCtx(context.Background(), models, widths, sbo)
}

// RunAllCtx is RunAll with cancellation (see RunBenchmarksCtx).
func (r *Runner) RunAllCtx(ctx context.Context, models []machine.Model, widths []int, sbo superblock.Options) ([]*BenchResult, error) {
	return r.RunBenchmarksCtx(ctx, workload.All(), models, widths, sbo)
}

// RunBenchmarks measures the full cell matrix benches × (base ∪ models ×
// widths) concurrently and aggregates deterministically.
func (r *Runner) RunBenchmarks(benches []workload.Benchmark, models []machine.Model, widths []int, sbo superblock.Options) ([]*BenchResult, error) {
	return r.RunBenchmarksCtx(context.Background(), benches, models, widths, sbo)
}

// RunBenchmarksCtx is RunBenchmarks with cancellation: once ctx expires,
// queued cells are no longer dispatched (in-flight cells complete and stay
// cached) and the context's error is returned.
func (r *Runner) RunBenchmarksCtx(ctx context.Context, benches []workload.Benchmark, models []machine.Model, widths []int, sbo superblock.Options) ([]*BenchResult, error) {
	// The per-cell closure below captures ctx and runs on pool workers; a
	// request record is single-goroutine, so detach it here — before the
	// capture — not just inside parallelForCtx.
	if obs.RecordFrom(ctx) != nil {
		ctx = obs.ContextWithRecord(ctx, nil)
	}
	type spec struct {
		bench int
		md    machine.Desc
	}
	var specs []spec
	for bi := range benches {
		specs = append(specs, spec{bi, machine.Base(1, machine.Restricted)})
		for _, model := range models {
			for _, w := range widths {
				specs = append(specs, spec{bi, machine.Base(w, model)})
			}
		}
	}
	cells := make([]Cell, len(specs))
	err := r.parallelForCtx(ctx, len(specs), func(i int) error {
		c, err := r.MeasureCtx(ctx, benches[specs[i].bench], specs[i].md, sbo)
		if err != nil {
			return fmt.Errorf("cell %v: %w",
				CellKey{benches[specs[i].bench].Name, specs[i].md, sbo.WithDefaults()}, err)
		}
		cells[i] = c
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Deterministic aggregation: specs are laid out per benchmark as
	// [base, models × widths...], in the caller's order.
	stride := 1 + len(models)*len(widths)
	out := make([]*BenchResult, len(benches))
	for bi, b := range benches {
		base := cells[bi*stride]
		base.Speedup = 1
		br := &BenchResult{Name: b.Name, Numeric: b.Numeric, Base: base, Cells: map[Key]Cell{}}
		i := bi*stride + 1
		for _, model := range models {
			for _, w := range widths {
				c := cells[i]
				c.Speedup = float64(base.Cycles) / float64(c.Cycles)
				br.Cells[Key{model, w}] = c
				i++
			}
		}
		out[bi] = br
	}
	return out, nil
}
