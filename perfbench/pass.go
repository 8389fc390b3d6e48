package main

// The timed phase: a sequence of units — ten equal windows of a closed
// loop, or one long op at a time — each timed on its own, with the CPU
// time the host stole during it (steal.go).

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// maxWindows is how many windows a closed-loop pass is cut into.
const maxWindows = 10

// heapPeak samples the Go heap (live and not yet swept objects) every 2 ms
// and keeps the running peak.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func heapObjects() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapPeak) observe(v uint64) {
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			h.observe(heapObjects())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak in MiB since the last take and restarts it.
func (h *heapPeak) take() float64 {
	h.observe(heapObjects())
	return float64(h.peak.Swap(0)) / (1 << 20)
}

func (h *heapPeak) close() {
	close(h.stop)
	<-h.done
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is one timed phase of planned length d.
type pass struct {
	d      time.Duration
	heap   *heapPeak
	long   bool            // one op per unit: latencies are corrected for steal
	units  []time.Duration // each unit's wall time
	stolen []float64       // the share of CPU time stolen during each unit
	peaks  []float64       // each unit's heap peak, MiB
	cpu    time.Duration   // process CPU time inside units

	wall    time.Duration // the units' total
	cpuUtil float64       // cpu ÷ (wall × nproc)
}

func beginPass(d time.Duration) *pass {
	runtime.GC()
	return &pass{d: d, heap: startHeapPeak()}
}

// unit runs fn as the next unit.
func (p *pass) unit(fn func()) {
	p.heap.take()
	c0, st0, t0 := cpuTime(), readCPUStat(), time.Now()
	fn()
	p.units = append(p.units, time.Since(t0))
	p.stolen = append(p.stolen, stolen(st0, readCPUStat()))
	p.cpu += cpuTime() - c0
	p.wall += p.units[len(p.units)-1]
	p.peaks = append(p.peaks, p.heap.take())
}

// windows runs the closed loop as maxWindows units of d/maxWindows: in
// each, clients workers call op(worker, unit) until the unit's end.
func (p *pass) windows(clients int, op func(w, unit int)) {
	for u := 0; u < maxWindows; u++ {
		p.unit(func() {
			end := time.Now().Add(p.d / maxWindows)
			var wg sync.WaitGroup
			for w := 0; w < clients; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for time.Now().Before(end) {
						op(w, u)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// each runs op(unit) as one unit at a time until d has passed, at least
// once.
func (p *pass) each(op func(unit int)) {
	p.long = true
	for u := 0; u == 0 || p.wall < p.d; u++ {
		p.unit(func() { op(u) })
	}
}

func (p *pass) finish() {
	p.heap.close()
	p.cpuUtil = float64(p.cpu) / (float64(p.wall) * float64(nproc))
}

// unstolen is the share of unit u's time the program had the CPUs.
func (p *pass) unstolen(u int) float64 { return 1 - p.stolen[u] }

// series is one client's latencies, by unit.
type series struct{ units [][]int64 }

// record adds an op of latency lat (ns) to unit u. Each unit's slice is
// sized from the previous one, so recording rarely copies (a copy would
// show in the heap peak being measured).
func (s *series) record(u int, lat int64) {
	for len(s.units) <= u {
		c := 1024
		if n := len(s.units); n > 0 {
			c = max(c, len(s.units[n-1])*5/4)
		}
		s.units = append(s.units, make([]int64, 0, c))
	}
	s.units[u] = append(s.units[u], lat)
}

// normalize returns every latency of sers as measured and, for long ops,
// with the time stolen during its unit taken out.
func (p *pass) normalize(sers []series) (raw, norm latencies) {
	for u := range p.units {
		f := 1.0
		if p.long {
			f = p.unstolen(u)
		}
		for _, s := range sers {
			if u < len(s.units) {
				for _, l := range s.units[u] {
					raw = append(raw, l)
					norm = append(norm, int64(float64(l)*f))
				}
			}
		}
	}
	return raw, norm
}

// unitStat is one unit reduced to what the end-to-end metrics need; a
// run's metrics come from the units of all its parts.
type unitStat struct {
	N    int     `json:"n"`
	Secs float64 `json:"secs"`   // the unit's time, less stolen CPU time
	P50  float64 `json:"p50_ns"` // its median latency (its one op's, when long)
	Peak float64 `json:"peak_mb"`
	Long bool    `json:"long,omitempty"`
}

// reportLatency reduces the pass to its units and prints the part's own
// figures: raw (steal included) and corrected rate and p50, the stolen
// shares, the sample count and the tail the samples support. It returns
// the raw latency summary.
func (r *report) reportLatency(p *pass, sers []series) summary {
	raw, norm := p.normalize(sers)
	for u := range p.units {
		var l latencies
		for _, s := range sers {
			if u < len(s.units) {
				l = append(l, s.units[u]...)
			}
		}
		st := unitStat{N: len(l), Secs: p.units[u].Seconds() * p.unstolen(u), Peak: p.peaks[u], Long: p.long}
		if p.long {
			for i := range l {
				l[i] = int64(float64(l[i]) * p.unstolen(u))
			}
		}
		st.P50 = l.summarize().p50
		r.units = append(r.units, st)
	}
	s, rs := norm.summarize(), raw.summarize()
	r.logf("stolen CPU share per unit: %.3f", p.stolen)
	r.logf("raw (steal included): ops_per_s %.6g, p50_us %.6g; corrected p50_us %.6g", float64(len(raw))/p.wall.Seconds(), rs.p50/1e3, s.p50/1e3)
	r.logf("samples %d", s.n)
	if v, ok := s.p99(); ok {
		r.logf("p99_us %.3f us (n=%d)", v/1e3, s.n)
	} else if s.tailPct > 0 {
		r.logf("p%g_us %.3f us (n=%d; p99 needs 1000 samples)", s.tailPct, s.tail/1e3, s.n)
	} else {
		r.logf("p99_us withheld (n=%d < 1000)", s.n)
	}
	r.setEndToEnd()
	return rs
}

// setEndToEnd sets ops_per_s (correct ops per second), p50_us and
// peak_heap_mb from r.units. Windows give the median of their rates and of
// their medians; long ops give the total rate and the median op. The heap
// figure is the median of the units' peaks. The tally must be final.
func (r *report) setEndToEnd() {
	var rates, p50s, peaks []float64
	var n int
	var secs float64
	for _, u := range r.units {
		if u.N > 0 && u.Secs > 0 {
			rates = append(rates, float64(u.N)/u.Secs)
			p50s = append(p50s, u.P50)
		}
		peaks = append(peaks, u.Peak)
		n += u.N
		secs += u.Secs
	}
	rate := median(rates)
	if len(r.units) > 0 && r.units[0].Long {
		rate = float64(n) / secs
	}
	r.setE2E("ops_per_s", rate*(1-r.tally.errorRatio()), "1/s")
	r.setE2E("p50_us", median(p50s)/1e3, "us")
	r.setE2E("peak_heap_mb", median(peaks), "MiB")
}
