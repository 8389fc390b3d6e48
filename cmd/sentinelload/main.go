// Command sentinelload is the load generator for sentineld: it drives
// /v1/simulate (or /v1/schedule) with a mixed workload profile and reports
// throughput and a latency histogram.
//
//	sentinelload -addr http://localhost:8649 -duration 10s -c 8
//	sentinelload -rps 500 -duration 30s -workloads cmp,wc,grep,matrix300
//	sentinelload -fleet -duration 10s -c 16             # drive a sentinelfront router
//	sentinelload -targets a:8649,b:8649 -duration 10s   # spread workers across targets
//
// Two driving modes:
//
//   - closed loop (default): -c workers each keep exactly one request in
//     flight, so offered load adapts to service rate — the mode for "how
//     fast can it go".
//   - open loop (-rps > 0): requests start on a fixed schedule regardless
//     of completions (up to -c concurrent), so queueing delay is visible —
//     the mode for "what does p99 look like at this arrival rate".
//
// Requests cycle deterministically through the -workloads list. The exit
// code is nonzero when any request failed or the achieved throughput fell
// below -min-rps (the CI smoke gate).
//
// -batch N switches both modes to batched requests while keeping latency
// and throughput accounting per element, so batched and single-request runs
// compare directly. The closed loop sends preserialized binary wire frames
// (internal/wire) over its raw connections and timestamps each element as
// its header arrives; the open loop posts the same mix to /v1/batch and
// parses the streamed element headers.
//
// The generator is built not to measure its own allocator. The closed loop
// is a raw HTTP/1.1 client in the wrk mold: each worker owns one keep-alive
// TCP connection and a set of fully preserialized request byte strings (one
// per workload, request line + headers + body rendered once at startup),
// writes them with a single syscall, and reads the response with
// internal/rawhttp — the router's own hop parser — discarding the body in
// place. No net/http client, no per-request allocation, no shared state
// between workers until results merge after the clock stops. The open loop
// keeps net/http: arrivals spawn goroutines and the rate limiter, not the
// client, dominates that mode.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"sentinel/internal/rawhttp"
	"sentinel/internal/wire"
)

type result struct {
	latency time.Duration
	status  int
	// wid/seq reconstruct the request ID the server saw ("w<wid>-<seq>"
	// closed loop, "o-<seq>" when wid < 0) without storing a string per
	// request.
	wid int32
	seq int32
	err bool
}

// requestID renders the X-Request-Id this result's request carried.
func (r result) requestID() string {
	if r.wid < 0 {
		return fmt.Sprintf("o-%08d", r.seq)
	}
	return fmt.Sprintf("w%03d-%08d", r.wid, r.seq)
}

// config is everything main's flags select; run is the testable core.
type config struct {
	addr      string
	targets   string
	fleet     bool
	duration  time.Duration
	conc      int
	rps       float64
	workloads string
	model     string
	width     int
	endpoint  string
	timeout   time.Duration
	minRPS    float64
	slowest   int
	batch     int
}

// Default bases for the two deployment shapes: a single sentineld, or a
// sentinelfront router fronting the fleet (-fleet).
const (
	defaultAddr      = "http://127.0.0.1:8649"
	defaultFleetAddr = "http://127.0.0.1:8650"
)

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", defaultAddr, "base URL of the sentineld server (or sentinelfront router); accepts a comma-separated list")
	flag.StringVar(&cfg.targets, "targets", "", "comma-separated base URLs to spread load across (overrides -addr)")
	flag.BoolVar(&cfg.fleet, "fleet", false, "drive a sentinelfront router: default the target to "+defaultFleetAddr+" when -addr/-targets are not set")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "how long to drive load")
	flag.IntVar(&cfg.conc, "c", 8, "concurrency: closed-loop workers, or the open-loop in-flight cap")
	flag.Float64Var(&cfg.rps, "rps", 0, "open-loop target arrival rate in req/s (0 = closed loop)")
	flag.StringVar(&cfg.workloads, "workloads", "cmp,wc,grep,eqntott", "comma-separated workload mix, cycled per request")
	flag.StringVar(&cfg.model, "model", "sentinel+stores", "speculation model for every request")
	flag.IntVar(&cfg.width, "width", 8, "issue width for every request")
	flag.StringVar(&cfg.endpoint, "endpoint", "simulate", "endpoint to drive: simulate or schedule")
	flag.DurationVar(&cfg.timeout, "timeout", 10*time.Second, "per-request client timeout")
	flag.Float64Var(&cfg.minRPS, "min-rps", 0, "exit nonzero when achieved req/s falls below this")
	flag.IntVar(&cfg.slowest, "slowest", 0, "after the run, list the N slowest requests with their request IDs")
	flag.IntVar(&cfg.batch, "batch", 0, "send N-element batches instead of single requests (closed loop: binary wire frames; open loop: POST /v1/batch); latency and throughput stay per element")
	flag.Parse()
	os.Exit(run(cfg, os.Stdout, os.Stderr))
}

// encodeBodies marshals one request body per workload, once, up front.
func encodeBodies(cfg config) ([][]byte, error) {
	var bodies [][]byte
	for _, name := range strings.Split(cfg.workloads, ",") {
		body, err := json.Marshal(map[string]any{
			"workload": strings.TrimSpace(name),
			"model":    cfg.model,
			"width":    cfg.width,
		})
		if err != nil {
			return nil, err
		}
		bodies = append(bodies, body)
	}
	return bodies, nil
}

// hostFromAddr reduces one base URL to a raw dial target. The closed loop
// speaks HTTP/1.1 over plain TCP, so only http (or schemeless) bases are
// accepted there. IPv6 literals work in every spelling: bracketed with a
// port ("[::1]:8649"), bracketed bare ("[::1]"), or raw ("::1").
func hostFromAddr(addr string) (string, error) {
	host := addr
	if strings.Contains(addr, "://") {
		u, err := url.Parse(addr)
		if err != nil {
			return "", err
		}
		if u.Scheme != "http" {
			return "", fmt.Errorf("closed loop speaks plain http; unsupported scheme %q", u.Scheme)
		}
		host = u.Host
	}
	if host == "" {
		return "", fmt.Errorf("no host in -addr %q", addr)
	}
	if _, _, err := net.SplitHostPort(host); err != nil {
		// No port. JoinHostPort adds brackets itself, so an already-bracketed
		// IPv6 literal must shed them first or it would come out
		// double-bracketed ("[[::1]]:80").
		if strings.HasPrefix(host, "[") && strings.HasSuffix(host, "]") {
			host = host[1 : len(host)-1]
		}
		host = net.JoinHostPort(host, "80")
	}
	return host, nil
}

// hostsFromAddr expands a comma-separated target list into raw dial
// targets, one per entry.
func hostsFromAddr(addrs string) ([]string, error) {
	var hosts []string
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		h, err := hostFromAddr(a)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, h)
	}
	if len(hosts) == 0 {
		return nil, fmt.Errorf("no targets in %q", addrs)
	}
	return hosts, nil
}

// baseURLs expands a comma-separated target list into normalized http base
// URLs for the open loop's net/http client.
func baseURLs(addrs string) ([]string, error) {
	var urls []string
	for _, a := range strings.Split(addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		if !strings.Contains(a, "://") {
			a = "http://" + a
		}
		urls = append(urls, strings.TrimSuffix(a, "/"))
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("no targets in %q", addrs)
	}
	return urls, nil
}

// resolveTargets applies the precedence -targets > -addr, with -fleet
// switching the untouched default onto the router's port.
func resolveTargets(cfg config) string {
	if cfg.targets != "" {
		return cfg.targets
	}
	if cfg.fleet && cfg.addr == defaultAddr {
		return defaultFleetAddr
	}
	return cfg.addr
}

// rawRequest renders one complete HTTP/1.1 request — line, headers, body —
// into a byte string a worker can write with a single syscall forever. The
// X-Request-Id header carries the worker ID plus an 8-digit decimal sequence
// number; seqOff is the offset of those digits, so the worker can stamp each
// shot's sequence in place without reserializing anything.
func rawRequest(host, path string, wid int, body []byte) (req []byte, seqOff int) {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nX-Request-Id: w%03d-",
		path, host, wid)
	seqOff = b.Len()
	fmt.Fprintf(&b, "00000000\r\nContent-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	return b.Bytes(), seqOff
}

// patchSeq overwrites the 8-digit decimal field at off with n (mod 10^8).
func patchSeq(req []byte, off, n int) {
	for i := off + 7; i >= off; i-- {
		req[i] = byte('0' + n%10)
		n /= 10
	}
}

// link is what both closed-loop drivers share: a dedicated keep-alive
// connection, redialed after any error, and a private result slice nothing
// else touches until the merge.
type link struct {
	host    string
	conn    net.Conn
	br      *bufio.Reader
	results []result
	timeout time.Duration
	wid     int
	seq     int
}

// send writes one preserialized request or frame, dialing first when the
// last shot dropped the connection; the whole shot shares one deadline.
func (l *link) send(b []byte, bufSize int) error {
	if l.conn == nil {
		c, err := net.DialTimeout("tcp", l.host, l.timeout)
		if err != nil {
			return err
		}
		l.conn = c
		if l.br == nil {
			l.br = bufio.NewReaderSize(c, bufSize)
		} else {
			l.br.Reset(c)
		}
	}
	if err := l.conn.SetDeadline(time.Now().Add(l.timeout)); err != nil {
		return err
	}
	_, err := l.conn.Write(b)
	return err
}

func (l *link) close() {
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}

// worker is one closed-loop driver: its link and the preserialized request
// per workload in the mix.
type worker struct {
	link
	reqs    [][]byte
	seqOffs []int
	resp    rawhttp.Response

	// Per-worker X-Fleet-Backend tally (who actually answered when driving a
	// router: backend addresses, or "cache" for front-cache hits). A linear
	// scan over a handful of names, compared without allocating; merged into
	// the summary after the clock stops.
	fleetNames  []string
	fleetCounts []int
}

// tallyBackend attributes one response to the X-Fleet-Backend value it
// carried. string(v) == name compiles to an allocation-free comparison; the
// only allocation is the first sighting of each distinct backend.
func (w *worker) tallyBackend(v []byte) {
	for i, name := range w.fleetNames {
		if string(v) == name {
			w.fleetCounts[i]++
			return
		}
	}
	w.fleetNames = append(w.fleetNames, string(v))
	w.fleetCounts = append(w.fleetCounts, 1)
}

func newWorker(host, path string, wid int, bodies [][]byte, timeout time.Duration) *worker {
	w := &worker{link: link{host: host, timeout: timeout, wid: wid}}
	for _, body := range bodies {
		req, off := rawRequest(host, path, wid, body)
		w.reqs = append(w.reqs, req)
		w.seqOffs = append(w.seqOffs, off)
	}
	return w
}

// shoot sends preserialized request j — stamped with this shot's sequence
// number — and records the outcome locally. Any transport or framing error
// drops the connection; the next shot redials.
func (w *worker) shoot(j int) {
	w.seq++
	patchSeq(w.reqs[j], w.seqOffs[j], w.seq)
	t0 := time.Now()
	status, err := w.do(j)
	lat := time.Since(t0)
	if err != nil {
		w.close()
		w.results = append(w.results, result{latency: lat, wid: int32(w.wid), seq: int32(w.seq), err: true})
		return
	}
	w.results = append(w.results, result{latency: lat, status: status, wid: int32(w.wid), seq: int32(w.seq)})
}

func (w *worker) do(j int) (int, error) {
	if err := w.send(w.reqs[j], 16<<10); err != nil {
		return 0, err
	}
	// Parse the head, tally who answered, discard the body in place.
	if _, err := w.resp.ReadHead(w.br, false); err != nil {
		return 0, err
	}
	if v, ok := w.resp.Header("X-Fleet-Backend"); ok {
		w.tallyBackend(v)
	}
	if _, err := io.Copy(io.Discard, &w.resp); err != nil {
		return 0, err
	}
	if w.resp.Close {
		w.close()
	}
	return w.resp.Status, nil
}

// batchWorker is one closed-loop batch driver: a link speaking the binary
// wire protocol (internal/wire), one preserialized N-element request frame
// written per shot, and a result per element timestamped as its header
// arrives. The frame is immutable after construction, so every worker
// shares the same bytes.
type batchWorker struct {
	link
	frame []byte
}

// buildBatchFrame preserializes the wire request frame: cfg.batch elements
// cycling through the workload mix, tagged by position.
func buildBatchFrame(cfg config, bodies [][]byte) []byte {
	op := byte(wire.OpSimulate)
	if cfg.endpoint == "schedule" {
		op = wire.OpSchedule
	}
	elems := make([]wire.ReqElem, cfg.batch)
	for i := range elems {
		elems[i] = wire.ReqElem{Tag: uint32(i), Op: op, Payload: bodies[i%len(bodies)]}
	}
	return wire.AppendRequest(nil, &wire.ReqFrame{Elems: elems})
}

// shoot sends one frame and drains its response, recording one result per
// element: the latency is frame send to that element's header, which is
// what makes batched and single-request runs comparable. Any transport or
// protocol error — server error frames included — costs one error result
// and the connection; the next shot redials.
func (w *batchWorker) shoot() {
	w.seq++
	t0 := time.Now()
	if err := w.do(t0); err != nil {
		w.close()
		w.results = append(w.results, result{latency: time.Since(t0), wid: int32(w.wid), seq: int32(w.seq), err: true})
	}
}

func (w *batchWorker) do(t0 time.Time) error {
	if err := w.send(w.frame, 64<<10); err != nil {
		return err
	}
	count, err := wire.ReadResponseHeader(w.br, wire.Limits{})
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		_, status, plen, err := wire.ReadElemHeader(w.br, wire.Limits{})
		if err != nil {
			return err
		}
		lat := time.Since(t0)
		if _, err := w.br.Discard(plen); err != nil {
			return err
		}
		w.results = append(w.results, result{latency: lat, status: status, wid: int32(w.wid), seq: int32(w.seq)})
	}
	return nil
}

// buildBatchBody renders the open loop's /v1/batch JSON array once: the
// same workload mix and op for every arrival.
func buildBatchBody(cfg config, bodies [][]byte) []byte {
	var b bytes.Buffer
	b.WriteByte('[')
	for i := 0; i < cfg.batch; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `{"op":%q,"request":%s}`, cfg.endpoint, bodies[i%len(bodies)])
	}
	b.WriteByte(']')
	return b.Bytes()
}

// batchLine is one /v1/batch stream header line (or the done trailer).
type batchLine struct {
	Index  int  `json:"index"`
	Status int  `json:"status"`
	Bytes  int  `json:"bytes"`
	Done   bool `json:"done"`
}

// drainBatchStream parses a /v1/batch response stream, invoking rec with
// each element's status and its latency measured from t0 to the header
// line; payloads are discarded.
func drainBatchStream(r io.Reader, t0 time.Time, rec func(status int, lat time.Duration)) error {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return err
		}
		var h batchLine
		if err := json.Unmarshal(line, &h); err != nil {
			return err
		}
		if h.Done {
			return nil
		}
		rec(h.Status, time.Since(t0))
		if _, err := br.Discard(h.Bytes); err != nil {
			return err
		}
	}
}

func run(cfg config, out, errOut io.Writer) int {
	var path string
	switch cfg.endpoint {
	case "simulate":
		path = "/v1/simulate"
	case "schedule":
		path = "/v1/schedule"
	default:
		fmt.Fprintf(errOut, "sentinelload: unknown -endpoint %q\n", cfg.endpoint)
		return 2
	}

	bodies, err := encodeBodies(cfg)
	if err != nil {
		fmt.Fprintf(errOut, "sentinelload: %v\n", err)
		return 2
	}

	ctx, cancel := context.WithTimeout(context.Background(), cfg.duration)
	defer cancel()

	var results []result
	backendTally := map[string]int{}
	start := time.Now()
	var wg sync.WaitGroup
	targets := resolveTargets(cfg)
	if cfg.rps <= 0 && cfg.batch > 0 {
		// Closed loop, batched: conc raw-TCP workers each keep one wire
		// frame in flight, sharing the preserialized frame bytes. Workers
		// spread round-robin across the target list.
		hosts, err := hostsFromAddr(targets)
		if err != nil {
			fmt.Fprintf(errOut, "sentinelload: %v\n", err)
			return 2
		}
		frame := buildBatchFrame(cfg, bodies)
		workers := make([]*batchWorker, cfg.conc)
		for i := range workers {
			workers[i] = &batchWorker{link: link{host: hosts[i%len(hosts)], timeout: cfg.timeout, wid: i}, frame: frame}
		}
		for w := 0; w < cfg.conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wk := workers[w]
				defer wk.close()
				for ctx.Err() == nil {
					wk.shoot()
				}
			}(w)
		}
		wg.Wait()
		for _, wk := range workers {
			results = append(results, wk.results...)
		}
	} else if cfg.rps <= 0 {
		// Closed loop: conc raw-TCP workers, one request in flight each, no
		// shared state between them until the merge below. Workers spread
		// round-robin across the target list.
		hosts, err := hostsFromAddr(targets)
		if err != nil {
			fmt.Fprintf(errOut, "sentinelload: %v\n", err)
			return 2
		}
		workers := make([]*worker, cfg.conc)
		for i := range workers {
			workers[i] = newWorker(hosts[i%len(hosts)], path, i, bodies, cfg.timeout)
		}
		for w := 0; w < cfg.conc; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wk := workers[w]
				defer wk.close()
				for i := w; ctx.Err() == nil; i += cfg.conc {
					wk.shoot(i % len(bodies))
				}
			}(w)
		}
		wg.Wait()
		for _, wk := range workers {
			results = append(results, wk.results...)
			for i, name := range wk.fleetNames {
				backendTally[name] += wk.fleetCounts[i]
			}
		}
	} else {
		// Open loop: fixed arrival schedule, capped at conc in flight
		// (arrivals beyond the cap are dropped and counted as errors —
		// the server would see them as queue pressure anyway). Arrivals
		// spawn goroutines, so recording goes through a mutex here; the
		// rate limiter, not the allocator, dominates this mode. Arrivals
		// spread round-robin across the target list.
		bases, err := baseURLs(targets)
		if err != nil {
			fmt.Fprintf(errOut, "sentinelload: %v\n", err)
			return 2
		}
		client := &http.Client{
			Timeout: cfg.timeout,
			Transport: &http.Transport{
				MaxIdleConns:        cfg.conc * 2,
				MaxIdleConnsPerHost: cfg.conc * 2,
			},
		}
		var mu sync.Mutex
		record := func(r result) {
			mu.Lock()
			results = append(results, r)
			mu.Unlock()
		}
		var shoot func(i int)
		if cfg.batch > 0 {
			// Batched arrivals: each tick posts one /v1/batch frame; every
			// streamed element header becomes its own result.
			frame := buildBatchBody(cfg, bodies)
			shoot = func(i int) {
				batchURL := bases[i%len(bases)] + "/v1/batch"
				req, err := http.NewRequest(http.MethodPost, batchURL, bytes.NewReader(frame))
				if err != nil {
					record(result{wid: -1, seq: int32(i), err: true})
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Request-Id", fmt.Sprintf("o-%08d", i))
				t0 := time.Now()
				resp, err := client.Do(req)
				if err != nil {
					record(result{latency: time.Since(t0), wid: -1, seq: int32(i), err: true})
					return
				}
				if resp.StatusCode != http.StatusOK {
					io.Copy(io.Discard, resp.Body) //nolint:errcheck
					resp.Body.Close()
					record(result{latency: time.Since(t0), status: resp.StatusCode, wid: -1, seq: int32(i)})
					return
				}
				err = drainBatchStream(resp.Body, t0, func(status int, lat time.Duration) {
					record(result{latency: lat, status: status, wid: -1, seq: int32(i)})
				})
				resp.Body.Close()
				if err != nil {
					record(result{latency: time.Since(t0), wid: -1, seq: int32(i), err: true})
				}
			}
		} else {
			shoot = func(i int) {
				body := bodies[i%len(bodies)]
				req, err := http.NewRequest(http.MethodPost, bases[i%len(bases)]+path, bytes.NewReader(body))
				if err != nil {
					record(result{wid: -1, seq: int32(i), err: true})
					return
				}
				req.Header.Set("Content-Type", "application/json")
				req.Header.Set("X-Request-Id", fmt.Sprintf("o-%08d", i))
				t0 := time.Now()
				resp, err := client.Do(req)
				lat := time.Since(t0)
				if err != nil {
					record(result{latency: lat, wid: -1, seq: int32(i), err: true})
					return
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
				resp.Body.Close()
				record(result{latency: lat, status: resp.StatusCode, wid: -1, seq: int32(i)})
			}
		}
		sem := make(chan struct{}, cfg.conc)
		interval := time.Duration(float64(time.Second) / cfg.rps)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		i := 0
	loop:
		for {
			select {
			case <-ctx.Done():
				break loop
			case <-ticker.C:
				select {
				case sem <- struct{}{}:
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						defer func() { <-sem }()
						shoot(i)
					}(i)
				default:
					record(result{err: true}) // in-flight cap exceeded
				}
				i++
			}
		}
		wg.Wait()
	}
	elapsed := time.Since(start)
	dispPath := path
	if cfg.batch > 0 {
		if cfg.rps <= 0 {
			dispPath = "wire " + cfg.endpoint
		} else {
			dispPath = "/v1/batch (" + cfg.endpoint + ")"
		}
	}
	report(results, elapsed, cfg.rps, cfg.conc, cfg.batch, dispPath, out)
	reportBackends(backendTally, out)
	if cfg.slowest > 0 {
		reportSlowest(results, cfg.slowest, out)
	}

	ok, total := tally(results)
	achieved := float64(ok) / elapsed.Seconds()
	if ok < total || achieved < cfg.minRPS {
		return 1
	}
	return 0
}

func tally(results []result) (ok, total int) {
	for _, r := range results {
		if !r.err && r.status == http.StatusOK {
			ok++
		}
	}
	return ok, len(results)
}

func report(results []result, elapsed time.Duration, rps float64, conc, batch int, path string, w io.Writer) {
	mode := fmt.Sprintf("closed loop, %d workers", conc)
	if rps > 0 {
		mode = fmt.Sprintf("open loop, target %.0f req/s, cap %d in flight", rps, conc)
	}
	if batch > 0 {
		mode += fmt.Sprintf(", batch=%d", batch)
	}
	fmt.Fprintf(w, "sentinelload: %s for %.1fs (%s)\n", path, elapsed.Seconds(), mode)

	byStatus := map[int]int{}
	netErrs := 0
	var lats []time.Duration
	for _, r := range results {
		if r.err {
			netErrs++
			continue
		}
		byStatus[r.status]++
		if r.status == http.StatusOK {
			lats = append(lats, r.latency)
		}
	}
	var statuses []int
	for s := range byStatus {
		statuses = append(statuses, s)
	}
	sort.Ints(statuses)
	var parts []string
	for _, s := range statuses {
		parts = append(parts, fmt.Sprintf("%d:%d", s, byStatus[s]))
	}
	if netErrs > 0 {
		parts = append(parts, fmt.Sprintf("net-error:%d", netErrs))
	}
	fmt.Fprintf(w, "requests:   %d total (%s)\n", len(results), strings.Join(parts, " "))
	fmt.Fprintf(w, "throughput: %.1f req/s ok\n", float64(len(lats))/elapsed.Seconds())
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	q := func(p float64) time.Duration {
		i := int(p * float64(len(lats)-1))
		return lats[i]
	}
	fmt.Fprintf(w, "latency:    mean=%s p50=%s p90=%s p95=%s p99=%s max=%s\n",
		round(sum/time.Duration(len(lats))), round(q(0.50)), round(q(0.90)),
		round(q(0.95)), round(q(0.99)), round(lats[len(lats)-1]))
}

// reportBackends summarizes who answered when the target was a
// sentinelfront router: per-backend response counts from the X-Fleet-Backend
// header, with front-cache hits ("cache") broken out as a hit ratio. Silent
// when the header never appeared (a plain sentineld target).
func reportBackends(tally map[string]int, w io.Writer) {
	if len(tally) == 0 {
		return
	}
	var names []string
	total := 0
	for name, n := range tally {
		names = append(names, name)
		total += n
	}
	sort.Strings(names)
	var parts []string
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", name, tally[name]))
	}
	fmt.Fprintf(w, "backends:   %s\n", strings.Join(parts, " "))
	if hits := tally["cache"]; hits > 0 {
		fmt.Fprintf(w, "cache:      %d of %d router answers from the front cache (%.1f%% hit ratio)\n",
			hits, total, 100*float64(hits)/float64(total))
	}
}

// reportSlowest lists the n slowest completed requests with the request IDs
// they carried — the handle for looking them up in the server's flight
// recorder (/debug/requests) or access log.
func reportSlowest(results []result, n int, w io.Writer) {
	done := make([]result, 0, len(results))
	for _, r := range results {
		if !r.err {
			done = append(done, r)
		}
	}
	if len(done) == 0 {
		return
	}
	sort.Slice(done, func(i, j int) bool { return done[i].latency > done[j].latency })
	if n > len(done) {
		n = len(done)
	}
	fmt.Fprintf(w, "slowest %d:\n", n)
	for _, r := range done[:n] {
		fmt.Fprintf(w, "  %10s  status=%d  id=%s\n", round(r.latency), r.status, r.requestID())
	}
}

func round(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
