package main

// The serving targets, built in-process from the same packages and with the
// same defaults as the sentineld and sentinelfront binaries, served on
// loopback listeners.

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"sentinel/internal/eval"
	"sentinel/internal/fleet"
	"sentinel/internal/machine"
	"sentinel/internal/obs"
	"sentinel/internal/server"
	"sentinel/internal/superblock"
)

// defaultRecorder is sentineld's and sentinelfront's default flight
// recorder: 256 entries, 1 in 16 sampled, 5 ms slow.
func defaultRecorder() *obs.Recorder {
	return obs.NewRecorder(obs.RecorderConfig{Entries: 256, Every: 16, Slow: 5 * time.Millisecond})
}

// listener serves an http.Handler (plus the wire protocol through sniff) on
// a loopback port until stop.
type listener struct {
	addr string
	hs   *http.Server
	done chan error
}

func serve(h http.Handler, sniff func(net.Listener) net.Listener) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{addr: ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(sniff(ln)) }()
	return l, nil
}

// stop closes the listener and every connection, and waits for Serve to
// return.
func (l *listener) stop() {
	l.hs.Close()
	<-l.done
}

// backend is one in-process sentineld.
type backend struct {
	srv *server.Server
	reg *obs.Registry
	*listener
}

// startBackend builds a sentineld with the binary's defaults (registry,
// default recorder, 4096-entry response cache, GOMAXPROCS workers), serves
// it, and runs -warm's RunAll before marking it ready.
func startBackend() (*backend, error) {
	reg := obs.NewRegistry()
	srv := server.New(server.Config{
		MaxInFlight:    16,
		MaxQueue:       64,
		RequestTimeout: 30 * time.Second,
		Registry:       reg,
		Recorder:       defaultRecorder(),
	})
	srv.SetReady(false)
	l, err := serve(srv.Handler(), srv.SniffWire)
	if err != nil {
		return nil, err
	}
	b := &backend{srv: srv, reg: reg, listener: l}
	if _, err := srv.Runner().RunAll(paperModels, eval.Widths, superblock.Options{}); err != nil {
		b.stop()
		return nil, fmt.Errorf("warmup: %w", err)
	}
	srv.SetReady(true)
	return b, nil
}

// paperModels are the four models of Figures 4 and 5, which -warm builds.
var paperModels = []machine.Model{machine.Restricted, machine.General, machine.Sentinel, machine.SentinelStores}

// gauge reads one instrument from a registry's summary.
func gauge(reg *obs.Registry, name string) int64 {
	for _, line := range strings.Split(reg.Summary(), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && f[0] == name {
			var v int64
			fmt.Sscan(f[1], &v) //nolint:errcheck // a malformed line reads as 0
			return v
		}
	}
	return 0
}

// router is one in-process sentinelfront.
type router struct {
	rt  *fleet.Router
	reg *obs.Registry
	*listener
}

// startRouter builds a sentinelfront over addrs with the binary's defaults.
func startRouter(addrs []string) (*router, error) {
	reg := obs.NewRegistry()
	rt, err := fleet.New(fleet.Config{Backends: addrs, Registry: reg, Recorder: defaultRecorder()})
	if err != nil {
		return nil, err
	}
	l, err := serve(rt.Handler(), rt.SniffWire)
	if err != nil {
		rt.Close()
		return nil, err
	}
	return &router{rt: rt, reg: reg, listener: l}, nil
}

func (r *router) stop() {
	r.listener.stop()
	r.rt.Close()
}

// waitReady polls GET /readyz on addr until it answers 200, with no fixed
// sleep: a refused or 503 answer is retried after 200µs.
func waitReady(addr string) error {
	req := rawRequest("GET", "/readyz", addr, nil)
	deadline := time.Now().Add(30 * time.Second)
	var c *conn
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	for time.Now().Before(deadline) {
		if c == nil {
			c, _ = dial(addr)
		}
		if c != nil {
			if r, err := c.do(req, nil); err == nil && r.status == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("%s: not ready after 30s", addr)
}

// fleetTarget is a router in front of three backends.
type fleetTarget struct {
	backends []*backend
	router   *router
}

const fleetSize = 3

func startFleet() (*fleetTarget, error) {
	ft := &fleetTarget{backends: make([]*backend, fleetSize)}
	errs := make([]error, fleetSize)
	var wg sync.WaitGroup
	for i := range ft.backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ft.backends[i], errs[i] = startBackend()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		ft.stop()
		return nil, err
	}
	var addrs []string
	for _, b := range ft.backends {
		if err := waitReady(b.addr); err != nil {
			ft.stop()
			return nil, err
		}
		addrs = append(addrs, b.addr)
	}
	rt, err := startRouter(addrs)
	if err != nil {
		ft.stop()
		return nil, err
	}
	ft.router = rt
	if err := waitReady(rt.addr); err != nil {
		ft.stop()
		return nil, err
	}
	return ft, nil
}

func (ft *fleetTarget) stop() {
	if ft.router != nil {
		ft.router.stop()
	}
	for _, b := range ft.backends {
		if b != nil {
			b.stop()
		}
	}
}

// captureWriter is a minimal http.ResponseWriter for in-process handler
// calls; it keeps the status and body and reuses its buffers.
type captureWriter struct {
	h      http.Header
	status int
	body   bytes.Buffer
}

func (c *captureWriter) Header() http.Header {
	if c.h == nil {
		c.h = http.Header{}
	}
	return c.h
}

func (c *captureWriter) WriteHeader(status int) {
	if c.status == 0 {
		c.status = status
	}
}

func (c *captureWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	return c.body.Write(p)
}

func (c *captureWriter) Flush() {}

func (c *captureWriter) reset() {
	clear(c.h)
	c.status = 0
	c.body.Reset()
}

// inProcess calls h directly with one request (no TCP) and returns the
// status and a copy of the body.
func inProcess(h http.Handler, method, path string, body []byte) (int, []byte) {
	var cw captureWriter
	req, _ := http.NewRequest(method, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(&cw, req)
	return cw.status, bytes.Clone(cw.body.Bytes())
}

// reference is the correctness oracle: a sentineld with its response cache
// off, asked in-process. Every served byte the benchmark receives must equal
// the oracle's answer to the same request.
type reference struct {
	srv *server.Server
}

func newReference() *reference {
	return &reference{srv: server.New(server.Config{RespCacheEntries: -1, RequestTimeout: time.Minute})}
}

// answer returns the oracle's response to one request, or an error when
// the oracle itself does not answer 200.
func (r *reference) answer(path string, body []byte) ([]byte, error) {
	status, out := inProcess(r.srv.Handler(), "POST", path, body)
	if status != http.StatusOK {
		return nil, fmt.Errorf("reference %s %s: status %d: %s", path, body, status, out)
	}
	return out, nil
}

// answerAll answers ks on nproc goroutines.
func (r *reference) answerAll(ks []key) ([][]byte, error) {
	out := make([][]byte, len(ks))
	err := parallel(len(ks), func(i int) error {
		var err error
		out[i], err = r.answer(ks[i].path, ks[i].body)
		return err
	})
	return out, err
}

// parallel runs fn(0..n-1) on nproc goroutines and returns their errors.
func parallel(n int, fn func(i int) error) error {
	return parallelWorkers(n, func(_, i int) error { return fn(i) })
}

// parallelWorkers is parallel with the worker index passed to fn; a
// worker stops at its first error.
func parallelWorkers(n int, fn func(w, i int) error) error {
	var next sync.Mutex
	i := 0
	errs := make([]error, nproc)
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				j := i
				i++
				next.Unlock()
				if j >= n || errs[w] != nil {
					return
				}
				errs[w] = fn(w, j)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
