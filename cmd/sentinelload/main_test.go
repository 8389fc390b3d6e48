package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sentinel/internal/server"
)

// countingListener wraps a net.Listener and counts accepted connections —
// the observable difference between keep-alive reuse (a handful of dials)
// and a per-request dial storm (hundreds).
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// startServer brings up a real sentineld serving stack on a counting
// listener and returns its base URL plus the listener for inspection.
func startServer(t *testing.T) (string, *countingListener) {
	t.Helper()
	srv := server.New(server.Config{Workers: 1})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: raw}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln) //nolint:errcheck
	t.Cleanup(func() { httpSrv.Close() })
	return "http://" + ln.Addr().String(), ln
}

// TestClosedLoopKeepAlive drives the closed loop against a real TCP server
// and asserts connections are reused: with w workers the client needs at
// most a few connections, never one per request.
func TestClosedLoopKeepAlive(t *testing.T) {
	addr, ln := startServer(t)
	const workers = 4
	cfg := config{
		addr:      addr,
		duration:  500 * time.Millisecond,
		conc:      workers,
		workloads: "cmp,wc",
		model:     "sentinel+stores",
		width:     8,
		endpoint:  "simulate",
		timeout:   10 * time.Second,
	}
	var out strings.Builder
	if code := run(cfg, &out, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "throughput:") {
		t.Fatalf("report missing throughput line:\n%s", report)
	}

	// Each raw worker dials exactly once and keeps the connection for its
	// whole run (redials happen only after errors, and the run reported
	// none); anywhere near per-request dialing would be hundreds.
	if got := ln.accepted.Load(); got != workers {
		t.Fatalf("accepted %d connections for %d workers; requests are not reusing connections", got, workers)
	}
}

// TestClosedLoopBackendTally: responses carrying X-Fleet-Backend (a router
// target) are tallied per backend in the summary, with front-cache hits
// broken out as a hit ratio.
func TestClosedLoopBackendTally(t *testing.T) {
	var n atomic.Int64
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		// First answer "from a backend", every repeat "from the cache" — the
		// shape a warmed router produces.
		if n.Add(1) == 1 {
			w.Header().Set("X-Fleet-Backend", "127.0.0.1:9999")
		} else {
			w.Header().Set("X-Fleet-Backend", "cache")
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.Write([]byte(`{"cycles":1}` + "\n")) //nolint:errcheck
	}))
	t.Cleanup(stub.Close)
	cfg := config{
		addr:      stub.URL,
		duration:  300 * time.Millisecond,
		conc:      1,
		workloads: "cmp",
		model:     "sentinel",
		width:     4,
		endpoint:  "simulate",
		timeout:   10 * time.Second,
	}
	var out strings.Builder
	if code := run(cfg, &out, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "backends:") || !strings.Contains(report, "127.0.0.1:9999:1") {
		t.Fatalf("report missing the per-backend tally:\n%s", report)
	}
	if !strings.Contains(report, "cache:") || !strings.Contains(report, "hit ratio") {
		t.Fatalf("report missing the cache hit ratio:\n%s", report)
	}
}

// TestBackendTallySilentWithoutHeader: a plain sentineld target (no
// X-Fleet-Backend header) keeps the summary unchanged.
func TestBackendTallySilentWithoutHeader(t *testing.T) {
	addr, _ := startServer(t)
	cfg := config{
		addr:      addr,
		duration:  200 * time.Millisecond,
		conc:      1,
		workloads: "cmp",
		model:     "sentinel",
		width:     4,
		endpoint:  "simulate",
		timeout:   10 * time.Second,
	}
	var out strings.Builder
	if code := run(cfg, &out, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "backends:") {
		t.Fatalf("plain sentineld run printed a backend tally:\n%s", out.String())
	}
}

// TestOpenLoopRuns exercises the rate-limited path end to end.
func TestOpenLoopRuns(t *testing.T) {
	addr, _ := startServer(t)
	cfg := config{
		addr:      addr,
		duration:  400 * time.Millisecond,
		conc:      8,
		rps:       100,
		workloads: "cmp",
		model:     "sentinel",
		width:     4,
		endpoint:  "simulate",
		timeout:   10 * time.Second,
	}
	var out strings.Builder
	if code := run(cfg, &out, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "open loop") {
		t.Fatalf("report does not mention open loop:\n%s", out.String())
	}
}

// startBatchServer brings up the serving stack behind a protocol-sniffing
// listener, exactly as sentineld deploys it: one port, both protocols.
func startBatchServer(t *testing.T) string {
	t.Helper()
	srv := server.New(server.Config{Workers: 1})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	httpLn := srv.SniffWire(raw)
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(httpLn) //nolint:errcheck
	t.Cleanup(func() { httpSrv.Close() })
	return "http://" + raw.Addr().String()
}

// TestClosedLoopBatch drives binary wire frames end to end: every element
// completes, accounting is per element, and the report names the mode.
func TestClosedLoopBatch(t *testing.T) {
	addr := startBatchServer(t)
	cfg := config{
		addr:      addr,
		duration:  400 * time.Millisecond,
		conc:      2,
		workloads: "cmp,wc",
		model:     "sentinel",
		width:     8,
		endpoint:  "simulate",
		timeout:   10 * time.Second,
		batch:     8,
	}
	var out strings.Builder
	if code := run(cfg, &out, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	report := out.String()
	for _, want := range []string{"wire simulate", "batch=8", "throughput:"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestOpenLoopBatch posts /v1/batch frames on the arrival schedule and
// parses the streamed element headers.
func TestOpenLoopBatch(t *testing.T) {
	addr := startBatchServer(t)
	cfg := config{
		addr:      addr,
		duration:  400 * time.Millisecond,
		conc:      4,
		rps:       50,
		workloads: "cmp",
		model:     "sentinel",
		width:     4,
		endpoint:  "simulate",
		timeout:   10 * time.Second,
		batch:     4,
	}
	var out strings.Builder
	if code := run(cfg, &out, &out); code != 0 {
		t.Fatalf("run exited %d:\n%s", code, out.String())
	}
	report := out.String()
	for _, want := range []string{"/v1/batch (simulate)", "batch=4", "open loop"} {
		if !strings.Contains(report, want) {
			t.Fatalf("report missing %q:\n%s", want, report)
		}
	}
}

// TestRunRejectsUnknownEndpoint covers the config validation exit path.
func TestRunRejectsUnknownEndpoint(t *testing.T) {
	var out strings.Builder
	if code := run(config{endpoint: "nope"}, io.Discard, &out); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.Contains(out.String(), "unknown -endpoint") {
		t.Fatalf("missing error message, got %q", out.String())
	}
}

// TestWorkerBodyReuse pins the raw client against a real net/http server:
// the preserialized request bytes are written verbatim every shot, the
// server sees identical bodies both times, and the worker parses the
// framed responses and keeps its one connection.
func TestWorkerBodyReuse(t *testing.T) {
	body := []byte(`{"workload":"cmp"}`)
	seen := make(chan string, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, _ := io.ReadAll(r.Body)
		seen <- string(b)
		w.Write([]byte(`{}`)) //nolint:errcheck
	}))
	defer ts.Close()

	host := strings.TrimPrefix(ts.URL, "http://")
	wk := newWorker(host, "/v1/simulate", 0, [][]byte{body}, 5*time.Second)
	defer wk.close()
	wk.shoot(0)
	wk.shoot(0)
	for i := 0; i < 2; i++ {
		if got := <-seen; got != string(body) {
			t.Fatalf("send %d delivered %q, want %q (request bytes corrupted?)", i, got, body)
		}
	}
	if len(wk.results) != 2 {
		t.Fatalf("recorded %d results, want 2", len(wk.results))
	}
	for i, r := range wk.results {
		if r.err || r.status != http.StatusOK {
			t.Fatalf("result %d = %+v, want 200 ok", i, r)
		}
	}
	if wk.conn == nil {
		t.Fatal("worker dropped its connection after framed 200 responses")
	}
}

// TestWorkerRequestIDs: every shot stamps a fresh sequence number into the
// preserialized X-Request-Id header in place, so the server can tie each
// request to the load report's slowest list without the client allocating.
func TestWorkerRequestIDs(t *testing.T) {
	seen := make(chan string, 4)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		seen <- r.Header.Get("X-Request-Id")
		w.Write([]byte(`{}`)) //nolint:errcheck
	}))
	defer ts.Close()
	host := strings.TrimPrefix(ts.URL, "http://")
	wk := newWorker(host, "/v1/simulate", 7, [][]byte{[]byte(`{"workload":"cmp"}`)}, 5*time.Second)
	defer wk.close()
	wk.shoot(0)
	wk.shoot(0)
	for i, want := range []string{"w007-00000001", "w007-00000002"} {
		if got := <-seen; got != want {
			t.Fatalf("request %d carried id %q, want %q", i, got, want)
		}
	}
	for i, r := range wk.results {
		if want := []string{"w007-00000001", "w007-00000002"}[i]; r.requestID() != want {
			t.Fatalf("result %d id = %q, want %q", i, r.requestID(), want)
		}
	}
}

// TestReportSlowest covers the -slowest dump: ordered by latency, IDs intact.
func TestReportSlowest(t *testing.T) {
	results := []result{
		{latency: 2 * time.Millisecond, status: 200, wid: 1, seq: 5},
		{latency: 9 * time.Millisecond, status: 504, wid: -1, seq: 3},
		{latency: 4 * time.Millisecond, status: 200, wid: 0, seq: 8},
		{latency: time.Millisecond, err: true}, // errors have no response to rank
	}
	var out strings.Builder
	reportSlowest(results, 2, &out)
	got := out.String()
	if !strings.Contains(got, "slowest 2:") {
		t.Fatalf("missing header:\n%s", got)
	}
	first := strings.Index(got, "id=o-00000003")
	second := strings.Index(got, "id=w000-00000008")
	if first < 0 || second < 0 || first > second {
		t.Fatalf("slowest list wrong order or missing IDs:\n%s", got)
	}
	if strings.Contains(got, "w001-00000005") {
		t.Fatalf("third-slowest leaked into a 2-entry list:\n%s", got)
	}
}

// TestWorkerParsesErrorStatus: non-200 responses are framed and recorded
// without poisoning the connection.
func TestWorkerParsesErrorStatus(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"nope"}`, http.StatusNotFound)
	}))
	defer ts.Close()
	host := strings.TrimPrefix(ts.URL, "http://")
	wk := newWorker(host, "/v1/simulate", 0, [][]byte{[]byte(`{}`)}, 5*time.Second)
	defer wk.close()
	wk.shoot(0)
	wk.shoot(0)
	if len(wk.results) != 2 {
		t.Fatalf("recorded %d results, want 2", len(wk.results))
	}
	for i, r := range wk.results {
		if r.err || r.status != http.StatusNotFound {
			t.Fatalf("result %d = %+v, want status 404", i, r)
		}
	}
	if wk.conn == nil {
		t.Fatal("worker dropped its connection on a framed error response")
	}
}

// TestHostFromAddr covers the base-URL-to-dial-target reduction, IPv6
// literals in every spelling included.
func TestHostFromAddr(t *testing.T) {
	for _, tc := range []struct {
		in, want string
		wantErr  bool
	}{
		{in: "http://127.0.0.1:8649", want: "127.0.0.1:8649"},
		{in: "127.0.0.1:8649", want: "127.0.0.1:8649"},
		{in: "http://example.com", want: "example.com:80"},
		{in: "https://example.com", wantErr: true},
		// IPv6: bracketed with port, bracketed bare, raw — all must come out
		// as a dialable [host]:port, never double-bracketed.
		{in: "http://[::1]:8649", want: "[::1]:8649"},
		{in: "[::1]:8649", want: "[::1]:8649"},
		{in: "http://[::1]", want: "[::1]:80"},
		{in: "[::1]", want: "[::1]:80"},
		{in: "::1", want: "[::1]:80"},
		{in: "[2001:db8::7]:8650", want: "[2001:db8::7]:8650"},
		{in: "2001:db8::7", want: "[2001:db8::7]:80"},
	} {
		got, err := hostFromAddr(tc.in)
		if tc.wantErr != (err != nil) {
			t.Errorf("hostFromAddr(%q) error = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && got != tc.want {
			t.Errorf("hostFromAddr(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

// TestHostsFromAddr covers the comma-separated target list: every entry
// reduces independently, whitespace is tolerated, one bad entry fails the
// whole list.
func TestHostsFromAddr(t *testing.T) {
	got, err := hostsFromAddr("http://a:8649, b:8651 ,[::1],c")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a:8649", "b:8651", "[::1]:80", "c:80"}
	if len(got) != len(want) {
		t.Fatalf("hostsFromAddr = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hostsFromAddr[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, err := hostsFromAddr("a:8649,https://b"); err == nil {
		t.Fatal("https entry in the list did not fail")
	}
	if _, err := hostsFromAddr(" , "); err == nil {
		t.Fatal("empty list did not fail")
	}
}

// TestBaseURLs covers the open loop's target normalization.
func TestBaseURLs(t *testing.T) {
	got, err := baseURLs("http://a:8649/,b:8651")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"http://a:8649", "http://b:8651"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("baseURLs[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestResolveTargets pins the flag precedence: -targets beats -addr, and
// -fleet only redirects the untouched default.
func TestResolveTargets(t *testing.T) {
	if got := resolveTargets(config{addr: defaultAddr, targets: "x:1,y:2"}); got != "x:1,y:2" {
		t.Fatalf("targets not preferred: %q", got)
	}
	if got := resolveTargets(config{addr: defaultAddr, fleet: true}); got != defaultFleetAddr {
		t.Fatalf("-fleet did not redirect the default addr: %q", got)
	}
	if got := resolveTargets(config{addr: "http://x:9", fleet: true}); got != "http://x:9" {
		t.Fatalf("-fleet overrode an explicit -addr: %q", got)
	}
	if got := resolveTargets(config{addr: "http://x:9"}); got != "http://x:9" {
		t.Fatalf("plain addr mangled: %q", got)
	}
}

// startCannedServer answers every request on a keep-alive connection with
// the same raw response bytes — shapes a net/http handler cannot produce
// on demand, such as an interim 100 ahead of the final response.
func startCannedServer(t *testing.T, response string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := http.ReadRequest(br)
					if err != nil {
						return
					}
					io.Copy(io.Discard, req.Body) //nolint:errcheck
					if _, err := c.Write([]byte(response)); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestWorkerBodylessAndInterimResponses: a keep-alive 204 has no body to
// read to EOF, and an interim 100 is not the answer. Either mistake blocks
// the shot until the client timeout and drops the connection.
func TestWorkerBodylessAndInterimResponses(t *testing.T) {
	for _, tc := range []struct {
		name, response string
		want           int
	}{
		{"204", "HTTP/1.1 204 No Content\r\n\r\n", http.StatusNoContent},
		{"100-then-200", "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}", http.StatusOK},
	} {
		t.Run(tc.name, func(t *testing.T) {
			host := startCannedServer(t, tc.response)
			const timeout = 2 * time.Second
			wk := newWorker(host, "/v1/simulate", 0, [][]byte{[]byte(`{}`)}, timeout)
			defer wk.close()
			wk.shoot(0)
			wk.shoot(0)
			for i, r := range wk.results {
				if r.err || r.status != tc.want {
					t.Fatalf("result %d = %+v, want status %d", i, r, tc.want)
				}
				if r.latency > timeout/2 {
					t.Fatalf("result %d took %v; the response is complete, nothing should wait for the timeout", i, r.latency)
				}
			}
			if wk.conn == nil {
				t.Fatal("worker dropped its keep-alive connection")
			}
		})
	}
}
