package fleet_test

// Hop-fidelity pins for the request shapes outside the cacheable trio:
// streamed /v1/batch (including the draining-503 reroute), request bodies
// over the backends' limit, and paths the API does not define. Each answer
// through the router must carry the same status and body bytes as the same
// request sent straight to a backend. A client that gives up on a
// long-running batch must not cost the backend its health either.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sentinel/internal/fleet"
)

// send issues one request and captures what byte identity compares.
func send(t *testing.T, method, base, path string, body []byte) response {
	t.Helper()
	req, err := http.NewRequest(method, "http://"+base+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s%s: %v", method, base, path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return response{
		status:  resp.StatusCode,
		ctype:   resp.Header.Get("Content-Type"),
		body:    b,
		backend: resp.Header.Get("X-Fleet-Backend"),
	}
}

func sameAnswer(t *testing.T, what string, proxied, direct response) {
	t.Helper()
	if proxied.status != direct.status || proxied.ctype != direct.ctype || !bytes.Equal(proxied.body, direct.body) {
		t.Fatalf("%s: proxied (%d %q, %d bytes) differs from direct (%d %q, %d bytes):\nproxied: %.300s\ndirect:  %.300s",
			what, proxied.status, proxied.ctype, len(proxied.body), direct.status, direct.ctype, len(direct.body),
			proxied.body, direct.body)
	}
}

// TestFleetBatchByteIdentity: a streamed /v1/batch through the router is
// byte-identical to the direct call, and a draining owner's 503 reroutes
// the batch to a sibling whose answer is again byte-identical.
func TestFleetBatchByteIdentity(t *testing.T) {
	backends, _, router := startFleet(t, 2, func(c *fleet.Config) { c.ProbeInterval = -1 })
	// One element: a batch streams in completion order, so only a
	// single-element stream has one correct byte sequence.
	body := []byte(`[{"op":"simulate","request":{"workload":"cmp","model":"sentinel","width":4}}]`)

	first := send(t, http.MethodPost, router, "/v1/batch", body)
	if first.status != http.StatusOK || first.backend == "" || first.backend == "cache" {
		t.Fatalf("batch answered %d by %q, want 200 from a backend: %s", first.status, first.backend, first.body)
	}
	sameAnswer(t, "batch", first, send(t, http.MethodPost, first.backend, "/v1/batch", body))

	for _, b := range backends {
		if b.addr == first.backend {
			b.srv.StartDrain()
		}
	}
	rerouted := send(t, http.MethodPost, router, "/v1/batch", body)
	if rerouted.backend == first.backend || rerouted.backend == "" {
		t.Fatalf("batch after the owner drained answered by %q, want the sibling", rerouted.backend)
	}
	sameAnswer(t, "rerouted batch", rerouted, send(t, http.MethodPost, rerouted.backend, "/v1/batch", body))
}

// TestFleetOverLimitBody: bodies one byte over the backends' limit and far
// over it are refused exactly as a backend refuses them directly.
func TestFleetOverLimitBody(t *testing.T) {
	backends, _, router := startFleet(t, 1, nil)
	const limit = 4 << 20
	for _, size := range []int{limit + 1, 5 << 20} {
		body := []byte(`{"workload":"` + strings.Repeat("a", size-len(`{"workload":""}`)) + `"}`)
		proxied := send(t, http.MethodPost, router, "/v1/simulate", body)
		if proxied.status == http.StatusOK {
			t.Fatalf("%d-byte body accepted through the router", size)
		}
		sameAnswer(t, "over-limit body", proxied, send(t, http.MethodPost, backends[0].addr, "/v1/simulate", body))
	}
}

// TestFleetUnknownPath: a /v1 path the API does not define relays the
// backend's own answer.
func TestFleetUnknownPath(t *testing.T) {
	backends, _, router := startFleet(t, 1, nil)
	for _, method := range []string{http.MethodGet, http.MethodPost} {
		proxied := send(t, method, router, "/v1/nope?x=1", []byte(`{}`))
		if proxied.status == http.StatusOK {
			t.Fatalf("%s /v1/nope answered 200", method)
		}
		sameAnswer(t, method+" unknown path", proxied, send(t, method, backends[0].addr, "/v1/nope?x=1", []byte(`{}`)))
	}
}

// TestFleetBatchClientCancelKeepsBackendReady: a client that abandons a
// long-running batch cancels the hop, and that cancellation is not a
// connect failure — the backend stays ready and the router stays ready.
func TestFleetBatchClientCancelKeepsBackendReady(t *testing.T) {
	// A backend whose batch never finishes on its own: it holds the request
	// until the hop goes away.
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.Write([]byte("ready\n")) //nolint:errcheck
			return
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck // a read body lets the server notice the hop closing
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}))
	defer stub.Close()

	rt, err := fleet.New(fleet.Config{
		Backends:      []string{strings.TrimPrefix(stub.URL, "http://")},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	front := &http.Server{Handler: rt.Handler()}
	go front.Serve(ln) //nolint:errcheck
	defer front.Close()
	router := ln.Addr().String()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+router+"/v1/batch",
		strings.NewReader(`[{"op":"simulate","request":{"source":"loop: add r1, r1, 1\njmp loop\n","model":"sentinel"}}]`))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); err == nil {
		resp.Body.Close()
		t.Fatalf("batch answered %d; the stub backend never answers", resp.StatusCode)
	}

	// Give the router time to notice the cancellation and fold it in.
	time.Sleep(200 * time.Millisecond)
	var status struct {
		Backends []struct {
			Ready bool `json:"ready"`
		} `json:"backends"`
	}
	r := get(t, router, "/fleet/status")
	if err := json.Unmarshal(r.body, &status); err != nil || len(status.Backends) != 1 {
		t.Fatalf("fleet/status: %v\n%s", err, r.body)
	}
	if !status.Backends[0].Ready {
		t.Error("a client cancelling its batch marked a healthy backend unready")
	}
	if r := get(t, router, "/readyz"); r.status != http.StatusOK {
		t.Errorf("router readyz = %d %q after a client cancel, want 200", r.status, r.body)
	}
}

// TestFleetBatchStreamsProgressively: the /v1/batch relay forwards each
// flushed piece of the backend's stream as it arrives — a client reads the
// first element while the backend is still working on the second.
func TestFleetBatchStreamsProgressively(t *testing.T) {
	release := make(chan struct{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body) //nolint:errcheck
		w.Write([]byte("first\n"))  //nolint:errcheck
		w.(http.Flusher).Flush()
		select {
		case <-release:
		case <-time.After(5 * time.Second):
		}
		w.Write([]byte("second\n")) //nolint:errcheck
	}))
	defer stub.Close()

	rt, err := fleet.New(fleet.Config{
		Backends:      []string{strings.TrimPrefix(stub.URL, "http://")},
		ProbeInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	defer close(release) // first: lets every handler finish before the servers close

	got := make(chan string, 1)
	go func() {
		resp, err := http.Post(front.URL+"/v1/batch", "application/json", strings.NewReader(`[]`))
		if err != nil {
			got <- err.Error()
			return
		}
		defer resp.Body.Close()
		line, _ := bufio.NewReader(resp.Body).ReadString('\n')
		got <- line
	}()
	select {
	case line := <-got:
		if line != "first\n" {
			t.Fatalf("first streamed line = %q", line)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the first element did not reach the client before the backend finished the batch")
	}
}
