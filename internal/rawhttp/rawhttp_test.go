package rawhttp

// Pins for the response parser: interim 1xx responses are consumed, not
// mistaken for the final answer (the close-delimited branch would otherwise
// block reading to EOF on a keep-alive connection until the deadline),
// bodyless statuses (204/304) never take that branch either, and the
// request framing keeps Expect off the wire — the body is written with the
// head, so a relayed 100-continue handshake could only provoke the interim
// responses the parser defends against.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// parse reads one response off br, body included.
func parse(t *testing.T, br *bufio.Reader) (*Response, []byte) {
	t.Helper()
	r := new(Response)
	began, err := r.ReadHead(br, false)
	if err != nil {
		t.Fatalf("ReadHead: %v", err)
	}
	if !began {
		t.Fatal("ReadHead: began = false after a full response")
	}
	body, err := r.AppendBody(nil, 1<<20)
	if err != nil {
		t.Fatalf("AppendBody: %v", err)
	}
	return r, body
}

func reader(wire string) *bufio.Reader { return bufio.NewReader(strings.NewReader(wire)) }

// TestReadHeadSkipsInterim: a 100 Continue ahead of the real response
// (what a backend emits when Expect reaches it) is discarded — status,
// headers and body all come from the final response, and the interim's
// headers never leak into the recorded fields.
func TestReadHeadSkipsInterim(t *testing.T) {
	r, body := parse(t, reader(
		"HTTP/1.1 100 Continue\r\nX-Interim: leak\r\n\r\n"+
			"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 5\r\n\r\nhello"))
	if r.Status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (the interim 100 must not be the answer)", r.Status)
	}
	if string(body) != "hello" {
		t.Fatalf("body = %q, want %q", body, "hello")
	}
	if r.Close {
		t.Error("Close = true; a framed final response keeps the connection alive")
	}
	if got, _ := r.Header("content-type"); string(got) != "application/json" {
		t.Errorf("Content-Type = %q, want the final response's %q", got, "application/json")
	}
	if got, ok := r.Header("x-interim"); ok {
		t.Errorf("interim header leaked into the final response: X-Interim = %q", got)
	}
}

// TestReadHeadInterimChain: multiple interims (103 Early Hints then 100)
// still resolve to the final response; an endless interim stream is an
// error, not a hang.
func TestReadHeadInterimChain(t *testing.T) {
	r, body := parse(t, reader(
		"HTTP/1.1 103 Early Hints\r\n\r\nHTTP/1.1 100 Continue\r\n\r\n"+
			"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
	if r.Status != http.StatusOK || string(body) != "ok" {
		t.Fatalf("got status %d body %q, want 200 %q", r.Status, body, "ok")
	}

	endless := strings.Repeat("HTTP/1.1 100 Continue\r\n\r\n", 16)
	if _, err := new(Response).ReadHead(reader(endless), false); err == nil {
		t.Fatal("an interim-only stream parsed without error; want the interim bound to trip")
	}
}

// TestReadHeadBodyless: 204/304 carry no body regardless of framing
// headers, and — unlike the close-delimited branch — they preserve the
// keep-alive connection: the next response on the same reader must parse.
func TestReadHeadBodyless(t *testing.T) {
	br := reader("HTTP/1.1 204 No Content\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nnext")
	r, body := parse(t, br)
	if r.Status != http.StatusNoContent || len(body) != 0 {
		t.Fatalf("204: status %d body %q, want 204 with no body", r.Status, body)
	}
	if r.Close {
		t.Error("204: Close = true; a bodyless response keeps the connection alive")
	}
	if next, body := parse(t, br); next.Status != http.StatusOK || string(body) != "next" {
		t.Fatalf("response after the 204: status %d body %q", next.Status, body)
	}

	// A 304's Content-Length describes the representation it elides; reading
	// it as framing would swallow the next response (or block to deadline).
	br = reader("HTTP/1.1 304 Not Modified\r\nContent-Length: 10\r\nEtag: \"v1\"\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	r, body = parse(t, br)
	if r.Status != http.StatusNotModified || len(body) != 0 || r.Close {
		t.Fatalf("304: status %d body %q Close %v, want bodyless keep-alive", r.Status, body, r.Close)
	}
	if next, body := parse(t, br); next.Status != http.StatusOK || string(body) != "ok" {
		t.Fatalf("response after the 304: status %d body %q", next.Status, body)
	}
}

// TestAppendRequestStripsExpect: the hop never relays Expect — the body
// travels in the same write as the headers, so the handshake the header
// requests is impossible to honor and only provokes interim responses.
func TestAppendRequestStripsExpect(t *testing.T) {
	body := []byte(`{"workload":"cmp","model":"sentinel"}`)
	r, err := http.NewRequest(http.MethodPost, "http://x/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Header.Set("Expect", "100-continue")
	r.Header.Set("X-Request-Id", "rid-1")

	frame := string(AppendRequest(nil, r.Method, r.URL.EscapedPath(), r.URL.RawQuery, "backend:9", r.Header, body))
	if strings.Contains(strings.ToLower(frame), "expect") {
		t.Fatalf("Expect crossed the hop:\n%s", frame)
	}
	if !strings.Contains(frame, "X-Request-Id: rid-1\r\n") {
		t.Errorf("ordinary end-to-end header missing from the frame:\n%s", frame)
	}
	if !strings.Contains(frame, "Content-Length: "+strconv.Itoa(len(body))+"\r\n") {
		t.Errorf("explicit Content-Length missing from the frame:\n%s", frame)
	}
}

// TestReadHeadAllocFree: parsing a head and discarding its body allocates
// nothing once the Response's scratch has grown — the closed-loop load
// generator reads every response this way.
func TestReadHeadAllocFree(t *testing.T) {
	wire := []byte("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nX-Fleet-Backend: cache\r\n" +
		"Transfer-Encoding: chunked\r\n\r\n5;x=y\r\nhello\r\n0\r\nX-Sum: 1\r\n\r\n")
	src := bytes.NewReader(wire)
	br := bufio.NewReader(src)
	var r Response
	allocs := testing.AllocsPerRun(100, func() {
		src.Reset(wire)
		br.Reset(src)
		if _, err := r.ReadHead(br, false); err != nil {
			t.Fatal(err)
		}
		if v, ok := r.Header("x-fleet-backend"); !ok || string(v) != "cache" {
			t.Fatalf("X-Fleet-Backend = %q, %v", v, ok)
		}
		if _, err := io.Copy(io.Discard, &r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ReadHead + discard allocated %.1f times per response, want 0", allocs)
	}
}

// serveOnce answers each connection's first request with a framed 200 and
// then closes it without saying so — the stale keep-alive a pool must
// survive. Returns the address and a count of accepted connections.
func serveOnce(t *testing.T, hold time.Duration) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepted atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go func(c net.Conn) {
				defer c.Close()
				if _, err := http.ReadRequest(bufio.NewReader(c)); err != nil {
					return
				}
				time.Sleep(hold)
				c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")) //nolint:errcheck
			}(c)
		}
	}()
	return ln.Addr().String(), &accepted
}

// TestPoolRedialsStale: a pooled connection the peer closed while idle is
// stale, not a failure — the exchange moves to a fresh connection.
func TestPoolRedialsStale(t *testing.T) {
	addr, accepted := serveOnce(t, 0)
	p := NewPool(addr, 4, 4096, time.Second)
	defer p.Close()
	req := AppendRequest(nil, "GET", "/readyz", "", addr, nil, nil)
	for i := 0; i < 2; i++ {
		var resp Response
		c, err := p.Do(context.Background(), time.Now().Add(5*time.Second), req, false, &resp)
		if err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
		body, err := resp.AppendBody(nil, 64)
		if err != nil || resp.Status != http.StatusOK || string(body) != "ok" {
			t.Fatalf("exchange %d: %d %q %v", i, resp.Status, body, err)
		}
		p.Release(c, &resp)
		time.Sleep(20 * time.Millisecond) // let the peer's close land
	}
	if n := accepted.Load(); n != 2 {
		t.Fatalf("%d connections accepted, want 2 (one redial after the stale one)", n)
	}
}

// TestPoolDoCancel: cancelling the context ends a blocked exchange at once
// with the context's error — never a *DialError, which would mark a
// healthy peer down.
func TestPoolDoCancel(t *testing.T) {
	addr, _ := serveOnce(t, 5*time.Second)
	p := NewPool(addr, 4, 4096, time.Second)
	defer p.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	var resp Response
	_, err := p.Do(ctx, time.Now().Add(10*time.Second), AppendRequest(nil, "GET", "/", "", addr, nil, nil), false, &resp)
	var dial *DialError
	if !errors.Is(err, context.DeadlineExceeded) || errors.As(err, &dial) {
		t.Fatalf("Do after cancel = %v, want the context's error", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled exchange took %v", d)
	}
}
