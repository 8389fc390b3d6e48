package main

import (
	"bufio"
	"errors"
	"strings"
	"testing"

	"sentinel/internal/wire"
)

func reader(s string) *bufio.Reader { return bufio.NewReader(strings.NewReader(s)) }

func TestReadResponseContentLength(t *testing.T) {
	br := reader("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nX-Fleet-Backend: cache\r\n\r\nhelloHTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\nno")
	r, err := readResponse(br, nil)
	if err != nil || r.status != 200 || string(r.body) != "hello" || r.backend != "cache" {
		t.Fatalf("first response = %+v, %v", r, err)
	}
	r, err = readResponse(br, r.body)
	if err != nil || r.status != 404 || string(r.body) != "no" || r.backend != "" {
		t.Fatalf("second response = %+v, %v", r, err)
	}
}

func TestReadResponseChunked(t *testing.T) {
	br := reader("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"4\r\nWiki\r\n6;ext=1\r\npedia \r\n0\r\nX-Trailer: t\r\n\r\n" +
		"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nx")
	r, err := readResponse(br, nil)
	if err != nil || string(r.body) != "Wikipedia " {
		t.Fatalf("chunked body = %q, %v", r.body, err)
	}
	if r, err = readResponse(br, nil); err != nil || string(r.body) != "x" {
		t.Fatalf("response after the chunked one = %q, %v", r.body, err)
	}
}

// An interim 100 Continue (what a Go backend emits for Expect:
// 100-continue) is skipped, not taken for the final response; a bodyless
// 204 consumes nothing of the next response.
func TestReadResponseInterimAndNoBody(t *testing.T) {
	br := reader("HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok" +
		"HTTP/1.1 204 No Content\r\n\r\n" +
		"HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\nHTTP/1.1 201 Created\r\nContent-Length: 0\r\n\r\n")
	for _, want := range []struct {
		status int
		body   string
	}{{200, "ok"}, {204, ""}, {201, ""}} {
		r, err := readResponse(br, nil)
		if err != nil || r.status != want.status || string(r.body) != want.body {
			t.Fatalf("got %d %q (%v), want %d %q", r.status, r.body, err, want.status, want.body)
		}
	}
	if _, err := br.Peek(1); err == nil {
		t.Error("bytes left over after the last response")
	}
}

func TestReadResponseUntilClose(t *testing.T) {
	r, err := readResponse(reader("HTTP/1.0 200 OK\r\n\r\nrest of stream"), nil)
	if err != nil || string(r.body) != "rest of stream" || !r.close {
		t.Fatalf("got %+v, %v", r, err)
	}
	r, err = readResponse(reader("HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 1\r\n\r\nz"), nil)
	if err != nil || !r.close || string(r.body) != "z" {
		t.Fatalf("got %+v, %v", r, err)
	}
}

func TestReadResponseMalformed(t *testing.T) {
	for _, in := range []string{
		"HTTP/1.1 2x0 OK\r\n\r\n",
		"SSH-2.0-OpenSSH\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n",
		"HTTP/1.1 200 OK\r\nno colon here\r\n\r\n",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n",
	} {
		if _, err := readResponse(reader(in), nil); !errors.Is(err, errMalformed) {
			t.Errorf("%q: err = %v, want errMalformed", in, err)
		}
	}
	if _, err := readResponse(reader("HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort"), nil); err == nil {
		t.Error("a truncated body read without error")
	}
}

func TestRawRequest(t *testing.T) {
	got := string(rawRequest("POST", "/v1/simulate", "h:1", []byte(`{}`)))
	want := "POST /v1/simulate HTTP/1.1\r\nHost: h:1\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"
	if got != want {
		t.Errorf("rawRequest = %q, want %q", got, want)
	}
}

func responseFrame(elems ...struct {
	tag     uint32
	status  int
	payload string
}) []byte {
	b := wire.AppendResponseHeader(nil, len(elems))
	for _, e := range elems {
		b = wire.AppendElemHeader(b, e.tag, e.status, len(e.payload))
		b = append(b, e.payload...)
	}
	return b
}

type elem = struct {
	tag     uint32
	status  int
	payload string
}

func TestReadFrameCompletionOrder(t *testing.T) {
	fr := responseFrame(elem{2, 200, "c"}, elem{0, 200, "aa"}, elem{1, 422, "bbb"})
	got := map[uint32]string{}
	status := map[uint32]int{}
	_, err := readFrame(bufio.NewReader(strings.NewReader(string(fr))), 3, nil, func(tag uint32, st int, p []byte) {
		got[tag] = string(p)
		status[tag] = st
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != "aa" || got[1] != "bbb" || got[2] != "c" || status[1] != 422 {
		t.Errorf("elements = %v %v", got, status)
	}
}

func TestReadFrameRejects(t *testing.T) {
	nop := func(uint32, int, []byte) {}
	read := func(b []byte, want int) error {
		_, err := readFrame(bufio.NewReader(strings.NewReader(string(b))), want, nil, nop)
		return err
	}
	if err := read(responseFrame(elem{0, 200, "a"}), 2); err == nil {
		t.Error("a short frame was accepted")
	}
	if err := read(responseFrame(elem{0, 200, "a"}, elem{0, 200, "b"}), 2); err == nil {
		t.Error("a repeated tag was accepted")
	}
	if err := read(responseFrame(elem{5, 200, "a"}), 1); err == nil {
		t.Error("an out-of-range tag was accepted")
	}
	var pe *wire.ProtocolError
	if err := read(wire.AppendError(nil, wire.ErrOverload, "busy"), 1); !errors.As(err, &pe) || pe.Code != wire.ErrOverload {
		t.Errorf("error frame gave %v, want an overload ProtocolError", err)
	}
	full := responseFrame(elem{0, 200, "abcdef"})
	if err := read(full[:len(full)-2], 1); err == nil {
		t.Error("a truncated payload was accepted")
	}
}

func TestCheckBatchStream(t *testing.T) {
	expect := [][]byte{[]byte("A\n"), []byte("BB\n")}
	good := `{"index":1,"status":200,"bytes":3}` + "\nBB\n" + `{"index":0,"status":200,"bytes":2}` + "\nA\n" + `{"done":true,"elements":2}` + "\n"
	if err := checkBatchStream([]byte(good), expect); err != nil {
		t.Errorf("good stream: %v", err)
	}
	for name, bad := range map[string]string{
		"missing":  `{"index":0,"status":200,"bytes":2}` + "\nA\n" + `{"done":true,"elements":1}` + "\n",
		"wrong":    `{"index":0,"status":200,"bytes":2}` + "\nX\n" + `{"index":1,"status":200,"bytes":3}` + "\nBB\n" + `{"done":true,"elements":2}` + "\n",
		"status":   `{"index":0,"status":500,"bytes":2}` + "\nA\n" + `{"index":1,"status":200,"bytes":3}` + "\nBB\n" + `{"done":true,"elements":2}` + "\n",
		"trailer":  `{"index":0,"status":200,"bytes":2}` + "\nA\n" + `{"index":1,"status":200,"bytes":3}` + "\nBB\n",
		"overflow": `{"index":0,"status":200,"bytes":99}` + "\nA\n",
	} {
		if err := checkBatchStream([]byte(bad), expect); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
