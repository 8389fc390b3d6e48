package main

// A raw HTTP/1.1 client in the wrk mold: each connection writes fully
// preserialized request bytes with one syscall and parses just the framing
// it needs (status, Content-Length or chunked, X-Fleet-Backend) while
// keeping the body, which the benchmark compares byte for byte. No net/http
// client sits between the clock and the wire.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strconv"
	"time"
)

// rawRequest renders one complete HTTP/1.1 request.
func rawRequest(method, path, host string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: %s\r\n", method, path, host)
	if body != nil {
		fmt.Fprintf(&b, "Content-Type: application/json\r\nContent-Length: %d\r\n", len(body))
	}
	b.WriteString("\r\n")
	b.Write(body)
	return b.Bytes()
}

// response is one parsed HTTP response. body aliases the caller's buffer.
type response struct {
	status  int
	backend string // X-Fleet-Backend, "" when absent
	body    []byte
	close   bool // the server asked to close the connection
}

var errMalformed = errors.New("malformed HTTP response")

// readResponse reads one final response from br, appending its body to
// dst[:0]. Interim 1xx responses are consumed and skipped; 204 and 304
// carry no body; otherwise the body is framed by chunked encoding, then
// Content-Length, then connection close.
func readResponse(br *bufio.Reader, dst []byte) (response, error) {
	for {
		r, h, err := readHead(br)
		if err != nil {
			return r, err
		}
		if r.status >= 100 && r.status < 200 {
			continue // interim: its empty header block is already consumed
		}
		r.body = dst[:0]
		return r, readBody(br, &r, h)
	}
}

// head framing state carried from readHead to readBody.
type head struct {
	chunked bool
	clen    int // -1 when absent
}

// readHead parses a status line and header block.
func readHead(br *bufio.Reader) (r response, h head, err error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return r, h, err
	}
	line = trimCRLF(line)
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) || line[8] != ' ' {
		return r, h, fmt.Errorf("%w: status line %q", errMalformed, line)
	}
	r.status, err = strconv.Atoi(string(line[9:12]))
	if err != nil {
		return r, h, fmt.Errorf("%w: status %q", errMalformed, line[9:12])
	}
	h.clen = -1
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return r, h, err
		}
		line = trimCRLF(line)
		if len(line) == 0 {
			break
		}
		name, value, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return r, h, fmt.Errorf("%w: header %q", errMalformed, line)
		}
		value = bytes.TrimSpace(value)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			n, err := strconv.Atoi(string(value))
			if err != nil || n < 0 {
				return r, h, fmt.Errorf("%w: content-length %q", errMalformed, value)
			}
			h.clen = n
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			h.chunked = bytes.EqualFold(value, []byte("chunked"))
		case bytes.EqualFold(name, []byte("Connection")):
			r.close = bytes.EqualFold(value, []byte("close"))
		case bytes.EqualFold(name, []byte("X-Fleet-Backend")):
			r.backend = string(value)
		}
	}
	return r, h, nil
}

func readBody(br *bufio.Reader, r *response, h head) error {
	switch {
	case r.status == 204 || r.status == 304:
		return nil
	case h.chunked:
		return readChunked(br, r)
	case h.clen >= 0:
		return readN(br, r, h.clen)
	default:
		r.close = true
		b, err := io.ReadAll(br)
		r.body = append(r.body, b...)
		return err
	}
}

func readN(br *bufio.Reader, r *response, n int) error {
	off := len(r.body)
	r.body = slices.Grow(r.body, n)[:off+n]
	_, err := io.ReadFull(br, r.body[off:])
	return err
}

func readChunked(br *bufio.Reader, r *response) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		line = trimCRLF(line)
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		n, err := strconv.ParseUint(string(bytes.TrimSpace(line)), 16, 31)
		if err != nil {
			return fmt.Errorf("%w: chunk size %q", errMalformed, line)
		}
		if n == 0 {
			// Trailer section: header lines until the empty line.
			for {
				line, err := br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(trimCRLF(line)) == 0 {
					return nil
				}
			}
		}
		if err := readN(br, r, int(n)); err != nil {
			return err
		}
		crlf, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if len(trimCRLF(crlf)) != 0 {
			return fmt.Errorf("%w: chunk not CRLF-terminated", errMalformed)
		}
	}
}

func trimCRLF(b []byte) []byte {
	b = bytes.TrimSuffix(b, []byte("\n"))
	return bytes.TrimSuffix(b, []byte("\r"))
}

// conn is one keep-alive client connection.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	return &conn{addr: addr, c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
}

func (c *conn) Close() error { return c.c.Close() }

// do sends req and reads the response into dst. A transport error or a
// close request leaves the connection redialled for the next call.
func (c *conn) do(req, dst []byte) (response, error) {
	c.c.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a dead conn fails the write below
	if _, err := c.c.Write(req); err != nil {
		c.redial()
		return response{}, err
	}
	r, err := readResponse(c.br, dst)
	if err != nil || r.close {
		c.redial()
	}
	return r, err
}

func (c *conn) redial() {
	c.c.Close()
	if nc, err := net.DialTimeout("tcp", c.addr, 2*time.Second); err == nil {
		c.c = nc
		c.br.Reset(nc)
	}
}
