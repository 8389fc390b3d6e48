// Package rawhttp is the HTTP/1.1 client for hops whose peer is one of
// ours: the fleet router's exchanges with its backends (proxied requests,
// the streamed /v1/batch relay and /readyz probes) and sentinelload's
// closed loop. It has four parts:
//
//   - AppendRequest frames a request into one preserialized write.
//   - Response.ReadHead parses a response head in place off a buffered
//     reader: status line, interim 1xx responses skipped, header fields
//     recorded as offsets into reused scratch, and the body framing
//     (bodyless 204/304/HEAD, Content-Length, chunked, or close-delimited).
//   - Response.Read de-frames the body; AppendBody buffers it whole.
//   - Pool keeps one peer's idle keep-alive connections, and Pool.Do runs
//     an exchange on one, redialing when a pooled connection proves stale.
//
// The framing rules are net/http.ReadResponse's, and FuzzReadResponse holds
// the parser to them differentially. The parser is stricter than net/http
// in two places only, listed at errStrict.
package rawhttp

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"
)

// errStrict marks a response this client refuses although net/http would
// read it: obsolete line folding in a header field (RFC 9112 §5.2 lets a
// proxy reject it), and a chunked trailer section not closed by CRLF CRLF.
var errStrict = errors.New("rawhttp: refused lenient framing")

// maxInterim bounds the 1xx responses skipped ahead of the final one.
const maxInterim = 8

// maxChunkLine is net/http's bound on a chunk-size line.
const maxChunkLine = 4096

// hopHeaders are the HTTP/1.1 connection-scoped fields that never cross a
// hop, in either direction.
var hopHeaders = [...]string{
	"Connection", "Keep-Alive", "Proxy-Authenticate", "Proxy-Authorization",
	"Te", "Trailer", "Transfer-Encoding", "Upgrade",
}

func isHopHeader(name []byte) bool {
	for _, h := range hopHeaders {
		if fold(name, h) {
			return true
		}
	}
	return false
}

// AppendRequest appends one HTTP/1.1 request to dst: request line, Host,
// the end-to-end fields of hdr, an explicit Content-Length, and the body.
// Host and Content-Length are the hop's own. Expect stays behind too: the
// body travels in the same write, so a 100-continue handshake buys nothing
// and only provokes an interim response.
func AppendRequest(dst []byte, method, path, rawQuery, host string, hdr http.Header, body []byte) []byte {
	b := append(dst, method...)
	b = append(b, ' ')
	b = append(b, path...)
	if rawQuery != "" {
		b = append(b, '?')
		b = append(b, rawQuery...)
	}
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, host...)
	b = append(b, '\r', '\n')
	for name, vals := range hdr {
		if name == "Host" || name == "Content-Length" || name == "Expect" || isHopHeader([]byte(name)) {
			continue
		}
		for _, v := range vals {
			b = append(b, name...)
			b = append(b, ':', ' ')
			b = append(b, v...)
			b = append(b, '\r', '\n')
		}
	}
	b = append(b, "Content-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// field records one header field as offsets into Response.hdr: the name
// is hdr[n0:n1], the value hdr[n1:v1]. Offsets survive the reallocations
// that appending to hdr causes.
type field struct{ n0, n1, v1 int }

// Response is one parsed response head plus the state of its body reader.
// A Response is reused across exchanges; header values returned from it
// alias its scratch until the next ReadHead.
type Response struct {
	Status int
	// Close reports that the connection cannot carry another exchange.
	Close bool
	// ContentLength is the body's framed length: 0 when bodyless, the
	// Content-Length value, or -1 for chunked and close-delimited bodies.
	// After a HEAD request it is the announced length, or -1.
	ContentLength int64

	hdr    []byte
	fields []field

	teOK    bool // the protocol version honors Transfer-Encoding
	br      *bufio.Reader
	left    int64 // bytes left in the body or current chunk; -1 reads to EOF
	chunked bool
	done    bool  // the body has been read to its end
	excess  int64 // chunk framing overhead, bounded like net/http's
}

// ReadHead consumes one final response head from br, skipping interim 1xx
// responses, and readies the body reader. head reports that the request
// was HEAD, whose response has no body. began reports whether any response
// byte arrived: a pooled connection that fails before one is merely stale.
func (r *Response) ReadHead(br *bufio.Reader, head bool) (began bool, err error) {
	for interim := 0; ; interim++ {
		line, err := br.ReadSlice('\n')
		if !began {
			began = len(line) > 0 || err == nil
		}
		if err != nil {
			return began, err
		}
		if err := r.parseStatus(trimEOL(line)); err != nil {
			return true, err
		}
		if err := r.readFields(br, true); err != nil {
			return true, err
		}
		if err := r.frame(br, head); err != nil {
			return true, err
		}
		if r.Status < 100 || r.Status > 199 {
			return true, nil
		}
		if interim+1 >= maxInterim {
			return true, fmt.Errorf("rawhttp: %d interim responses without a final one", maxInterim)
		}
	}
}

// parseStatus reads "HTTP/x.y SP code [SP reason]" as net/http does.
func (r *Response) parseStatus(line []byte) error {
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 {
		return fmt.Errorf("rawhttp: malformed status line %q", line)
	}
	code := bytes.TrimLeft(line[sp+1:], " ")
	if i := bytes.IndexByte(code, ' '); i >= 0 {
		code = code[:i]
	}
	if len(code) != 3 {
		return fmt.Errorf("rawhttp: malformed status code %q", code)
	}
	st, err := strconv.Atoi(string(code))
	if err != nil || st < 0 {
		return fmt.Errorf("rawhttp: malformed status code %q", code)
	}
	proto := line[:sp]
	major, minor := 1, 1
	switch string(proto) {
	case "HTTP/1.1":
	case "HTTP/1.0":
		minor = 0
	default:
		if len(proto) != 8 || !bytes.HasPrefix(proto, []byte("HTTP/")) || proto[6] != '.' ||
			!isDigit(proto[5]) || !isDigit(proto[7]) {
			return fmt.Errorf("rawhttp: malformed HTTP version %q", proto)
		}
		major, minor = int(proto[5]-'0'), int(proto[7]-'0')
	}
	r.Status = st
	// Keep-alive unless told otherwise; frame() folds in Connection.
	r.Close = major < 1 || major == 1 && minor == 0
	// net/http reads an HTTP/0.0 response's framing as HTTP/1.1.
	r.teOK = major > 1 || major == 1 && minor >= 1 || major == 0 && minor == 0
	return nil
}

// readFields reads header fields up to the blank line, validating names
// and values as net/textproto does. keep records them for lookup; trailer
// fields are validated and dropped. Trailer lines must end in CRLF so
// that the section closes with CRLF CRLF, which net/http demands.
func (r *Response) readFields(br *bufio.Reader, keep bool) error {
	if keep {
		r.hdr, r.fields = r.hdr[:0], r.fields[:0]
	}
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
		if n := len(line); !keep && (n < 2 || line[n-2] != '\r') {
			return fmt.Errorf("%w: trailer line not ended by CRLF", errStrict)
		}
		line = trimEOL(line)
		if len(line) == 0 {
			return nil
		}
		if line[0] == ' ' || line[0] == '\t' {
			return fmt.Errorf("%w: obsolete line folding %q", errStrict, line)
		}
		line = bytes.TrimRight(line, " \t")
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 || !validName(line[:colon]) || !validValue(line[colon+1:]) {
			return fmt.Errorf("rawhttp: malformed header line %q", line)
		}
		if keep {
			n0 := len(r.hdr)
			r.hdr = append(r.hdr, line[:colon]...)
			n1 := len(r.hdr)
			r.hdr = append(r.hdr, bytes.TrimLeft(line[colon+1:], " \t")...)
			r.fields = append(r.fields, field{n0, n1, len(r.hdr)})
		}
	}
}

// frame settles the body framing from the recorded fields, validating
// Content-Length and Transfer-Encoding whether or not a body follows.
func (r *Response) frame(br *bufio.Reader, head bool) error {
	r.br, r.chunked, r.done, r.excess = br, false, false, 0
	var cl, teVal []byte
	haveCL, nTE, closeTok, keepTok := false, 0, false, false
	for _, f := range r.fields {
		name, val := r.hdr[f.n0:f.n1], r.hdr[f.n1:f.v1]
		switch {
		case fold(name, "Content-Length"):
			if haveCL && !bytes.Equal(cl, val) {
				return errors.New("rawhttp: conflicting Content-Length fields")
			}
			cl, haveCL = val, true
		case fold(name, "Transfer-Encoding"):
			teVal, nTE = val, nTE+1
		case fold(name, "Connection"):
			closeTok = closeTok || bytes.EqualFold(val, []byte("close"))
			keepTok = keepTok || bytes.EqualFold(val, []byte("keep-alive"))
		}
	}
	// HTTP/1.0 closes unless asked to keep alive; any version may ask to close.
	r.Close = closeTok || r.Close && !keepTok
	n := int64(-1)
	if haveCL {
		v, err := strconv.ParseUint(string(cl), 10, 63)
		if err != nil {
			return fmt.Errorf("rawhttp: bad Content-Length %q", cl)
		}
		n = int64(v)
	}
	if r.teOK && nTE > 0 {
		if nTE > 1 || !bytes.EqualFold(teVal, []byte("chunked")) {
			return fmt.Errorf("rawhttp: unsupported Transfer-Encoding %q", teVal)
		}
		r.chunked = true
	}
	switch {
	case head:
		r.ContentLength, r.left, r.done, r.chunked = n, 0, true, false
	case r.Status/100 == 1 || r.Status == http.StatusNoContent || r.Status == http.StatusNotModified:
		// Bodyless by definition: a 304's Content-Length describes the
		// representation, it frames no bytes on this connection.
		r.ContentLength, r.left, r.done, r.chunked = 0, 0, true, false
	case r.chunked:
		r.ContentLength, r.left = -1, 0
	case n >= 0:
		r.ContentLength, r.left, r.done = n, n, n == 0
	default:
		r.ContentLength, r.left, r.Close = -1, -1, true
	}
	return nil
}

// Header returns the value of the first field named name (matched
// case-insensitively), aliasing the Response's scratch.
func (r *Response) Header(name string) (val []byte, ok bool) {
	for _, f := range r.fields {
		if fold(r.hdr[f.n0:f.n1], name) {
			return r.hdr[f.n1:f.v1], true
		}
	}
	return nil, false
}

// CopyHeader adds the response's end-to-end fields to h: everything but
// the hop-by-hop fields and Content-Length, whose framing is the relay's.
func (r *Response) CopyHeader(h http.Header) {
	for _, f := range r.fields {
		name := r.hdr[f.n0:f.n1]
		if !isHopHeader(name) && !fold(name, "Content-Length") {
			h.Add(string(name), string(r.hdr[f.n1:f.v1]))
		}
	}
}

// Read reads the de-framed body; it returns io.EOF at the body's end.
func (r *Response) Read(p []byte) (int, error) {
	if r.done {
		return 0, io.EOF
	}
	if r.chunked && r.left == 0 {
		if err := r.nextChunk(); err != nil {
			return 0, err
		}
		if r.done {
			return 0, io.EOF
		}
	}
	if r.left >= 0 && int64(len(p)) > r.left {
		p = p[:r.left]
	}
	n, err := r.br.Read(p)
	if r.left < 0 {
		r.done = err == io.EOF
		return n, err
	}
	r.left -= int64(n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil || r.left > 0 {
		return n, err
	}
	if !r.chunked {
		r.done = true
		return n, nil
	}
	crlf, err := r.br.Peek(2)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return n, err
	}
	if crlf[0] != '\r' || crlf[1] != '\n' {
		return n, errors.New("rawhttp: malformed chunked encoding")
	}
	r.br.Discard(2) //nolint:errcheck // peeked
	return n, nil
}

// nextChunk reads one chunk-size line (extensions dropped), or at the
// zero-size chunk the trailer section, as net/http's chunked reader does.
func (r *Response) nextChunk() error {
	line, err := r.br.ReadSlice('\n')
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	if len(line) >= maxChunkLine {
		return errors.New("rawhttp: chunk-size line too long")
	}
	r.excess += int64(len(line)) + 2
	line = bytes.TrimRight(line, " \t\r\n")
	if i := bytes.IndexByte(line, ';'); i >= 0 {
		line = line[:i]
	}
	n, err := strconv.ParseUint(string(line), 16, 64)
	// net/http's digit bound (leading zeros count); no real body nears 2^62.
	if err != nil || len(line) > 16 || n >= 1<<62 {
		return fmt.Errorf("rawhttp: malformed chunk size %q", line)
	}
	// Framing overhead may not outgrow the data: 16 bytes per chunk plus
	// twice its size, with 16 KiB of slack.
	if r.excess = max(r.excess-16-2*int64(n), 0); r.excess > 16<<10 {
		return errors.New("rawhttp: chunked encoding contains too much non-data")
	}
	if n > 0 {
		r.left = int64(n)
		return nil
	}
	if b, _ := r.br.Peek(2); len(b) == 2 && b[0] == '\r' && b[1] == '\n' {
		r.br.Discard(2) //nolint:errcheck // peeked
	} else if err := r.readFields(r.br, false); err != nil {
		return err
	}
	r.done = true
	return nil
}

// AppendBody reads the rest of the body into dst, failing once it would
// grow past limit bytes.
func (r *Response) AppendBody(dst []byte, limit int) ([]byte, error) {
	if !r.chunked && r.left > 0 {
		if r.left > int64(limit) {
			return dst, fmt.Errorf("rawhttp: body of %d bytes exceeds the %d-byte bound", r.left, limit)
		}
		dst = slices.Grow(dst, int(r.left))
	}
	for !r.done {
		if len(dst) == cap(dst) {
			dst = slices.Grow(dst, 4096)
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		if dst = dst[:len(dst)+n]; len(dst) > limit {
			return dst, fmt.Errorf("rawhttp: body exceeds the %d-byte bound", limit)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// Conn is one keep-alive connection with its buffered reader.
type Conn struct {
	net.Conn
	BR     *bufio.Reader
	expire func()      // sets a past deadline: a blocked read or write fails at once
	stop   func() bool // unregisters the exchange's cancellation hook
}

// DialError wraps a failure to dial a fresh connection: the one error that
// says the peer is unreachable, as opposed to slow, stale or cancelled.
type DialError struct{ Err error }

func (e *DialError) Error() string { return e.Err.Error() }
func (e *DialError) Unwrap() error { return e.Err }

// Pool keeps up to a fixed number of idle connections to one address.
type Pool struct {
	addr        string
	idle        chan *Conn
	bufSize     int
	dialTimeout time.Duration
}

// NewPool returns an empty pool of at most size idle connections to addr,
// each read through a bufSize-byte buffer.
func NewPool(addr string, size, bufSize int, dialTimeout time.Duration) *Pool {
	return &Pool{addr: addr, idle: make(chan *Conn, size), bufSize: bufSize, dialTimeout: dialTimeout}
}

// Get returns an idle connection, or dials a fresh one. pooled tells the
// caller whether a failure might just be a stale keep-alive (the peer
// closed it while it sat idle) rather than a dead peer.
func (p *Pool) Get() (c *Conn, pooled bool, err error) {
	select {
	case c := <-p.idle:
		return c, true, nil
	default:
	}
	conn, err := net.DialTimeout("tcp", p.addr, p.dialTimeout)
	if err != nil {
		return nil, false, &DialError{err}
	}
	c = &Conn{Conn: conn, BR: bufio.NewReaderSize(conn, p.bufSize)}
	c.expire = func() { c.SetDeadline(time.Unix(1, 0)) } //nolint:errcheck
	return c, false, nil
}

// Put returns a healthy connection to the pool, closing it when full.
func (p *Pool) Put(c *Conn) {
	c.SetDeadline(time.Time{}) //nolint:errcheck
	select {
	case p.idle <- c:
	default:
		c.Close()
	}
}

// Close closes every idle connection.
func (p *Pool) Close() {
	for {
		select {
		case c := <-p.idle:
			c.Close()
		default:
			return
		}
	}
}

// Do writes req on a pooled connection and reads the response head into
// resp. A pooled connection that fails before any response byte arrives
// is stale: it is closed and the exchange moves to the next one. The
// exchange ends at deadline, or as soon as ctx is done: cancellation
// expires the connection's deadline, so a blocked read returns at once.
// On success the caller reads the body from resp and then calls Release.
// A failed fresh dial comes back as a *DialError.
func (p *Pool) Do(ctx context.Context, deadline time.Time, req []byte, head bool, resp *Response) (*Conn, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		c, pooled, err := p.Get()
		if err != nil {
			return nil, err
		}
		c.SetDeadline(deadline) //nolint:errcheck
		c.stop = context.AfterFunc(ctx, c.expire)
		began := false
		if _, err = c.Write(req); err == nil {
			if began, err = resp.ReadHead(c.BR, head); err == nil {
				return c, nil
			}
		}
		c.stop()
		c.Close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if !pooled || began {
			return nil, err
		}
	}
}

// Release ends the exchange Do began: the connection goes back to the pool
// when its response was read to the end, may carry another exchange, and
// was not cancelled; otherwise it closes.
func (p *Pool) Release(c *Conn, resp *Response) {
	if c.stop() && resp.done && !resp.Close {
		p.Put(c)
	} else {
		c.Close()
	}
}

// trimEOL strips the CRLF (or bare LF) ReadSlice leaves on.
func trimEOL(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n > 1 && b[n-2] == '\r' {
			b = b[:n-2]
		}
	}
	return b
}

// fold reports whether b equals name case-insensitively. name is always a
// short constant, so the conversion stays on the stack.
func fold(b []byte, name string) bool { return bytes.EqualFold(b, []byte(name)) }

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// tokenBytes are the bytes of an RFC 9110 token, plus the space
// net/textproto tolerates in a field name (such a name is kept verbatim
// and is never one of the framing fields).
const tokenBytes = "!#$%&'*+-.^_`|~ 0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"

func validName(b []byte) bool {
	for _, c := range b {
		if strings.IndexByte(tokenBytes, c) < 0 {
			return false
		}
	}
	return true
}

// validValue accepts field-value bytes: VCHAR, SP, HTAB and obs-text.
func validValue(b []byte) bool {
	for _, c := range b {
		if c < ' ' && c != '\t' || c == 0x7f {
			return false
		}
	}
	return true
}
