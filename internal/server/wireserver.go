package server

// The binary batch protocol's server side (see internal/wire for the frame
// format). A connection carries sequential request frames; each frame is
// one batch — admitted as a single unit, answered with a response frame
// whose elements stream back in completion order through the same runBatch
// engine as POST /v1/batch, so the two entry points cannot drift.
//
// Deployment is either a dedicated listener (ServeWire, sentineld's
// -wire-addr) or the main HTTP port: SniffWire peeks each fresh
// connection's first byte — the wire magic's 0xF7 can never begin an HTTP
// method — and routes the connection to whichever protocol it speaks.
//
// Error discipline mirrors the HTTP envelope vocabulary at two levels.
// Frame-level refusals (overload, draining, malformed bytes) are error
// frames: overload and pre-admission timeout leave the connection usable
// for retries, while malformed framing and draining close it (the former
// because resynchronization is impossible, the latter because the server
// is going away). Element-level failures never surface here at all — they
// are tagged response elements carrying the endpoint's own JSON error
// envelope.

import (
	"bufio"
	"context"
	"errors"
	"net"
	"net/http"
	"time"

	"sentinel/internal/obs"
	"sentinel/internal/wire"
)

// wireBufSize sizes the per-connection read and write buffers: large enough
// that a typical 64-element request frame arrives in one read.
const wireBufSize = 32 << 10

// wireLimits mirrors the HTTP endpoints' bounds: same element ceiling as
// /v1/batch, same per-payload cap as the JSON body limit.
var wireLimits = wire.Limits{MaxElems: maxBatchElems, MaxPayload: MaxBodyBytes}

// ServeWire accepts wire-protocol connections from l until it closes, one
// goroutine per connection. Returns l's Accept error.
func (s *Server) ServeWire(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go s.ServeWireConn(conn)
	}
}

// ServeWireConn serves the binary batch protocol on one connection until
// clean close, transport error, or a poisoned stream. Closes conn.
func (s *Server) ServeWireConn(conn net.Conn) {
	s.serveWireBuffered(bufio.NewReaderSize(conn, wireBufSize), conn)
}

// serveWireBuffered is ServeWireConn for a connection whose first bytes
// were already buffered by the protocol sniffer.
func (s *Server) serveWireBuffered(br *bufio.Reader, conn net.Conn) {
	defer conn.Close()
	bw := bufio.NewWriterSize(conn, wireBufSize)
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	for {
		fr, err := wire.ReadRequest(br, wireLimits)
		if err != nil {
			var pe *wire.ProtocolError
			if errors.As(err, &pe) {
				// Malformed framing poisons the stream: answer with an error
				// frame and close — there is no way to find the next frame
				// boundary.
				fb.b = wire.AppendError(fb.b[:0], pe.Code, pe.Msg)
				bw.Write(fb.b) //nolint:errcheck // closing either way
				bw.Flush()     //nolint:errcheck
			}
			return // io.EOF between frames is the clean close
		}
		keep := s.serveWireFrame(bw, fb, fr)
		if bw.Flush() != nil || !keep {
			return
		}
	}
}

// serveWireFrame admits and answers one batch frame, reporting whether the
// connection should stay open.
func (s *Server) serveWireFrame(bw *bufio.Writer, fb *frameBuf, fr *wire.ReqFrame) bool {
	var t0 time.Time
	if s.reqTime != nil {
		t0 = time.Now()
	}
	var rd *obs.Record
	if s.rec != nil {
		rd = s.rec.Begin("/wire/batch")
	}
	status := http.StatusOK
	defer func() { rd.Finish(status) }()

	// The frame's timeout_ms may shorten (never extend) the server default,
	// exactly like ?timeout_ms= on the HTTP side.
	timeout := s.cfg.RequestTimeout
	if d := time.Duration(fr.TimeoutMS) * time.Millisecond; fr.TimeoutMS > 0 && d < timeout {
		timeout = d
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if rd != nil {
		ctx = obs.ContextWithRecord(ctx, rd)
	}

	// One admission slot per frame, however many elements it carries.
	rd.Start(obs.StageAdmission, obs.ArgNone)
	release, err := s.adm.acquire(ctx)
	rd.End()
	if err != nil {
		s.rejected.Inc()
		ae := toAPIError(err)
		status = ae.Status
		code, keepOpen := wireRefusal(err)
		fb.b = wire.AppendError(fb.b[:0], code, ae.Message)
		bw.Write(fb.b) //nolint:errcheck // flush in the caller decides
		return keepOpen
	}
	defer release()
	s.reqs.Inc()
	s.batches.Inc()
	s.batchElems.Add(int64(len(fr.Elems)))
	s.batchesInFlight.Add(1)
	defer s.batchesInFlight.Add(-1)

	elems := make([]batchElem, len(fr.Elems))
	for i := range fr.Elems {
		elems[i] = batchElem{payload: fr.Elems[i].Payload, tag: fr.Elems[i].Tag, op: fr.Elems[i].Op}
	}
	fb.b = wire.AppendResponseHeader(fb.b[:0], len(elems))
	bw.Write(fb.b) //nolint:errcheck // a latched write error surfaces at Flush
	s.runBatch(ctx, elems, func(i, st int, body []byte) {
		fb.b = wire.AppendElemHeader(fb.b[:0], elems[i].tag, st, len(body))
		bw.Write(fb.b) //nolint:errcheck
		bw.Write(body) //nolint:errcheck
		bw.Flush()     //nolint:errcheck // stream each element as it completes
	})
	if s.reqTime != nil {
		s.reqTime.Observe(time.Since(t0).Nanoseconds())
	}
	return true
}

// wireRefusal maps an admission error onto its error-frame code and whether
// the connection survives (overload and timeout are retryable on the same
// connection; draining and anything unexpected are not).
func wireRefusal(err error) (code int, keepOpen bool) {
	switch {
	case errors.Is(err, errOverload):
		return wire.ErrOverload, true
	case isContextErr(err):
		return wire.ErrTimeout, true
	case errors.Is(err, errDraining):
		return wire.ErrDraining, false
	default:
		return wire.ErrInternal, false
	}
}

// SniffWire splits l between the two protocols: connections whose first
// byte is the wire magic are served by s's wire handler on their own
// goroutines; everything else is delivered through the returned listener,
// which the caller hands to its http.Server (see wire.SplitListener — the
// fleet router shares the same splitter with its own wire handler).
func (s *Server) SniffWire(l net.Listener) net.Listener {
	return wire.SplitListener(l, s.serveWireBuffered)
}
