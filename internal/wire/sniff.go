package wire

// Protocol sniffing: one listener, two protocols. The wire magic's leading
// 0xF7 can never begin an HTTP method line, so peeking a single byte of a
// fresh connection decides which protocol it speaks. Both sentineld (the
// backend) and sentinelfront (the fleet router) deploy this — the router
// must terminate exactly what a backend terminates, or a wire client could
// not point at either interchangeably.

import (
	"bufio"
	"net"
	"sync"
	"time"
)

// SniffBufSize sizes the per-connection read buffer handed to the wire
// handler: large enough that a typical 64-element request frame arrives in
// one read.
const SniffBufSize = 32 << 10

// sniffTimeout bounds how long a fresh connection may sit silent before the
// sniffer gives up on it — a slot-exhaustion guard, not a request deadline.
const sniffTimeout = 30 * time.Second

// SplitListener splits l between the two protocols: connections whose
// first byte is the wire magic are handed to serveWire on their own
// goroutines (the handler owns the connection and must close it);
// everything else (HTTP can only start with an ASCII method letter) is
// delivered through the returned listener, which the caller hands to its
// http.Server. Closing the returned listener closes l.
func SplitListener(l net.Listener, serveWire func(br *bufio.Reader, conn net.Conn)) net.Listener {
	sl := &sniffListener{inner: l, serveWire: serveWire,
		conns: make(chan net.Conn), done: make(chan struct{})}
	go sl.accept()
	return sl
}

// sniffListener adapts the sniffing accept loop to the net.Listener
// contract the HTTP server expects.
type sniffListener struct {
	inner     net.Listener
	serveWire func(br *bufio.Reader, conn net.Conn)
	conns     chan net.Conn
	done      chan struct{}
	err       error // Accept error from inner; written only by the once that closes done
	once      sync.Once
}

func (l *sniffListener) accept() {
	for {
		conn, err := l.inner.Accept()
		if err != nil {
			// Recorded only when this loop is the first to close done: after
			// Close, Accept may already be reading err.
			l.once.Do(func() { l.err = err; close(l.done) })
			return
		}
		go func() {
			// The peek is bounded so an idle connection cannot pin its
			// goroutine forever; the deadline is lifted before serving.
			br := bufio.NewReaderSize(conn, SniffBufSize)
			conn.SetReadDeadline(time.Now().Add(sniffTimeout)) //nolint:errcheck
			first, err := br.Peek(1)
			if err != nil {
				conn.Close()
				return
			}
			conn.SetReadDeadline(time.Time{}) //nolint:errcheck
			if first[0] == MagicByte0 {
				l.serveWire(br, conn)
				return
			}
			select {
			case l.conns <- &sniffedConn{Conn: conn, br: br}:
			case <-l.done:
				conn.Close()
			}
		}()
	}
}

func (l *sniffListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		if l.err != nil {
			return nil, l.err
		}
		return nil, net.ErrClosed
	}
}

func (l *sniffListener) Close() error {
	err := l.inner.Close()
	l.once.Do(func() { close(l.done) })
	return err
}

func (l *sniffListener) Addr() net.Addr { return l.inner.Addr() }

// sniffedConn replays the peeked byte(s): reads drain the sniffer's buffer
// before touching the socket.
type sniffedConn struct {
	net.Conn
	br *bufio.Reader
}

func (c *sniffedConn) Read(p []byte) (int, error) { return c.br.Read(p) }
