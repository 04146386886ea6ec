package testutil

import (
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// CountingServer starts an httptest server for h and returns it with a counter
// of the TCP connections it has accepted — what a keep-alive test asserts on:
// a client that reuses its connection moves the counter once, one that drops
// it after a response dials again. The server is closed with the test.
func CountingServer(t testing.TB, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	srv := httptest.NewUnstartedServer(h)
	srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	return srv, &conns
}

// TCPPair returns the two ends of a loopback TCP connection, both closed with
// the test.
func TCPPair(t testing.TB) (client, server *net.TCPConn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	if sc == nil {
		c.Close()
		t.Fatal("accept failed")
	}
	t.Cleanup(func() {
		c.Close()
		sc.Close()
	})
	return c.(*net.TCPConn), sc.(*net.TCPConn)
}

// CountingConn is a TCP connection that counts what a writer does to it.
// It embeds the *net.TCPConn itself, not a net.Conn, so the connection's
// vectored write stays visible to net.Buffers.WriteTo: Writes counts only
// per-buffer Write calls, and a batch that leaves in one writev adds one to
// Deadlines (when the writer sets one per batch) and nothing to Writes.
type CountingConn struct {
	*net.TCPConn
	Writes, Deadlines atomic.Int64
}

// Write counts the call and writes b.
func (c *CountingConn) Write(b []byte) (int, error) {
	c.Writes.Add(1)
	return c.TCPConn.Write(b)
}

// SetWriteDeadline counts the call and sets the deadline.
func (c *CountingConn) SetWriteDeadline(t time.Time) error {
	c.Deadlines.Add(1)
	return c.TCPConn.SetWriteDeadline(t)
}

// Replay returns an endless stream of b, copy after copy. A Read never
// crosses the end of a copy, so a bufio.Reader at least len(b) big that has
// consumed everything refills exactly one copy of b.
func Replay(b []byte) io.Reader { return &replay{b: b} }

type replay struct {
	b   []byte
	off int
}

func (r *replay) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}
