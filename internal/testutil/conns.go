package testutil

import (
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
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
