package faults

import (
	"fmt"
	"net"
	"time"
)

// faultyConn injects resets, latency spikes, and partial reads into a raw
// connection — the RTMP upload/fan-out sockets of §5.2.
type faultyConn struct {
	net.Conn
	inj *Injector
}

// Conn wraps c with fault injection on Read and Write.
func (i *Injector) Conn(c net.Conn) net.Conn {
	return &faultyConn{Conn: c, inj: i}
}

// reset closes the underlying conn and reports the injected failure, so
// both ends observe the break like a mid-stream RST.
func (c *faultyConn) reset(op string) error {
	c.inj.stats.Resets.Add(1)
	c.Conn.Close()
	return fmt.Errorf("faults: %s: connection reset: %w", op, ErrInjected)
}

// Read implements net.Conn.
func (c *faultyConn) Read(b []byte) (int, error) {
	if d := c.inj.maybeLatency(); d > 0 {
		//lint:allow walltime latency injected into a real socket's Read/Write, which has no clock but the host's
		time.Sleep(d)
	}
	if c.inj.roll(c.inj.resetRate()) {
		return 0, c.reset("read")
	}
	if len(b) > 1 && c.inj.roll(c.inj.partialReadRate()) {
		c.inj.stats.PartialReads.Add(1)
		return c.Conn.Read(b[:len(b)/2])
	}
	return c.Conn.Read(b)
}

// Write implements net.Conn.
func (c *faultyConn) Write(b []byte) (int, error) {
	if d := c.inj.maybeLatency(); d > 0 {
		//lint:allow walltime latency injected into a real socket's Read/Write, which has no clock but the host's
		time.Sleep(d)
	}
	if c.inj.roll(c.inj.resetRate()) {
		return 0, c.reset("write")
	}
	return c.Conn.Write(b)
}

// faultyListener wraps accepted connections.
type faultyListener struct {
	net.Listener
	inj *Injector
}

// Listener wraps ln so every accepted connection carries fault injection —
// the server-side counterpart of Conn.
func (i *Injector) Listener(ln net.Listener) net.Listener {
	return &faultyListener{Listener: ln, inj: i}
}

// Accept implements net.Listener.
func (l *faultyListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.inj.Conn(c), nil
}
