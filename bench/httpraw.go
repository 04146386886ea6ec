package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
)

// rawConn is the HLS generator's HTTP/1.1 client: one keep-alive loopback
// connection, requests written as pre-built byte strings, responses parsed in
// place into reused buffers. It exists so the generator's share of the
// process CPU stays small and constant — net/http's client would allocate
// and schedule more per request than the handler under test does.
type rawConn struct {
	conn net.Conn
	r    *bufio.Reader
	body []byte // reused response body buffer
}

// rawResp is one parsed response. body aliases the connection's buffer and
// is only valid until the next request.
type rawResp struct {
	status  int
	version uint64 // X-Chunklist-Version, 0 when absent
	body    []byte
}

func dialRaw(addr string) (*rawConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	return &rawConn{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

func (c *rawConn) close() { c.conn.Close() }

// do writes one request and reads its response.
func (c *rawConn) do(req []byte) (rawResp, error) {
	if _, err := c.conn.Write(req); err != nil {
		return rawResp{}, fmt.Errorf("write request: %w", err)
	}
	return readResponse(c.r, &c.body)
}

var (
	hdrContentLength = []byte("Content-Length")
	hdrTransferEnc   = []byte("Transfer-Encoding")
	hdrVersion       = []byte("X-Chunklist-Version")
	valChunked       = []byte("chunked")
)

var errMalformed = errors.New("malformed HTTP response")

// readResponse parses one HTTP/1.1 response with a Content-Length, chunked or
// (for 304/204) absent body. *buf is grown as needed and reused.
func readResponse(r *bufio.Reader, buf *[]byte) (rawResp, error) {
	line, err := r.ReadSlice('\n')
	if err != nil {
		return rawResp{}, fmt.Errorf("status line: %w", err)
	}
	// "HTTP/1.1 200 OK\r\n"
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return rawResp{}, errMalformed
	}
	status, ok := parseDecimal(line[9:12])
	if !ok {
		return rawResp{}, errMalformed
	}
	resp := rawResp{status: int(status)}
	length, chunked := int64(-1), false
	for {
		line, err = r.ReadSlice('\n')
		if err != nil {
			return rawResp{}, fmt.Errorf("header: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return rawResp{}, errMalformed
		}
		key, val := line[:colon], bytes.TrimSpace(line[colon+1:])
		switch {
		case bytes.EqualFold(key, hdrContentLength):
			n, ok := parseDecimal(val)
			if !ok {
				return rawResp{}, errMalformed
			}
			length = int64(n)
		case bytes.EqualFold(key, hdrTransferEnc):
			chunked = bytes.EqualFold(val, valChunked)
		case bytes.EqualFold(key, hdrVersion):
			if resp.version, ok = parseDecimal(val); !ok {
				return rawResp{}, errMalformed
			}
		}
	}
	*buf = (*buf)[:0]
	switch {
	case status == 304 || status == 204 || status/100 == 1:
	case chunked:
		if err := readChunked(r, buf); err != nil {
			return rawResp{}, err
		}
	case length >= 0:
		*buf = grow(*buf, int(length))
		if _, err := io.ReadFull(r, *buf); err != nil {
			return rawResp{}, fmt.Errorf("body: %w", err)
		}
	default:
		// No length and not chunked means "until close", which a keep-alive
		// generator cannot use; the handler never does this.
		return rawResp{}, errMalformed
	}
	resp.body = *buf
	return resp, nil
}

func readChunked(r *bufio.Reader, buf *[]byte) error {
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return fmt.Errorf("chunk size: %w", err)
		}
		line = bytes.TrimRight(line, "\r\n")
		if semi := bytes.IndexByte(line, ';'); semi >= 0 {
			line = line[:semi]
		}
		n, ok := parseHex(line)
		if !ok {
			return errMalformed
		}
		if n == 0 {
			// Trailer section: lines until the blank one.
			for {
				line, err := r.ReadSlice('\n')
				if err != nil {
					return fmt.Errorf("trailer: %w", err)
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		old := len(*buf)
		*buf = grow(*buf, old+int(n))
		if _, err := io.ReadFull(r, (*buf)[old:]); err != nil {
			return fmt.Errorf("chunk body: %w", err)
		}
		if _, err := r.Discard(2); err != nil {
			return fmt.Errorf("chunk end: %w", err)
		}
	}
}

// parseDecimal parses an unsigned decimal without converting to a string, so
// header parsing allocates nothing per response.
func parseDecimal(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + uint64(c-'0')
	}
	return n, true
}

// parseHex parses a chunk-size line the same way.
func parseHex(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 7 {
		return 0, false
	}
	var n uint64
	for _, c := range b {
		switch {
		case c >= '0' && c <= '9':
			n = n<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			n = n<<4 | uint64(c-'a'+10)
		case c >= 'A' && c <= 'F':
			n = n<<4 | uint64(c-'A'+10)
		default:
			return 0, false
		}
	}
	return n, true
}

// grow returns b resized to n bytes, reallocating only when capacity is short.
func grow(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	nb := make([]byte, n, n+n/4)
	copy(nb, b)
	return nb
}
