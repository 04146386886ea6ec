package resilience

import "bytes"

// NewJSONDecoder binds DecodeJSON to one jsonBuf of its own instead of the
// pool's, so an external test can send a sequence of bodies through one
// decoder. Each call reports, as the pool's rule reads it, whether the
// buffer may decode another body.
func NewJSONDecoder() func(body []byte, n, limit int64, v any) (reusable bool, err error) {
	b := jsonBufs.New().(*jsonBuf)
	return func(body []byte, n, limit int64, v any) (bool, error) {
		reusable, err := b.decode(bytes.NewReader(body), n, limit, v)
		b.buf.Reset()
		b.rd.Reset(nil)
		return reusable, err
	}
}
