package testutil

import "unsafe"

// Adjacent reports whether b starts at the byte just past the end of a in
// memory — two views carved back to back from one buffer, not merely equal
// contents.
func Adjacent(a, b []byte) bool {
	return unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), len(a)) == unsafe.Pointer(unsafe.SliceData(b))
}
