//go:build unix

package main

import (
	"syscall"
	"unsafe"
)

// newSpanBuffer returns room for n spans outside the Go heap. The SD
// workloads keep a live heap of a few megabytes and collect it several
// hundred times a second, so a span buffer on the heap would slow the
// collector's pace and make the traced run faster than the untraced
// one it is meant to explain. Mapped pages the run never writes cost
// nothing.
func newSpanBuffer(n int) ([]span, func()) {
	buf, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(span{})), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return make([]span, 0, n), func() {}
	}
	return unsafe.Slice((*span)(unsafe.Pointer(&buf[0])), n)[:0], func() { _ = syscall.Munmap(buf) }
}
