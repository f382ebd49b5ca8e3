package wire

import (
	"bufio"
	"io"
	"net"
	"syscall"
	"unsafe"
)

// NewReader buffers a connection's reads, size bytes at a time. On a
// socket each read is one read(2) made without the scheduler's syscall
// hand-off — a read on a non-blocking socket cannot block — and an empty
// socket parks the reader on the poller exactly as net.Conn.Read does,
// deadlines included. Through net.Conn each read would go through the
// runtime's syscall entry and exit, which on a one-processor server
// cost more context switches than the read itself (DESIGN.md §13).
func NewReader(nc net.Conn, size int) *bufio.Reader {
	if sc, ok := nc.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			r := &rawReader{raw: raw}
			r.fn = r.readOnce
			return bufio.NewReaderSize(r, size)
		}
	}
	return bufio.NewReaderSize(nc, size)
}

// rawReader reads a socket through its RawConn. fn is readOnce bound
// once, so a read allocates nothing; p, n and errno carry one call's
// arguments and results (a bufio.Reader reads from one goroutine).
type rawReader struct {
	raw   syscall.RawConn
	fn    func(fd uintptr) bool
	p     []byte
	n     int
	errno syscall.Errno
}

func (r *rawReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.p = p
	err := r.raw.Read(r.fn)
	r.p = nil
	switch {
	case err != nil:
		return 0, err
	case r.errno != 0:
		return 0, r.errno
	case r.n == 0:
		return 0, io.EOF
	}
	return r.n, nil
}

// readOnce makes one read(2); it asks the poller to wait only when the
// socket is empty.
func (r *rawReader) readOnce(fd uintptr) bool {
	n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&r.p[0])), uintptr(len(r.p)))
	r.n, r.errno = int(n), e
	return e != syscall.EAGAIN && e != syscall.EINTR
}
