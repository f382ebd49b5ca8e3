package wire

import (
	"syscall"

	"senseaid/internal/obs"
)

// met counts protocol faults and framed traffic on the process-global
// registry: wire has no injection point (Encode/ReadFrame are free
// functions), and every serving binary exposes obs.Default() anyway.
//
// senseaid_wire_errors_total carries one stage label per failure class:
// encode (marshalling a payload or envelope), decode (parsing bytes that
// arrived intact), frame (malformed or oversized framing), and io (the
// socket failed mid-frame).
//
// senseaid_wire_syscalls_total and senseaid_wire_syscall_bytes_total
// count the raw socket calls, read(2) in rawReader and write(2) in the
// coalescer, so reads per inbound frame and writes per flush can be read
// off a running server.
var met = struct {
	errEncode *obs.Counter
	errDecode *obs.Counter
	errFrame  *obs.Counter
	errIO     *obs.Counter
	bytesTx   *obs.Counter
	bytesRx   *obs.Counter
	coalesced *obs.Counter
	flushes   *obs.Counter
	read      syscallCounters
	write     syscallCounters
}{
	errEncode: obs.Default().Counter("senseaid_wire_errors_total",
		"Wire protocol faults by stage.", obs.Labels{"stage": "encode"}),
	errDecode: obs.Default().Counter("senseaid_wire_errors_total",
		"Wire protocol faults by stage.", obs.Labels{"stage": "decode"}),
	errFrame: obs.Default().Counter("senseaid_wire_errors_total",
		"Wire protocol faults by stage.", obs.Labels{"stage": "frame"}),
	errIO: obs.Default().Counter("senseaid_wire_errors_total",
		"Wire protocol faults by stage.", obs.Labels{"stage": "io"}),
	bytesTx: obs.Default().Counter("senseaid_wire_bytes_total",
		"Framed bytes moved, including the length prefix.", obs.Labels{"dir": "tx"}),
	bytesRx: obs.Default().Counter("senseaid_wire_bytes_total",
		"Framed bytes moved, including the length prefix.", obs.Labels{"dir": "rx"}),
	coalesced: obs.Default().Counter("senseaid_wire_frames_coalesced_total",
		"Frames that shared a flush with at least one other frame.", nil),
	flushes: obs.Default().Counter("senseaid_wire_flushes_total",
		"Coalescer flushes (each is one write syscall).", nil),
	read:  newSyscallCounters("read"),
	write: newSyscallCounters("write"),
}

// syscallCounters counts the calls made at one raw system call site by
// result, and the bytes the successful ones moved. Every handle is
// resolved once, so counting a call is an atomic add.
type syscallCounters struct {
	ok, again, failed, bytes *obs.Counter
}

func newSyscallCounters(op string) syscallCounters {
	const help = "Raw socket system calls by result: ok, eagain (took nothing; EAGAIN or EINTR, retried), error."
	calls := func(result string) *obs.Counter {
		return obs.Default().Counter("senseaid_wire_syscalls_total", help, obs.Labels{"op": op, "result": result})
	}
	return syscallCounters{
		ok:     calls("ok"),
		again:  calls("eagain"),
		failed: calls("error"),
		bytes: obs.Default().Counter("senseaid_wire_syscall_bytes_total",
			"Bytes moved by successful raw socket system calls.", obs.Labels{"op": op}),
	}
}

// note counts one call that returned n and errno e.
func (c *syscallCounters) note(n uintptr, e syscall.Errno) {
	switch e {
	case 0:
		c.ok.Inc()
		c.bytes.Add(uint64(n))
	case syscall.EAGAIN, syscall.EINTR:
		c.again.Inc()
	default:
		c.failed.Inc()
	}
}
