//go:build linux

package persist

import (
	"fmt"
	"os"
	"syscall"
)

const (
	// reserveStep is how far ahead of its end a journal file's blocks are
	// allocated. The file is up to that much longer than its records until
	// it is closed, so a crash leaves up to this many zero bytes after the
	// last record, which a restart reads back: small, so that costs
	// nothing a restart would notice (DESIGN.md §11 has the measurements).
	reserveStep = 64 << 10
	// windowBytes is the most of a journal file mapped at once. Every page
	// of a mapping that has been written stays in the process's resident
	// set until it is unmapped, so a window that covered the whole journal
	// would grow the server's RSS with it.
	windowBytes = 1 << 20
)

var pageSize = int64(os.Getpagesize())

// journal is one epoch file open for appending. A record is copied into
// a MAP_SHARED window of the file — straight into the kernel's page
// cache, so it survives the process being killed the moment the copy
// returns, without a system call per record. The file's blocks are
// allocated ahead of the copy (fallocate), so a full disk fails an
// append instead of raising SIGBUS on a page the kernel cannot back.
type journal struct {
	f      *os.File
	fd     int
	end    int64  // where the next record goes: the bytes of complete records
	size   int64  // the file's size; its blocks are allocated
	win    []byte // the mapped window, which starts at file offset winOff
	winOff int64
}

// openJournal opens an epoch file for appending, creating it if need
// be. A file that exists already is appended at the end of its last
// good record, with whatever followed that cut off.
func openJournal(path string) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	end, err := journalEnd(f)
	if err == nil {
		err = f.Truncate(end)
	}
	if err != nil {
		_ = f.Close() // the open failed; nothing was written
		return nil, err
	}
	return &journal{f: f, fd: int(f.Fd()), end: end, size: end}, nil
}

// append copies one frame onto the end of the journal. The frame is
// complete in the file when append returns, and only its bytes changed:
// the record before it is untouched, so a kill mid-copy tears at most
// this one.
func (j *journal) append(frame []byte) error {
	end := j.end + int64(len(frame))
	if end > j.size {
		size := (end + reserveStep - 1) / reserveStep * reserveStep
		if err := syscall.Fallocate(j.fd, 0, j.size, size-j.size); err != nil {
			return fmt.Errorf("reserve journal space: %w", err)
		}
		j.size = size
	}
	for at := j.end; len(frame) > 0; {
		if at >= j.winOff+int64(len(j.win)) {
			if err := j.slide(at); err != nil {
				return err
			}
		}
		n := copy(j.win[at-j.winOff:], frame)
		frame = frame[n:]
		at += int64(n)
	}
	j.end = end
	return nil
}

// slide maps the window onto the page holding file offset at. Only the
// part of it below j.size is ever written: a page wholly past the end of
// the file is mapped but not backed.
func (j *journal) slide(at int64) error {
	if err := j.unmap(); err != nil {
		return err
	}
	off := at / pageSize * pageSize
	win, err := syscall.Mmap(j.fd, off, windowBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_SHARED)
	if err != nil {
		return fmt.Errorf("map journal: %w", err)
	}
	j.win, j.winOff = win, off
	return nil
}

func (j *journal) unmap() error {
	if j.win == nil {
		return nil
	}
	err := syscall.Munmap(j.win)
	j.win = nil
	if err != nil {
		return fmt.Errorf("unmap journal: %w", err)
	}
	return nil
}

// close unmaps the window, gives back the space reserved past the last
// record and closes the file: a journal closed cleanly holds its records
// and nothing else.
func (j *journal) close() error {
	err := j.unmap()
	if terr := j.f.Truncate(j.end); err == nil {
		err = terr
	}
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}
