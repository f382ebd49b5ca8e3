// Package persist is the Sense-Aid durability layer: a versioned,
// CRC-protected snapshot file plus an append-only journal of the
// mutations applied since that snapshot. The package is deliberately
// generic — it moves opaque JSON payloads to and from disk and knows
// nothing about the orchestrator's types — so internal/core can define
// the record grammar without a dependency cycle.
//
// On-disk layout inside one state directory, per named store:
//
//	<name>.snap          snapshot: header + CRC + JSON payload
//	<name>.journal.<N>   journal epoch N: length/CRC-framed JSON records
//
// A journal open for appending is followed by zero bytes reserved for the
// records to come (journal_linux.go); closing it cuts them off, and Load
// reads zeros after the last record as that reserved space, not as a
// torn record.
//
// Commit writes the snapshot atomically (temp file, fsync, rename) and
// rotates to a fresh journal epoch; the previous epoch's file is kept
// until the next rotation so records racing a commit are never lost
// (the caller deduplicates replayed records by sequence number). A torn
// journal tail — the expected artifact of a crash mid-append — is
// detected by the per-record CRC and truncated at the first corrupt
// record. A corrupt snapshot is not silently skipped: Load returns a
// *CorruptError and the operator decides (refuse to start, or move the
// state aside with Reset and start fresh).
package persist

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	// snapMagic opens every snapshot file; 8 bytes.
	snapMagic = "SAIDSNP1"
	// SnapshotVersion is the current snapshot format version.
	SnapshotVersion = 1
	// MaxRecordBytes bounds one journal record. A record is one mutation
	// (a task, a device record, a dispatch) — anything bigger is corrupt
	// framing, and the bound keeps a bad length field from provoking a
	// multi-gigabyte allocation.
	MaxRecordBytes = 1 << 20
	// maxSnapshotBytes bounds the snapshot payload (sanity check only).
	maxSnapshotBytes = 1 << 30
)

// snapHeaderLen is magic(8) + version(4) + epoch(8) + crc(4).
const snapHeaderLen = 8 + 4 + 8 + 4

// CorruptError reports an unreadable state file. The server refuses to
// start on one by default; -state-recover moves the files aside instead.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("persist: %s: %s", e.Path, e.Reason)
}

// IsCorrupt reports whether err is (or wraps) a CorruptError.
func IsCorrupt(err error) bool {
	var ce *CorruptError
	return errors.As(err, &ce)
}

// Store manages one named snapshot+journal pair inside a directory.
// Safe for concurrent use.
type Store struct {
	dir  string
	name string

	mu      sync.Mutex
	epoch   uint64
	journal *journal
}

// Open prepares a store under dir (created if missing). No files are
// read or written until Load/Commit/Append.
func Open(dir, name string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty state directory")
	}
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("persist: invalid store name %q", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create %s: %w", dir, err)
	}
	return &Store{dir: dir, name: name}, nil
}

// Name returns the store's name within its directory.
func (s *Store) Name() string { return s.name }

func (s *Store) snapPath() string { return filepath.Join(s.dir, s.name+".snap") }

func (s *Store) journalPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.journal.%d", s.name, epoch))
}

// journalEpochs lists existing journal files for this store, ascending.
func (s *Store) journalEpochs() ([]uint64, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	prefix := s.name + ".journal."
	var epochs []uint64
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), prefix) {
			continue
		}
		n, perr := strconv.ParseUint(strings.TrimPrefix(e.Name(), prefix), 10, 64)
		if perr != nil {
			continue // foreign file; not ours to touch
		}
		epochs = append(epochs, n)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

// LoadResult is what Load recovered from disk.
type LoadResult struct {
	// Snapshot is the last committed snapshot payload; nil if none.
	Snapshot json.RawMessage
	// Records are the journal records that survived CRC checking, in
	// file-epoch then append order. The caller filters by its own
	// sequence numbers (records may predate the snapshot or, across a
	// crashed rotation, duplicate each other).
	Records []json.RawMessage
	// TruncatedBytes counts journal bytes discarded at the first corrupt
	// record (the torn tail of a crash mid-append). Zeros after the last
	// good record are space reserved for appending and are not counted.
	TruncatedBytes int64
	// HadState reports whether any prior state existed on disk at all —
	// the restart-vs-first-boot distinction.
	HadState bool
}

// Load reads the snapshot and every journal file. A corrupt snapshot
// returns a *CorruptError; a corrupt journal record truncates the replay
// stream at that point (everything after the first bad record is
// dropped, including later files — a gap in history is worse than a
// lost tail).
func (s *Store) Load() (*LoadResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res := &LoadResult{}
	raw, err := os.ReadFile(s.snapPath())
	switch {
	case err == nil:
		res.HadState = true
		payload, epoch, cerr := decodeSnapshot(s.snapPath(), raw)
		if cerr != nil {
			return nil, cerr
		}
		res.Snapshot = payload
		s.epoch = epoch
	case os.IsNotExist(err):
		// fresh start
	default:
		return nil, fmt.Errorf("persist: read snapshot: %w", err)
	}

	epochs, err := s.journalEpochs()
	if err != nil {
		return nil, fmt.Errorf("persist: scan journals: %w", err)
	}
	for _, e := range epochs {
		if e > s.epoch {
			s.epoch = e
		}
		f, err := os.Open(s.journalPath(e))
		if err != nil {
			return nil, fmt.Errorf("persist: read journal: %w", err)
		}
		st, err := f.Stat()
		var truncated int64
		size := 0
		if err == nil {
			size = int(st.Size())
			res.Records, truncated, err = readJournal(res.Records, f, size, checkWorkers(size))
		}
		_ = f.Close() // only read
		if err != nil {
			return nil, fmt.Errorf("persist: read journal: %w", err)
		}
		if size > 0 {
			res.HadState = true
		}
		res.TruncatedBytes += truncated
		if truncated > 0 {
			break
		}
	}
	return res, nil
}

// Commit atomically writes a new snapshot and rotates the journal: the
// payload goes to a temp file, is fsynced, and renamed over the old
// snapshot; a fresh journal epoch is opened and epochs older than the
// previous one are pruned (the immediately-previous epoch is kept so
// appends racing this commit survive until the next one). Returns the
// snapshot size in bytes.
func (s *Store) Commit(payload any) (int64, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return 0, fmt.Errorf("persist: encode snapshot: %w", err)
	}
	return s.CommitRaw(raw)
}

// CommitRaw is Commit for a payload that is already JSON — the standby
// side of journal shipping, which must write the primary's exact bytes
// so a later recovery on the replicated files sees an identical state.
func (s *Store) CommitRaw(raw json.RawMessage) (int64, error) {
	if !validJSON(raw) {
		return 0, fmt.Errorf("persist: snapshot payload is not valid JSON")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.epoch + 1

	buf := make([]byte, snapHeaderLen+len(raw))
	copy(buf, snapMagic)
	binary.BigEndian.PutUint32(buf[8:], SnapshotVersion)
	binary.BigEndian.PutUint64(buf[12:], next)
	binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(raw))
	copy(buf[snapHeaderLen:], raw)

	tmp := s.snapPath() + ".tmp"
	if err := writeFileSync(tmp, buf); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, s.snapPath()); err != nil {
		return 0, fmt.Errorf("persist: rename snapshot: %w", err)
	}
	syncDir(s.dir)

	j, err := openJournal(s.journalPath(next))
	if err != nil {
		return 0, fmt.Errorf("persist: open journal: %w", err)
	}
	if s.journal != nil {
		// A close that fails leaves the old epoch its reserved zero tail,
		// which Load reads as such: its records are all there.
		_ = s.journal.close()
	}
	prev := s.epoch
	s.journal = j
	s.epoch = next

	// Prune journals older than the previous epoch; its records are
	// already inside the snapshot just written, and keeping one old epoch
	// covers appends that raced the rotation.
	epochs, err := s.journalEpochs()
	if err == nil {
		for _, e := range epochs {
			if e < prev {
				_ = os.Remove(s.journalPath(e))
			}
		}
	}
	return int64(len(buf)), nil
}

// selfEncoder is a payload that writes its own JSON: Append frames what
// AppendJSON appends as it stands. The implementer answers for those
// bytes being the JSON encoding/json would have produced for it (for
// core.JournalRecord a fuzz test does); Append does not check them a
// second time. Bytes from anywhere else go through AppendRaw, which
// does, and Load validates every record it reads back whatever wrote
// it.
type selfEncoder interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// Encoded is a record already in its JSON form, appended as it stands:
// for a caller that has just encoded the record itself and needs the
// bytes for something else too (the journal gate ships them to the
// standbys). Bytes of any other origin belong in AppendRaw.
type Encoded []byte

// AppendJSON makes Encoded a self-encoding payload.
func (e Encoded) AppendJSON(dst []byte) ([]byte, error) { return append(dst, e...), nil }

// frameHeaderLen is length(4) + crc(4) ahead of every journal record.
const frameHeaderLen = 8

// framePool recycles the buffers records are framed in, so a steady
// stream of appends allocates nothing. Records are encoded outside the
// store's lock — only the copy into the journal is serialised — hence a
// pool and not one buffer per store.
var framePool = sync.Pool{New: func() any { return new([]byte) }}

// Append frames one record (length, CRC32, JSON payload) onto the
// current journal epoch, copying it into the file's shared mapping: the
// record is in the kernel's page cache when Append returns, whatever
// happens to the process next. Commit must have run first in this
// process — the journal always belongs to the epoch of the snapshot it
// extends.
func (s *Store) Append(payload any) error {
	bp := framePool.Get().(*[]byte)
	frame := append((*bp)[:0], make([]byte, frameHeaderLen)...)
	var err error
	if enc, ok := payload.(selfEncoder); ok {
		frame, err = enc.AppendJSON(frame)
	} else {
		var raw []byte
		raw, err = json.Marshal(payload)
		frame = append(frame, raw...)
	}
	if err == nil {
		err = s.writeFrame(frame)
	} else {
		err = fmt.Errorf("persist: encode record: %w", err)
	}
	// The pool is for the few hundred bytes a record takes: a buffer one
	// outsized record grew is dropped.
	if cap(frame) <= 64<<10 {
		*bp = frame
		framePool.Put(bp)
	}
	return err
}

// AppendRaw is Append for a record that is already JSON (a shipped
// journal record, written byte-for-byte as the primary journaled it)
// and, coming from outside the process, is validated first.
func (s *Store) AppendRaw(raw json.RawMessage) error {
	if !validJSON(raw) {
		return fmt.Errorf("persist: record is not valid JSON")
	}
	return s.Append(Encoded(raw))
}

// writeFrame fills in the header of a frame whose record starts at
// frameHeaderLen and appends the whole of it to the journal.
func (s *Store) writeFrame(frame []byte) error {
	rec := frame[frameHeaderLen:]
	if len(rec) > MaxRecordBytes {
		return fmt.Errorf("persist: record of %d bytes exceeds limit", len(rec))
	}
	binary.BigEndian.PutUint32(frame, uint32(len(rec)))
	binary.BigEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(rec))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return fmt.Errorf("persist: no journal open (Commit first)")
	}
	if err := s.journal.append(frame); err != nil {
		return fmt.Errorf("persist: append: %w", err)
	}
	return nil
}

// Epoch reports the journal epoch currently open (0 before the first
// Load/Commit). A replica includes it in its hello so an operator can
// see how far behind a standby's shipped state is.
func (s *Store) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Sync flushes the journal to stable storage (graceful drain; routine
// appends rely on the kernel page cache, which survives a process kill).
// On Linux fsync writes back the pages dirtied through the mapping too.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	return s.journal.f.Sync()
}

// Close releases the journal, cutting its file to the records appended.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal == nil {
		return nil
	}
	err := s.journal.close()
	s.journal = nil
	return err
}

// Reset moves every state file aside (suffix ".corrupt", replacing any
// previous set-aside) so the next Load starts fresh. This is the
// -state-recover path: the damaged files are preserved for post-mortem
// instead of deleted.
func (s *Store) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.journal != nil {
		_ = s.journal.close() // the file is set aside as it stands
		s.journal = nil
	}
	aside := func(path string) error {
		err := os.Rename(path, path+".corrupt")
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		return nil
	}
	if err := aside(s.snapPath()); err != nil {
		return fmt.Errorf("persist: reset: %w", err)
	}
	epochs, err := s.journalEpochs()
	if err != nil {
		return fmt.Errorf("persist: reset: %w", err)
	}
	for _, e := range epochs {
		if err := aside(s.journalPath(e)); err != nil {
			return fmt.Errorf("persist: reset: %w", err)
		}
	}
	return nil
}

// decodeSnapshot validates a snapshot file image and returns its payload
// and epoch. Every failure is a *CorruptError naming the file.
func decodeSnapshot(path string, raw []byte) (json.RawMessage, uint64, *CorruptError) {
	corrupt := func(reason string) (json.RawMessage, uint64, *CorruptError) {
		return nil, 0, &CorruptError{Path: path, Reason: reason}
	}
	if len(raw) == 0 {
		return corrupt("zero-length snapshot")
	}
	if len(raw) < snapHeaderLen {
		return corrupt(fmt.Sprintf("truncated header (%d bytes)", len(raw)))
	}
	if string(raw[:8]) != snapMagic {
		return corrupt("bad magic (not a Sense-Aid snapshot)")
	}
	if v := binary.BigEndian.Uint32(raw[8:]); v != SnapshotVersion {
		return corrupt(fmt.Sprintf("unsupported snapshot version %d (want %d)", v, SnapshotVersion))
	}
	epoch := binary.BigEndian.Uint64(raw[12:])
	payload := raw[snapHeaderLen:]
	if len(payload) > maxSnapshotBytes {
		return corrupt("snapshot payload exceeds size limit")
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[20:]) {
		return corrupt("snapshot CRC mismatch")
	}
	if !validJSON(payload) {
		return corrupt("snapshot payload is not valid JSON")
	}
	return json.RawMessage(payload), epoch, nil
}

// checkSplitBytes is the least share of a journal file worth a checking
// goroutine of its own: a file is checked on several only when each can
// get at least this much, so a small journal never pays for the fan-out.
const checkSplitBytes = 32 << 10

// checkWorkers is how many goroutines check a journal file of n bytes.
func checkWorkers(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/checkSplitBytes))
}

// readChunkBytes is how much of a journal file one read brings in:
// little enough that the records just read are still in cache when they
// are framed, and when the reader checks them itself.
const readChunkBytes = 64 << 10

// readJournal reads one journal file image from r (size bytes, as last
// seen) and appends to recs the records that pass every check, returning
// how many bytes were discarded at the first corrupt or torn record
// (tornBytes).
// Each read's records are framed — their length fields walked — as they
// arrive, while they are in cache: a walk over the whole image after
// reading it would wait on memory at every length field. Their CRC and
// grammar checks are queued for workers-1 checker goroutines, or run by
// the reader itself when the queue is full, so the checks overlap the
// reading and share the cores. The image is cut at the lowest frame that
// failed — where a frame-by-frame walk stops, with the same records and
// the same count of discarded bytes.
func readJournal(recs []json.RawMessage, r io.Reader, size, workers int) ([]json.RawMessage, int64, error) {
	var mu sync.Mutex
	bad, badOff := -1, 0 // the lowest failing frame (an index into recs) and its offset
	check := func(sp span) {
		if k, at := checkRange(sp.raw, sp.frames, sp.off); k < len(sp.frames) {
			mu.Lock()
			if bad < 0 || sp.first+k < bad {
				bad, badOff = sp.first+k, at
			}
			mu.Unlock()
		}
	}
	// One span queued per checker, so a checker that finishes one finds
	// the next waiting; with the queue full the reader checks it itself.
	spans := make(chan span, workers-1)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sp := range spans {
				check(sp)
			}
		}()
	}

	raw := make([]byte, 0, size+1) // a byte over, so the read that meets EOF has room
	base, off := len(recs), 0
	var err error
	for err == nil {
		if len(raw) == cap(raw) {
			raw = append(raw, 0)[:len(raw)] // the file grew
		}
		var n int
		n, err = r.Read(raw[len(raw):min(cap(raw), len(raw)+readChunkBytes)])
		raw = raw[:len(raw)+n]
		framed := len(recs)
		sp := span{raw: raw, first: framed, off: off}
		if recs, off = frame(recs, raw, off); len(recs) > framed {
			sp.frames = recs[framed:]
			select {
			case spans <- sp:
			default:
				check(sp)
			}
		}
	}
	close(spans)
	wg.Wait()
	switch {
	case err != io.EOF:
		return recs[:base], 0, err
	case bad >= 0:
		recs, off = recs[:bad], badOff
	}
	return recs, tornBytes(raw[off:]), nil
}

// tornBytes is how many bytes of a journal image's tail, after its last
// good record, are discarded: all of them, unless all are zero — then
// they are the space a journal reserves ahead of its end for appending,
// and no record was torn.
func tornBytes(tail []byte) int64 {
	for _, c := range tail {
		if c != 0 {
			return int64(len(tail))
		}
	}
	return 0
}

// journalEnd is where the good records of an existing journal file end.
func journalEnd(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return 0, err
	}
	recs, _, err := readJournal(nil, f, int(st.Size()), 1)
	var end int64
	for _, r := range recs {
		end += frameHeaderLen + int64(len(r))
	}
	return end, err
}

// span is consecutive framed records of one journal image, the first
// at offset off of raw and at index first of the records read.
type span struct {
	raw    []byte
	first  int
	off    int
	frames []json.RawMessage
}

// frame appends the records of raw from offset off on whose length field
// is in bounds and whose bytes are all in raw, and returns the offset
// after the last. It stops at the first that is not; called again with
// more of the image, it carries on from there.
func frame(recs []json.RawMessage, raw []byte, off int) ([]json.RawMessage, int) {
	for len(raw)-off >= frameHeaderLen {
		n := int(binary.BigEndian.Uint32(raw[off:]))
		if n <= 0 || n > MaxRecordBytes || len(raw)-off-frameHeaderLen < n {
			break
		}
		recs = append(recs, json.RawMessage(raw[off+frameHeaderLen:off+frameHeaderLen+n]))
		off += frameHeaderLen + n
	}
	return recs, off
}

// checkRange checks consecutive frames, the first at offset off of raw,
// and returns how many pass and the offset of the first that does not.
func checkRange(raw []byte, frames []json.RawMessage, off int) (int, int) {
	for k, p := range frames {
		if crc32.ChecksumIEEE(p) != binary.BigEndian.Uint32(raw[off+4:]) || !validJSON(p) {
			return k, off
		}
		off += frameHeaderLen + len(p)
	}
	return len(frames), off
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("persist: create %s: %w", path, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: write %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("persist: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("persist: close %s: %w", path, err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-renamed file's entry is durable.
// Best effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}
