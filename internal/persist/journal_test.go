package persist

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// writeRef is the journal append Store made before it mapped the file,
// kept as the reference the mapped append is held to and measured
// against: the same frame, one write(2) per record under a mutex, on an
// O_APPEND file.
type writeRef struct {
	mu sync.Mutex
	f  *os.File
}

func openWriteRef(t testing.TB, path string) *writeRef {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return &writeRef{f: f}
}

func (w *writeRef) Append(rec []byte) error {
	bp := framePool.Get().(*[]byte)
	frame := appendFrame((*bp)[:0], rec)
	w.mu.Lock()
	_, err := w.f.Write(frame)
	w.mu.Unlock()
	*bp = frame
	framePool.Put(bp)
	return err
}

// killRecords is the seeded journal the SIGKILL test appends: long
// enough to cross reservation steps and a slide of the mapped window.
func killRecords() [][]byte {
	rng := rand.New(rand.NewSource(41))
	var recs [][]byte
	for n := 0; n <= windowBytes+reserveStep; {
		r := randomRecord(rng)
		recs = append(recs, r)
		n += frameHeaderLen + len(r)
	}
	return recs
}

// sigkillChildDir, set in the environment, makes TestAppendSurvivesSIGKILL
// the child it runs: append killRecords to a store in that directory,
// say so, and wait to be killed.
const sigkillChildDir = "PERSIST_SIGKILL_CHILD_DIR"

// TestAppendSurvivesSIGKILL is the durability contract: a record whose
// Append has returned survives a SIGKILL of the process the next
// instant, with no Close and no Sync. A child process appends the
// records and is killed as soon as it reports the last one appended; the
// journal it leaves must load to all of them with nothing torn, and hold
// exactly the frames the write(2) reference writes, then only zeros.
func TestAppendSurvivesSIGKILL(t *testing.T) {
	recs := killRecords()
	if dir := os.Getenv(sigkillChildDir); dir != "" {
		st, err := Open(dir, "core")
		if err == nil {
			_, err = st.Commit(struct{}{})
		}
		for i := 0; err == nil && i < len(recs); i++ {
			err = st.Append(Encoded(recs[i]))
		}
		if err != nil {
			fmt.Println("child:", err)
			os.Exit(1)
		}
		fmt.Printf("appended %d\n", len(recs))
		_, _ = io.Copy(io.Discard, os.Stdin) // until killed, or orphaned
		os.Exit(1)
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestAppendSurvivesSIGKILL$", "-test.count=1")
	cmd.Env = append(os.Environ(), sigkillChildDir+"="+dir)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer stdin.Close()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	_ = cmd.Process.Kill() // SIGKILL
	_ = cmd.Wait()         // killed: its exit status says only that
	if want := fmt.Sprintf("appended %d\n", len(recs)); err != nil || line != want {
		t.Fatalf("child said %q (%v), want %q", line, err, want)
	}

	ref := openWriteRef(t, filepath.Join(t.TempDir(), "ref"))
	for _, r := range recs {
		if err := ref.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(ref.f.Name())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "core.journal.1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < len(want) || !bytes.Equal(got[:len(want)], want) {
		t.Fatalf("the killed journal's %d bytes do not start with the reference's %d", len(got), len(want))
	}
	if tail := got[len(want):]; len(tail) >= reserveStep || len(bytes.TrimLeft(tail, "\x00")) != 0 {
		t.Fatalf("the killed journal ends in %d bytes that are not a reserved zero tail", len(tail))
	}
	res, err := openStore(t, dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != len(recs) || res.TruncatedBytes != 0 {
		t.Fatalf("Load after SIGKILL: %d of %d records, %d bytes torn", len(res.Records), len(recs), res.TruncatedBytes)
	}
	for i, r := range res.Records {
		if !bytes.Equal(r, recs[i]) {
			t.Fatalf("record %d: %s, appended %s", i, r, recs[i])
		}
	}
}

// heldIn reports how many bytes of files under dir this process has
// mapped, and how many descriptors it holds open on them.
func heldIn(t *testing.T, dir string) (mapped int64, fds int) {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(maps), "\n") {
		if strings.Contains(line, dir) {
			var lo, hi int64
			if _, err := fmt.Sscanf(line, "%x-%x", &lo, &hi); err != nil {
				t.Fatalf("%q: %v", line, err)
			}
			mapped += hi - lo
		}
	}
	fdDir := "/proc/self/fd"
	entries, err := os.ReadDir(fdDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if target, err := os.Readlink(filepath.Join(fdDir, e.Name())); err == nil && strings.HasPrefix(target, dir) {
			fds++
		}
	}
	return mapped, fds
}

// After a Commit rotation, Close and Reset, the process holds no mapping
// and no descriptor of the epoch file it closed, and that file holds
// exactly its records' frames — the reserved space is given back — while
// an open journal never has more than one window mapped.
func TestJournalReleasesMappingsAndReservedSpace(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	defer st.Close()
	rng := rand.New(rand.NewSource(3))
	var frames []byte // the open epoch's records, framed
	fill := func(n int) {
		t.Helper()
		frames = frames[:0]
		for len(frames) < n {
			r := randomRecord(rng)
			if err := st.Append(Encoded(r)); err != nil {
				t.Fatal(err)
			}
			frames = appendFrame(frames, r)
			if mapped, fds := heldIn(t, dir); mapped > windowBytes || fds != 1 {
				t.Fatalf("an open journal holds %d bytes mapped and %d descriptors", mapped, fds)
			}
		}
	}
	closed := func(path, after string) {
		t.Helper()
		if mapped, fds := heldIn(t, path); mapped != 0 || fds != 0 {
			t.Fatalf("after %s, %s is still held: %d bytes mapped, %d descriptors", after, path, mapped, fds)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, frames) {
			t.Fatalf("after %s, %s holds %d bytes, its records %d", after, path, len(got), len(frames))
		}
	}

	if _, err := st.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	fill(windowBytes + reserveStep) // slides the window once
	if _, err := st.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	closed(st.journalPath(1), "a rotation")
	fill(reserveStep / 2)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	closed(st.journalPath(2), "Close")
	if _, err := st.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	fill(3 * reserveStep)
	if err := st.Reset(); err != nil {
		t.Fatal(err)
	}
	closed(st.journalPath(3)+".corrupt", "Reset")
	if mapped, fds := heldIn(t, dir); mapped != 0 || fds != 0 {
		t.Fatalf("after Reset the store holds %d bytes mapped and %d descriptors", mapped, fds)
	}
}

// benchRecord is a 250-byte JSON record.
var benchRecord = Encoded(`{"pad":"` + strings.Repeat("x", 240) + `"}`)

// benchRotateBytes is how much journal an append benchmark's goroutine
// writes before it starts a fresh file, so a long run does not fill the
// disk.
const benchRotateBytes = 64 << 20

// BenchmarkStoreAppend times Store.Append against the write(2)
// reference it replaced, on 250-byte records from 1 and 4 goroutines.
func BenchmarkStoreAppend(b *testing.B) {
	for _, g := range []int{1, 4} {
		b.Run(fmt.Sprintf("mapped/goroutines=%d", g), func(b *testing.B) {
			st := openStore(b, b.TempDir())
			defer st.Close()
			rec := benchRecord // through a pointer, so passing it allocates nothing
			appendFrom(b, g, func() error { return st.Append(&rec) }, func() error {
				_, err := st.Commit(struct{}{})
				return err
			})
		})
		b.Run(fmt.Sprintf("write/goroutines=%d", g), func(b *testing.B) {
			ref := openWriteRef(b, filepath.Join(b.TempDir(), "ref"))
			appendFrom(b, g, func() error { return ref.Append(benchRecord) }, func() error {
				ref.mu.Lock()
				defer ref.mu.Unlock()
				return ref.f.Truncate(0)
			})
		})
	}
}

// appendFrom runs b.N appends shared among g goroutines, each of which
// calls rotate after every benchRotateBytes of records it appends.
func appendFrom(b *testing.B, g int, appendOne, rotate func() error) {
	if err := rotate(); err != nil {
		b.Fatal(err)
	}
	every := benchRotateBytes / (frameHeaderLen + len(benchRecord))
	b.ReportAllocs()
	b.SetBytes(int64(frameHeaderLen + len(benchRecord)))
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		n := b.N / g
		if i < b.N%g {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 1; k <= n; k++ {
				err := appendOne()
				if err == nil && k%every == 0 {
					err = rotate()
				}
				if err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
