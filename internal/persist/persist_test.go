package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

type rec struct {
	Seq int    `json:"seq"`
	Op  string `json:"op"`
}

func openStore(t testing.TB, dir string) *Store {
	t.Helper()
	st, err := Open(dir, "core")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func TestLoadEmptyDir(t *testing.T) {
	st := openStore(t, t.TempDir())
	res, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if res.HadState || res.Snapshot != nil || len(res.Records) != 0 {
		t.Fatalf("expected pristine load, got %+v", res)
	}
}

func TestCommitAppendLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if _, err := st.Commit(map[string]int{"tasks": 3}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for i := 1; i <= 5; i++ {
		if err := st.Append(rec{Seq: i, Op: "submit"}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	st2 := openStore(t, dir)
	res, err := st2.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !res.HadState {
		t.Fatal("expected HadState")
	}
	var snap map[string]int
	if err := json.Unmarshal(res.Snapshot, &snap); err != nil || snap["tasks"] != 3 {
		t.Fatalf("snapshot round trip: %v %v", snap, err)
	}
	if len(res.Records) != 5 {
		t.Fatalf("got %d records, want 5", len(res.Records))
	}
	var last rec
	if err := json.Unmarshal(res.Records[4], &last); err != nil || last.Seq != 5 {
		t.Fatalf("record round trip: %+v %v", last, err)
	}
	if res.TruncatedBytes != 0 {
		t.Fatalf("unexpected truncation: %d bytes", res.TruncatedBytes)
	}
}

func TestAppendBeforeCommitRefused(t *testing.T) {
	st := openStore(t, t.TempDir())
	if err := st.Append(rec{Seq: 1}); err == nil {
		t.Fatal("Append before Commit should fail")
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if _, err := st.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.Append(rec{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last record: chop bytes off the file end.
	path := filepath.Join(dir, "core.journal.1")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := openStore(t, dir).Load()
	if err != nil {
		t.Fatalf("Load after tear: %v", err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("got %d records after torn tail, want 2", len(res.Records))
	}
	if res.TruncatedBytes == 0 {
		t.Fatal("expected truncated bytes reported")
	}
}

func TestCorruptMidRecordStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if _, err := st.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if err := st.Append(rec{Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "core.journal.1")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the second record.
	firstLen := int(binary.BigEndian.Uint32(raw))
	raw[8+firstLen+8+2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := openStore(t, dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("got %d records past a corrupt one, want 1", len(res.Records))
	}
}

func TestCorruptSnapshotReported(t *testing.T) {
	for name, mutate := range map[string]func(string) error{
		"zero-length": func(p string) error { return os.WriteFile(p, nil, 0o644) },
		"bad-magic": func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[0] ^= 0xFF
			return os.WriteFile(p, raw, 0o644)
		},
		"payload-flip": func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			raw[len(raw)-1] ^= 0xFF
			return os.WriteFile(p, raw, 0o644)
		},
		"truncated": func(p string) error {
			raw, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			return os.WriteFile(p, raw[:10], 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st := openStore(t, dir)
			if _, err := st.Commit(map[string]string{"hello": "world"}); err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if err := mutate(filepath.Join(dir, "core.snap")); err != nil {
				t.Fatal(err)
			}
			_, err := openStore(t, dir).Load()
			if err == nil {
				t.Fatal("expected corrupt-snapshot error")
			}
			if !IsCorrupt(err) {
				t.Fatalf("want CorruptError, got %T: %v", err, err)
			}
		})
	}
}

func TestResetMovesStateAside(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	if _, err := st.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(rec{Seq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	res, err := st.Load()
	if err != nil {
		t.Fatalf("Load after Reset: %v", err)
	}
	if res.HadState {
		t.Fatal("state should be gone after Reset")
	}
	if _, err := os.Stat(filepath.Join(dir, "core.snap.corrupt")); err != nil {
		t.Fatalf("set-aside snapshot missing: %v", err)
	}
}

func TestRotationKeepsPreviousEpoch(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	for i := 0; i < 3; i++ {
		if _, err := st.Commit(map[string]int{"gen": i}); err != nil {
			t.Fatal(err)
		}
		if err := st.Append(rec{Seq: i*10 + 1}); err != nil {
			t.Fatal(err)
		}
	}
	epochs, err := st.journalEpochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[0] != 2 || epochs[1] != 3 {
		t.Fatalf("want journals {2,3}, got %v", epochs)
	}
	// Records from both retained epochs are replayed (caller dedupes).
	res, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 2 {
		t.Fatalf("want 2 records across retained epochs, got %d", len(res.Records))
	}
}

func TestCrashBetweenSnapshotAndRotation(t *testing.T) {
	// Simulate a crash after the snapshot rename but before any append to
	// the new epoch: the old epoch's tail records must still replay.
	dir := t.TempDir()
	st := openStore(t, dir)
	if _, err := st.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(rec{Seq: 1, Op: "after-snap"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openStore(t, dir)
	res, err := st2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 1 {
		t.Fatalf("want the post-snapshot record, got %d", len(res.Records))
	}
	// The next commit must use a strictly newer epoch.
	if _, err := st2.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	epochs, err := st2.journalEpochs()
	if err != nil {
		t.Fatal(err)
	}
	if epochs[len(epochs)-1] != 2 {
		t.Fatalf("want epoch 2 after reload+commit, got %v", epochs)
	}
}

func TestOpenRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "a/b", `a\b`} {
		if _, err := Open(t.TempDir(), name); err == nil {
			t.Errorf("Open(%q) should fail", name)
		}
	}
}

func TestOversizeRecordRefused(t *testing.T) {
	st := openStore(t, t.TempDir())
	if _, err := st.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	big := strings.Repeat("x", MaxRecordBytes+1)
	if err := st.Append(map[string]string{"v": big}); err == nil {
		t.Fatal("oversize record should be refused")
	}
}

// selfRec is rec writing its own JSON, the way core.JournalRecord does.
type selfRec rec

func (r selfRec) AppendJSON(dst []byte) ([]byte, error) {
	if r.Op == "refuse" {
		return dst, errors.New("unencodable")
	}
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(r.Seq), 10)
	dst = append(dst, `,"op":"`...)
	dst = append(dst, r.Op...)
	return append(dst, `"}`...), nil
}

// A payload that encodes itself and one that goes through encoding/json
// leave the same bytes in the journal, and those bytes load, tear and
// truncate as they always have.
func TestSelfEncodedAppendMatchesMarshalled(t *testing.T) {
	viaJSON, viaSelf := t.TempDir(), t.TempDir()
	for _, dir := range []string{viaJSON, viaSelf} {
		st := openStore(t, dir)
		if _, err := st.Commit(struct{}{}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i <= 4; i++ {
			var payload any = rec{Seq: i, Op: "dispatch"}
			if dir == viaSelf {
				payload = selfRec{Seq: i, Op: "dispatch"}
			}
			if err := st.Append(payload); err != nil {
				t.Fatalf("Append %d: %v", i, err)
			}
		}
		if err := st.Append(selfRec{Op: "refuse"}); err == nil {
			t.Fatal("Append swallowed the payload's encoding error")
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(filepath.Join(viaJSON, "core.journal.1"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(viaSelf, "core.journal.1")
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes differ\nencoding/json: %q\nself-encoded:  %q", want, got)
	}

	res, err := openStore(t, viaSelf).Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 4 || res.TruncatedBytes != 0 || string(res.Records[3]) != `{"seq":4,"op":"dispatch"}` {
		t.Fatalf("Load = %d records, %d truncated, last %s", len(res.Records), res.TruncatedBytes, res.Records[len(res.Records)-1])
	}
	if err := os.WriteFile(path, got[:len(got)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	res, err = openStore(t, viaSelf).Load()
	if err != nil {
		t.Fatalf("Load after tear: %v", err)
	}
	if len(res.Records) != 3 || res.TruncatedBytes != int64(frameHeaderLen+len(`{"seq":4,"op":"dispatch"}`)-5) {
		t.Fatalf("after a torn tail: %d records, %d bytes truncated", len(res.Records), res.TruncatedBytes)
	}
}

// The steady-state append allocates nothing inside persist (a caller
// passing a struct by value pays for boxing it into the interface; a
// pointer shows the store's own share).
func TestSelfEncodedAppendDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	st := openStore(t, t.TempDir())
	defer st.Close()
	if _, err := st.Commit(struct{}{}); err != nil {
		t.Fatal(err)
	}
	r := &selfRec{Seq: 7, Op: "receive"}
	if n := testing.AllocsPerRun(200, func() {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Append allocated %v times per record, want 0", n)
	}
}
