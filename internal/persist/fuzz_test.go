package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeSnapshot feeds arbitrary bytes through the snapshot decoder:
// it must never panic, and a mutated valid snapshot must either decode
// to the identical payload or be reported corrupt — never misread.
func FuzzDecodeSnapshot(f *testing.F) {
	valid := func(payload []byte) []byte {
		buf := make([]byte, snapHeaderLen+len(payload))
		copy(buf, snapMagic)
		binary.BigEndian.PutUint32(buf[8:], SnapshotVersion)
		binary.BigEndian.PutUint64(buf[12:], 7)
		binary.BigEndian.PutUint32(buf[20:], crc32.ChecksumIEEE(payload))
		copy(buf[snapHeaderLen:], payload)
		return buf
	}
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Add(valid([]byte(`{"tasks":[1,2,3]}`)))
	f.Add(valid([]byte(`null`))[:12])
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, _, cerr := decodeSnapshot("fuzz.snap", data)
		if cerr == nil && len(data) < snapHeaderLen {
			t.Fatal("decoded a snapshot shorter than its header")
		}
		if cerr == nil {
			// Accepted payloads must pass the CRC actually stored.
			if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(data[20:]) {
				t.Fatal("accepted payload does not match stored CRC")
			}
		}
	})
}

// FuzzDecodeJournal feeds arbitrary bytes, followed by up to two
// reservation steps of zeros, through the journal decoder: it must never
// panic, accepted-prefix + truncated-suffix must cover the file unless
// what is not accepted is all zeros, and on any number of workers it must
// keep exactly the records the sequential oracle keeps.
func FuzzDecodeJournal(f *testing.F) {
	frame := func(payloads ...[]byte) []byte {
		var buf []byte
		for _, p := range payloads {
			hdr := make([]byte, 8)
			binary.BigEndian.PutUint32(hdr, uint32(len(p)))
			binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
			buf = append(buf, hdr...)
			buf = append(buf, p...)
		}
		return buf
	}
	f.Add([]byte{}, uint32(0))
	f.Add(frame([]byte(`{"seq":1}`)), uint32(reserveStep-17))
	f.Add(frame([]byte(`{"seq":1}`), []byte(`{"seq":2}`)), uint32(0))
	f.Add(frame([]byte(`{"seq":1}`))[:5], uint32(0))
	f.Add(frame([]byte(`{"seq":1}`), []byte(`{"seq":2}`))[:20], uint32(2*reserveStep))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}, uint32(3))
	f.Fuzz(func(t *testing.T, data []byte, zeros uint32) {
		data = append(data, make([]byte, zeros%(2*reserveStep+1))...)
		recs, truncated := decodeJournal(nil, data, 3)
		consumed := 0
		for _, r := range recs {
			consumed += 8 + len(r)
		}
		if rest := data[consumed:]; int(truncated) != len(rest) && (truncated != 0 || len(bytes.TrimLeft(rest, "\x00")) != 0) {
			t.Fatalf("prefix %d + truncated %d != file %d, and the rest is not all zeros", consumed, truncated, len(data))
		}
		sameDecode(t, "fuzzed image", data)
	})
}

// FuzzStoreLoad writes arbitrary bytes as both state files and ensures a
// full Load never panics: it either succeeds (possibly with truncation)
// or reports corruption cleanly.
func FuzzStoreLoad(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte(snapMagic), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, snap, journal []byte) {
		dir := t.TempDir()
		if len(snap) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "core.snap"), snap, 0o644); err != nil {
				t.Skip()
			}
		}
		if len(journal) > 0 {
			if err := os.WriteFile(filepath.Join(dir, "core.journal.1"), journal, 0o644); err != nil {
				t.Skip()
			}
		}
		st, err := Open(dir, "core")
		if err != nil {
			t.Fatal(err)
		}
		res, err := st.Load()
		if err != nil {
			if len(snap) > 0 && !IsCorrupt(err) {
				t.Fatalf("non-corrupt error from hostile input: %v", err)
			}
			return
		}
		// Whatever loaded, committing over it must work.
		if _, err := st.Commit(map[string]int{"records": len(res.Records)}); err != nil {
			t.Fatalf("Commit after hostile load: %v", err)
		}
	})
}
