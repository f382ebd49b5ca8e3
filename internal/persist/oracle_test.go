package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// decodeJournalOracle is the journal decoder Load used before checks ran
// in parallel: one frame at a time, length then CRC then encoding/json's
// grammar, stopping at the first frame that fails any of them — and
// counting nothing cut when all that is left is zeros, the space a live
// journal reserves. The decoder Load uses now must agree with it on
// every input.
func decodeJournalOracle(raw []byte) (recs []json.RawMessage, truncated int64) {
	off := 0
	for off < len(raw) {
		if len(bytes.TrimLeft(raw[off:], "\x00")) == 0 {
			return recs, 0
		}
		rest := len(raw) - off
		if rest < frameHeaderLen {
			return recs, int64(rest)
		}
		n := int(binary.BigEndian.Uint32(raw[off:]))
		if n <= 0 || n > MaxRecordBytes || rest-frameHeaderLen < n {
			return recs, int64(rest)
		}
		payload := raw[off+frameHeaderLen : off+frameHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(raw[off+4:]) {
			return recs, int64(rest)
		}
		if !json.Valid(payload) {
			return recs, int64(rest)
		}
		recs = append(recs, json.RawMessage(payload))
		off += frameHeaderLen + n
	}
	return recs, 0
}

// decodeJournal reads a journal image as Load reads a file, but through
// a reader that hands over half of each read asked of it, so frames
// straddle reads at every kind of offset. Every other call starts from a
// size a third of the image's, as if the file grew after it was sized.
func decodeJournal(recs []json.RawMessage, raw []byte, workers int) ([]json.RawMessage, int64) {
	size := len(raw)
	if workers%2 == 0 {
		size /= 3
	}
	recs, cut, err := readJournal(recs, iotest.HalfReader(bytes.NewReader(raw)), size, workers)
	if err != nil {
		panic(err) // a bytes.Reader does not fail
	}
	return recs, cut
}

// sameDecode fails the test unless decodeJournal, on every worker count
// from 1 to 5, returns what the oracle returns for raw.
func sameDecode(t *testing.T, label string, raw []byte) {
	t.Helper()
	want, wantCut := decodeJournalOracle(raw)
	for workers := 1; workers <= 5; workers++ {
		got, cut := decodeJournal(nil, raw, workers)
		if cut != wantCut || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s, %d workers: %d records, %d bytes cut; the oracle %d records, %d bytes cut",
				label, workers, len(got), cut, len(want), wantCut)
		}
	}
}

// appendFrame frames one record the way Store.Append does.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// randomRecord is a JSON record shaped like the journal's: keys, strings
// with escapes and multi-byte runes, numbers in every notation, nesting.
func randomRecord(rng *rand.Rand) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"n":%d,"op":"%s","at":"2017-12-11T09:00:%02d.%09dZ"`, rng.Intn(1e6), []string{"register", "dispatch", "receive", "energy"}[rng.Intn(4)], rng.Intn(60), rng.Intn(1e9))
	if rng.Intn(2) == 0 {
		fmt.Fprintf(&b, `,"device":{"id":"dév-%x\n","pos":{"lat":%g,"lon":-%g},"sensors":[1,2],"ok":true,"none":null}`, rng.Int63(), rng.Float64()*90, rng.Float64()*1e-7)
	}
	if rng.Intn(2) == 0 {
		b.WriteString(`,"devices":[`)
		for i, n := 0, rng.Intn(20); i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"3f9a1c0e5b7d%04x"`, i)
		}
		b.WriteByte(']')
	}
	fmt.Fprintf(&b, `,"value":%v}`, rng.NormFloat64()*1e3)
	return []byte(b.String())
}

// TestDecodeJournalMatchesOracle: over random journal images, clean or
// with frames corrupted — up to three in their CRC or their grammar,
// then perhaps one in its length or torn off — and followed by up to two
// reservation steps of zeros, the parallel decoder keeps exactly the
// records the sequential oracle keeps and cuts exactly as many bytes, on
// any number of workers.
func TestDecodeJournalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 300; iter++ {
		var raw []byte
		var offs []int
		for i, n := 0, rng.Intn(40); i < n; i++ {
			offs = append(offs, len(raw))
			raw = appendFrame(raw, randomRecord(rng))
		}
		if len(offs) > 0 {
			for _, k := range rng.Perm(len(offs))[:min(len(offs), rng.Intn(4))] {
				at := offs[k]
				p := raw[at+frameHeaderLen : at+frameHeaderLen+int(binary.BigEndian.Uint32(raw[at:]))]
				if rng.Intn(2) == 0 { // a CRC that does not match
					raw[at+4] ^= 1 << rng.Intn(8)
					continue
				}
				// bytes that may not be JSON, under a CRC that matches them
				p[rng.Intn(len(p))] = "}]\",:\x00x"[rng.Intn(7)]
				binary.BigEndian.PutUint32(raw[at+4:], crc32.ChecksumIEEE(p))
			}
			at := offs[rng.Intn(len(offs))]
			switch rng.Intn(4) {
			case 0: // a length past the end, or past the record limit
				n := int(binary.BigEndian.Uint32(raw[at:]))
				binary.BigEndian.PutUint32(raw[at:], uint32(n+1+rng.Intn(MaxRecordBytes)))
			case 1: // a length of zero
				binary.BigEndian.PutUint32(raw[at:], 0)
			case 2: // a torn tail
				raw = raw[:at+rng.Intn(len(raw)-at)]
			}
		}
		if rng.Intn(2) == 0 { // what a live or killed journal reserves past its end
			raw = append(raw, make([]byte, rng.Intn(2*reserveStep+1))...)
		}
		sameDecode(t, fmt.Sprintf("image %d (%d frames)", iter, len(offs)), raw)
	}
}

// The same equivalence through Store.Load: several epochs, the last
// corrupted part-way, each read in several chunks and checked in parts.
func TestLoadMatchesOracleAcrossEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	var images [][]byte
	for e := 1; e <= 3; e++ {
		var raw []byte
		for len(raw) < 3*readChunkBytes {
			raw = appendFrame(raw, randomRecord(rng))
		}
		images = append(images, raw)
	}
	last := images[2]
	last[len(last)/2] ^= 0x55 // a corrupt record in the middle of the newest epoch
	var want []json.RawMessage
	var wantCut int64
	for e, raw := range images {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("core.journal.%d", e+1)), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, cut := decodeJournalOracle(raw)
		want = append(want, recs...)
		wantCut += cut
	}
	res, err := openStore(t, dir).Load()
	if err != nil {
		t.Fatal(err)
	}
	if res.TruncatedBytes != wantCut || wantCut == 0 || len(res.Records) != len(want) {
		t.Fatalf("Load: %d records, %d bytes cut; the oracle %d records, %d bytes cut",
			len(res.Records), res.TruncatedBytes, len(want), wantCut)
	}
	for i := range want {
		if !bytes.Equal(res.Records[i], want[i]) {
			t.Fatalf("record %d: %s, the oracle %s", i, res.Records[i], want[i])
		}
	}
}

// FuzzValidJSON holds validJSON to encoding/json.Valid: the same verdict
// on every input.
func FuzzValidJSON(f *testing.F) {
	golden, _ := filepath.Glob("../core/testdata/golden/core.*")
	for _, name := range golden {
		raw, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		if strings.HasSuffix(name, ".snap") && len(raw) > snapHeaderLen {
			f.Add(raw[snapHeaderLen:])
			continue
		}
		recs, _ := decodeJournalOracle(raw)
		for _, r := range recs {
			f.Add([]byte(r))
		}
	}
	for _, depth := range []int{maxNestingDepth, maxNestingDepth + 1} {
		f.Add([]byte(strings.Repeat("[", depth) + strings.Repeat("]", depth)))
		f.Add([]byte(strings.Repeat(`{"a":`, depth-1) + "{}" + strings.Repeat("}", depth-1)))
	}
	for _, s := range []string{
		"", " \t\r\n", "null", " true ", "false", "0", "-0", "-0.5e+10", "1E-3", "01", "1.", ".5", "-", "+1",
		`"😀"`, `"\ud800"`, `"\udc00x"`, `"\u12"`, `"\x"`, "\"\xff\xfe\"", "\"\xed\xa0\x80\"", "\"\x1f\"",
		`{"a":1,}`, `[1,]`, `{"a" 1}`, `{1:2}`, `[1 2]`, `{}{}`, `[]]`, "\xef\xbb\xbf{}", `nul`, `[tru]`, `{"a":[{"b":{}}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := validJSON(b), json.Valid(b); got != want {
			t.Fatalf("validJSON(%q) = %v, encoding/json.Valid %v", b, got, want)
		}
	})
}
