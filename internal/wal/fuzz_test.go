package wal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"luf/internal/cert"
	"luf/internal/fault"
)

// fuzzSeedImages builds the seed corpus: a clean journal, a torn one, a
// corrupt one, and assorted degenerate prefixes. The same builder also
// backs the checked-in corpus files (see TestFuzzSeedCorpus).
func fuzzSeedImages() [][]byte {
	c := DeltaCodec{}
	clean := appendFrame(nil, encodeHeader(c.GroupID(), 0, 0))
	for i, e := range consistentEntries(4, 42) {
		clean = appendFrame(clean, encodeAssert(c, uint64(i+1), e))
	}
	torn := append(append([]byte{}, clean...), 0x99, 0x01)
	corrupt := append([]byte{}, clean...)
	corrupt[len(corrupt)/3] ^= 0xff
	snapshot := appendFrame(nil, encodeHeader(c.GroupID(), 17, 0))
	snapshot = appendFrame(snapshot, encodeAssert(c, 1, cert.Entry[string, int64]{N: "a", M: "b", Label: -3, Reason: "seed"}))
	return [][]byte{
		clean,
		torn,
		corrupt,
		snapshot,
		clean[:len(clean)/2],
		{},
		{0, 0, 0, 0, 0, 0, 0, 0},
		bytes.Repeat([]byte{0xff}, 64),
	}
}

// FuzzJournalDecode drives DecodeAll with arbitrary bytes and checks
// its safety contract: it never panics, every record it yields
// re-verifies against the stored CRC-32C at the offsets the record
// reports, sequence numbers are strictly increasing, the valid prefix
// re-decodes to the identical result (prefix stability — what recovery
// truncates to must itself recover), and the torn-tail accounting is
// exact.
func FuzzJournalDecode(f *testing.F) {
	for _, seed := range fuzzSeedImages() {
		f.Add(seed)
	}
	c := DeltaCodec{}
	f.Fuzz(func(t *testing.T, image []byte) {
		res, err := DecodeAll(image, c)
		if err != nil {
			return // structured corruption report is a valid outcome
		}
		if res.ValidLen+res.TornBytes != len(image) {
			t.Fatalf("accounting: valid %d + torn %d != %d bytes", res.ValidLen, res.TornBytes, len(image))
		}
		lastSeq := uint64(0)
		for i, r := range res.Records {
			if r.Off < 0 || r.Len < 0 || r.Off+r.Len > res.ValidLen {
				t.Fatalf("record %d at [%d,%d) escapes the valid prefix of %d bytes", i, r.Off, r.Off+r.Len, res.ValidLen)
			}
			payload := image[r.Off : r.Off+r.Len]
			stored := uint32(image[r.Off-4]) | uint32(image[r.Off-3])<<8 | uint32(image[r.Off-2])<<16 | uint32(image[r.Off-1])<<24
			if crc32.Checksum(payload, castagnoli) != stored {
				t.Fatalf("record %d fails its stored checksum — the decoder must never yield such a record", i)
			}
			if r.Seq <= lastSeq {
				t.Fatalf("record %d sequence %d not above predecessor %d", i, r.Seq, lastSeq)
			}
			lastSeq = r.Seq
		}
		// Prefix stability: the valid prefix decodes to the same records
		// with no torn tail — recovery's repair-truncate is a fixpoint.
		again, err := DecodeAll(image[:res.ValidLen], c)
		if err != nil {
			t.Fatalf("valid prefix failed to re-decode: %v", err)
		}
		if again.TornBytes != 0 {
			t.Fatalf("valid prefix reports %d torn bytes", again.TornBytes)
		}
		if len(again.Records) != len(res.Records) {
			t.Fatalf("valid prefix has %d records, original decode had %d", len(again.Records), len(res.Records))
		}
		for i := range again.Records {
			if again.Records[i].Seq != res.Records[i].Seq {
				t.Fatalf("record %d changed sequence across re-decode", i)
			}
		}
	})
}

// FuzzDecodeFrames drives DecodeFrames, the parser of shipped,
// resynced and migrated record windows, with arbitrary bytes: it never
// panics, refuses damage only with fault.ErrIO, yields strictly
// increasing sequence numbers, and what it yields survives a re-encode
// unchanged (decode∘encode∘decode equals decode).
func FuzzDecodeFrames(f *testing.F) {
	c := DeltaCodec{}
	var recs []SeqEntry[string, int64]
	for i, e := range consistentEntries(6, 7) {
		recs = append(recs, SeqEntry[string, int64]{Seq: uint64(3*i + 2), Entry: e})
	}
	clean := EncodeFrames(c, recs)
	corrupt := append([]byte{}, clean...)
	corrupt[len(corrupt)/2] ^= 0x10
	reordered := EncodeFrames(c, []SeqEntry[string, int64]{recs[1], recs[0]})
	for _, seed := range [][]byte{
		clean,
		corrupt,
		reordered,
		clean[:len(clean)/2],
		appendFrame(nil, encodeHeader(c.GroupID(), 0, 0)),
		{},
		bytes.Repeat([]byte{0xff}, 64),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		got, err := DecodeFrames(image, c)
		if err != nil {
			if !errors.Is(err, fault.ErrIO) {
				t.Fatalf("refusal %v is not classified fault.ErrIO", err)
			}
			return
		}
		prev := uint64(0)
		for i, r := range got {
			if r.Seq <= prev {
				t.Fatalf("record %d sequence %d not above predecessor %d", i, r.Seq, prev)
			}
			prev = r.Seq
		}
		again, err := DecodeFrames(EncodeFrames(c, got), c)
		if err != nil {
			t.Fatalf("re-encoded records fail to decode: %v", err)
		}
		if !reflect.DeepEqual(again, got) {
			t.Fatalf("decode∘encode∘decode = %v, want %v", again, got)
		}
	})
}

// TestFuzzSeedCorpus runs every seed image through the fuzz property
// directly, so the corpus is exercised even when `go test` runs without
// fuzzing, and checks the checked-in corpus files match the builder.
// Regenerate them with: LUF_WRITE_CORPUS=1 go test ./internal/wal -run TestFuzzSeedCorpus
func TestFuzzSeedCorpus(t *testing.T) {
	c := DeltaCodec{}
	dir := filepath.Join("testdata", "fuzz", "FuzzJournalDecode")
	for i, image := range fuzzSeedImages() {
		res, err := DecodeAll(image, c)
		if err == nil && res.ValidLen+res.TornBytes != len(image) {
			t.Fatalf("seed %d: accounting broken", i)
		}
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		body := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(image)) + ")\n")
		if os.Getenv("LUF_WRITE_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(name, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(name)
		if err != nil {
			t.Fatalf("seed corpus file missing (regenerate with LUF_WRITE_CORPUS=1): %v", err)
		}
		if !bytes.Equal(got, body) {
			t.Fatalf("seed corpus file %s is stale (regenerate with LUF_WRITE_CORPUS=1)", name)
		}
	}
}
