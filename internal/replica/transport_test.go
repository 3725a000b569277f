package replica

import (
	"bytes"
	"errors"
	"net/http"
	"strings"
	"testing"
	"testing/iotest"

	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/wal"
)

// sameBatch reports whether two batches carry the same fields and
// frame bytes (a nil and an empty body are the same body).
func sameBatch(a, b Batch) bool {
	return a.Fence == b.Fence && a.Primary == b.Primary && a.PrevSeq == b.PrevSeq &&
		a.PrevCRC == b.PrevCRC && a.Count == b.Count && bytes.Equal(a.Frames, b.Frames)
}

func TestReadBatchHeaders(t *testing.T) {
	valid := map[string]string{
		HeaderFence:   "18446744073709551615",
		HeaderPrimary: "http://primary.test",
		HeaderPrevSeq: "18446744073709551615",
		HeaderPrevCRC: "4294967295",
		HeaderCount:   "2",
	}
	// with returns the valid headers with name set to value, or
	// without name when value is empty.
	with := func(name, value string) http.Header {
		h := http.Header{}
		for k, v := range valid {
			h.Set(k, v)
		}
		h.Del(name)
		if value != "" {
			h.Set(name, value)
		}
		return h
	}
	b, err := ReadBatch(with(HeaderCount, "2"), strings.NewReader("frames"))
	want := Batch{Fence: 1<<64 - 1, Primary: "http://primary.test", PrevSeq: 1<<64 - 1, PrevCRC: 1<<32 - 1, Count: 2, Frames: []byte("frames")}
	if err != nil || !sameBatch(b, want) {
		t.Fatalf("valid headers = (%+v, %v), want %+v", b, err, want)
	}
	// The primary hint is optional; a batch without one still parses.
	if b, err := ReadBatch(with(HeaderPrimary, ""), strings.NewReader("")); err != nil || b.Primary != "" {
		t.Fatalf("missing %s = (%+v, %v), want an empty hint", HeaderPrimary, b, err)
	}

	for _, tc := range []struct{ header, value string }{
		{HeaderFence, "fence"},
		{HeaderFence, "-1"},
		{HeaderFence, "18446744073709551616"},
		{HeaderFence, ""},
		{HeaderPrevSeq, "0x10"},
		{HeaderPrevSeq, "-1"},
		{HeaderPrevSeq, "18446744073709551616"},
		{HeaderPrevSeq, ""},
		{HeaderPrevCRC, "crc"},
		{HeaderPrevCRC, "-1"},
		{HeaderPrevCRC, "4294967296"},
		{HeaderPrevCRC, ""},
		{HeaderCount, "two"},
		{HeaderCount, "-1"},
		{HeaderCount, "9223372036854775808"},
		{HeaderCount, ""},
	} {
		if _, err := ReadBatch(with(tc.header, tc.value), strings.NewReader("")); !errors.Is(err, fault.ErrInvalidLabel) {
			t.Errorf("%s=%q: err = %v, want an invalid-input refusal", tc.header, tc.value, err)
		}
	}

	// The body cap holds on every route: one byte past 32 MiB is refused.
	_, err = ReadBatch(with(HeaderCount, "0"), bytes.NewReader(make([]byte, maxBatchBytes+1)))
	if !errors.Is(err, fault.ErrInvalidLabel) {
		t.Fatalf("oversized body: err = %v, want an invalid-input refusal", err)
	}
	_, err = ReadBatch(with(HeaderCount, "0"), iotest.ErrReader(errors.New("connection reset")))
	if !errors.Is(err, fault.ErrIO) {
		t.Fatalf("failed body read: err = %v, want an I/O error", err)
	}
}

// FuzzReadBatch feeds arbitrary headers and bodies to the decoder,
// which sees network input and must refuse or accept it without
// panicking; an accepted batch re-encodes to itself. Every batch cut
// from a real store must round-trip through the headers and ReadBatch
// unchanged.
func FuzzReadBatch(f *testing.F) {
	store, _, err := wal.Open(f.TempDir(), group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	for _, e := range consistentEntries(40, 7) {
		if _, err := store.Append(e); err != nil {
			f.Fatal(err)
		}
	}
	f.Add("7", "http://p", "3", "123", "2", []byte("frames"), uint8(3), uint8(5))
	f.Add("", "", "", "", "", []byte{}, uint8(0), uint8(0))
	f.Add("18446744073709551616", "", "-0", "4294967296", "+1", []byte{0, 0, 0, 0}, uint8(40), uint8(255))
	f.Fuzz(func(t *testing.T, fence, primary, prevSeq, prevCRC, count string, body []byte, after, max uint8) {
		h := http.Header{}
		h.Set(HeaderFence, fence)
		h.Set(HeaderPrimary, primary)
		h.Set(HeaderPrevSeq, prevSeq)
		h.Set(HeaderPrevCRC, prevCRC)
		h.Set(HeaderCount, count)
		if b, err := ReadBatch(h, bytes.NewReader(body)); err == nil {
			again := http.Header{}
			b.setHeaders(again)
			if got, err := ReadBatch(again, bytes.NewReader(b.Frames)); err != nil || !sameBatch(got, b) {
				t.Fatalf("accepted batch %+v re-read as (%+v, %v)", b, got, err)
			}
		}

		c, err := cut(store, primary, uint64(after)%(store.LastSeq()+1), int(max))
		if err != nil {
			t.Fatal(err)
		}
		ch := http.Header{}
		c.setHeaders(ch)
		got, err := ReadBatch(ch, bytes.NewReader(c.Frames))
		if err != nil || !sameBatch(got, c) {
			t.Fatalf("cut batch %+v read back as (%+v, %v)", c, got, err)
		}
	})
}
