package replica

import (
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"luf/internal/fault"
	"luf/internal/wal"
)

// maxBatchBytes bounds one batch body on either route. Raw journal
// frames are compact; 32 MiB is thousands of batches past BatchMax or
// SnapshotChunkMax.
const maxBatchBytes = 32 << 20

// cut builds the anchored batch of up to max records strictly above
// after from store's in-memory record mirror (max <= 0 means no limit):
// the store's fence, the primary hint advertise, the sequence number
// and CRC-32C of the anchoring record after, and the encoded frames.
// Live shipping and snapshot serving both send what it returns.
func cut[N comparable, L any](store *wal.Store[N, L], advertise string, after uint64, max int) (Batch, error) {
	b := Batch{Fence: store.Fence(), Primary: advertise, PrevSeq: after}
	if after > 0 {
		anchor, ok := store.RecordAt(after)
		if !ok {
			return Batch{}, fault.Invariantf("cannot anchor batch at sequence %d: record missing from the shipping mirror", after)
		}
		b.PrevCRC = wal.RecordCRC(store.Codec(), anchor)
	}
	recs := store.RecordsSince(after, max)
	b.Count = len(recs)
	b.Frames = wal.EncodeFrames(store.Codec(), recs)
	return b, nil
}

// setHeaders writes the batch's protocol headers (and its content
// type) to h; the frames travel as the body.
func (b Batch) setHeaders(h http.Header) {
	h.Set("Content-Type", "application/octet-stream")
	h.Set(HeaderFence, strconv.FormatUint(b.Fence, 10))
	h.Set(HeaderPrimary, b.Primary)
	h.Set(HeaderPrevSeq, strconv.FormatUint(b.PrevSeq, 10))
	h.Set(HeaderPrevCRC, strconv.FormatUint(uint64(b.PrevCRC), 10))
	h.Set(HeaderCount, strconv.Itoa(b.Count))
}

// ReadBatch parses a batch from its protocol headers and body, the
// inverse of what a shipping primary or a snapshot source sends. The
// input comes from the network, so it is strict: the fence and the
// anchor's sequence number must be unsigned 64-bit decimals, the
// anchor's CRC an unsigned 32-bit decimal, the count a non-negative
// int, and the body at most 32 MiB. Malformed or oversized input is
// refused with fault.ErrInvalidLabel, a failed body read with
// fault.ErrIO.
func ReadBatch(h http.Header, body io.Reader) (Batch, error) {
	var b Batch
	var err error
	if b.Fence, err = strconv.ParseUint(h.Get(HeaderFence), 10, 64); err != nil {
		return Batch{}, fault.Invalidf("bad %s header: %v", HeaderFence, err)
	}
	if b.PrevSeq, err = strconv.ParseUint(h.Get(HeaderPrevSeq), 10, 64); err != nil {
		return Batch{}, fault.Invalidf("bad %s header: %v", HeaderPrevSeq, err)
	}
	crc, err := strconv.ParseUint(h.Get(HeaderPrevCRC), 10, 32)
	if err != nil {
		return Batch{}, fault.Invalidf("bad %s header: %v", HeaderPrevCRC, err)
	}
	b.PrevCRC = uint32(crc)
	if b.Count, err = strconv.Atoi(h.Get(HeaderCount)); err != nil || b.Count < 0 {
		return Batch{}, fault.Invalidf("bad %s header", HeaderCount)
	}
	b.Primary = h.Get(HeaderPrimary)
	frames, err := io.ReadAll(io.LimitReader(body, maxBatchBytes+1))
	if err != nil {
		return Batch{}, fault.IOf("read replication body: %v", err)
	}
	if len(frames) > maxBatchBytes {
		return Batch{}, fault.Invalidf("replication batch exceeds %d bytes", maxBatchBytes)
	}
	b.Frames = frames
	return b, nil
}

// hop passes one message on from -> to through the simulated network
// (a nil net passes everything): it waits out the link's delay, refuses
// a dropped message with fault.ErrUnavailable, and reports whether the
// network delivers the message twice.
func hop(net *fault.Network, from, to string) (duplicate bool, err error) {
	v := net.Observe(from, to)
	if v.Delay > 0 {
		time.Sleep(v.Delay)
	}
	if v.Drop {
		return false, fault.Unavailablef("link %s -> %s dropped the message", from, to)
	}
	return v.Duplicate, nil
}

// backoff returns the full-jitter delay before retry number attempt
// (from 1): a uniform draw from [0, min(ceil, base·2^(attempt-1))),
// floored at one millisecond so a retry loop can never spin hot.
// Callers serialize access to rng.
func backoff(rng *rand.Rand, base, ceil time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < ceil; i++ {
		d *= 2
	}
	if d > ceil {
		d = ceil
	}
	return max(time.Duration(rng.Int63n(int64(d))), time.Millisecond)
}

// sleep waits d or until stop closes; it reports false when stopping.
func sleep(stop <-chan struct{}, d time.Duration) bool {
	select {
	case <-stop:
		return false
	case <-time.After(d):
		return true
	}
}
