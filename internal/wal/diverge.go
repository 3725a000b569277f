package wal

import (
	"errors"
	"fmt"

	"luf/internal/fault"
)

// ErrDivergence marks the replication refusal that self-healing reacts
// to: two stores hold different assertions under the same global
// sequence number, so their histories split and can never be merged —
// only re-derived. Every divergence refusal wraps this sentinel (and
// fault.ErrInvariantViolated, since a divergence is an invariant
// violation), so callers test with errors.Is and inspect the details
// with errors.As on *DivergenceError.
var ErrDivergence = errors.New("divergent histories")

// DivergenceKind is the wire "kind" string divergence refusals carry
// in structured error bodies, distinguishing them from plain invariant
// violations so a shipping primary can mark the peer divergent and a
// self-healing follower knows a resync (not a retry) is required.
const DivergenceKind = "divergence"

// DivergenceError reports exactly where two histories split. Seq is
// the first sequence number the stores disagree on; LocalCRC and
// RemoteCRC are the CRC-32C checksums of the record's encoded payload
// on each end (zero when a side could not compute one, e.g. when the
// conflict was detected by replay rather than checksum comparison).
// Its JSON form is the "divergence" detail of a structured refusal,
// from the refusing node's perspective; Detail is not sent.
type DivergenceError struct {
	// Seq is the sequence number the histories disagree on.
	Seq uint64 `json:"seq"`
	// LocalCRC is the checksum of the refusing node's record at Seq.
	LocalCRC uint32 `json:"local_crc"`
	// RemoteCRC is the checksum the sender computed for the same
	// sequence number.
	RemoteCRC uint32 `json:"remote_crc"`
	// Detail says how the divergence was detected.
	Detail string `json:"-"`
}

// Error formats the divergence with its sequence number, both
// checksums and the detection detail.
func (e *DivergenceError) Error() string {
	msg := fmt.Sprintf("divergent histories at sequence %d", e.Seq)
	if e.LocalCRC != 0 || e.RemoteCRC != 0 {
		msg += fmt.Sprintf(" (checksum %d here, %d on the sender)", e.LocalCRC, e.RemoteCRC)
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg + " — refusing to merge"
}

// Unwrap exposes both identities of a divergence: the ErrDivergence
// sentinel that triggers self-healing, and fault.ErrInvariantViolated,
// which keeps the existing taxonomy (HTTP 500, stop-label "invariant")
// for callers that do not know about divergence specifically.
func (e *DivergenceError) Unwrap() []error {
	return []error{ErrDivergence, fault.ErrInvariantViolated}
}
