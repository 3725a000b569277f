package wal

import (
	"fmt"
	"strconv"
	"strings"

	"luf/internal/group"
	"luf/internal/rational"
)

// DeltaCodec serializes the serving layer's instantiation: string
// nodes with constant-difference (group.Delta, int64) labels. Nodes
// are stored verbatim (any string is a valid node), labels in decimal.
type DeltaCodec struct{}

// GroupID returns "delta/string".
func (DeltaCodec) GroupID() string { return "delta/string" }

// EncodeNode returns the node's bytes.
func (DeltaCodec) EncodeNode(n string) []byte { return []byte(n) }

// DecodeNode returns the bytes as a string; every byte string is a
// valid node.
func (DeltaCodec) DecodeNode(b []byte) (string, error) { return string(b), nil }

// EncodeLabel renders the offset in decimal.
func (DeltaCodec) EncodeLabel(l int64) []byte {
	return strconv.AppendInt(nil, l, 10)
}

// DecodeLabel parses a decimal offset, rejecting anything
// strconv.ParseInt does not round-trip.
func (DeltaCodec) DecodeLabel(b []byte) (int64, error) {
	return strconv.ParseInt(string(b), 10, 64)
}

// TVPECodec serializes the analyzer's instantiation: int nodes (SSA
// value ids) with TVPE labels y = a·x + b over ℚ (group.Affine).
// Labels are stored as "a|b" with both coefficients in their canonical
// Key form ("7", "-3/2"), matching TVPE.Key.
type TVPECodec struct{}

// GroupID returns "tvpe/int".
func (TVPECodec) GroupID() string { return "tvpe/int" }

// EncodeNode renders the id in decimal.
func (TVPECodec) EncodeNode(n int) []byte { return strconv.AppendInt(nil, int64(n), 10) }

// DecodeNode parses a decimal id.
func (TVPECodec) DecodeNode(b []byte) (int, error) {
	v, err := strconv.ParseInt(string(b), 10, 0)
	return int(v), err
}

// EncodeLabel renders the affine map as "a|b".
func (TVPECodec) EncodeLabel(l group.Affine) []byte {
	return []byte(l.A.Key() + "|" + l.B.Key())
}

// DecodeLabel parses "a|b", re-validating the non-zero-slope domain
// through group.NewAffine.
func (TVPECodec) DecodeLabel(b []byte) (group.Affine, error) {
	s := string(b)
	i := strings.IndexByte(s, '|')
	if i < 0 {
		return group.Affine{}, fmt.Errorf("affine label %q lacks separator", s)
	}
	a, err := rational.ParseKey(s[:i])
	if err != nil {
		return group.Affine{}, err
	}
	bb, err := rational.ParseKey(s[i+1:])
	if err != nil {
		return group.Affine{}, err
	}
	return group.NewAffine(a, bb)
}
