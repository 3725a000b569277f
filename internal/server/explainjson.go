package server

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"

	"luf/internal/cert"
)

// The /v1/explain body is the one hot response whose size grows with
// its payload, so it has a codec of its own instead of reflection.
// encoding/json stays the reference: the encoder hands it every string
// that needs escaping and the decoder every input outside the plain
// layout, so both match it byte for byte and value for value, as
// FuzzExplainCodec and the wire goldens check.

// AppendJSON appends to b the body json.NewEncoder(w).Encode(r) writes,
// trailing newline included. A certificate of unknown Kind has no wire
// name, so Encode writes nothing for it and b comes back unchanged.
func (r *ExplainResponse) AppendJSON(b []byte) []byte {
	c := &r.Cert
	if c.Kind != cert.Relation && c.Kind != cert.Conflict {
		return b
	}
	b = slices.Grow(b, r.sizeHint())
	b = append(b, `{"cert":{"kind":"`...)
	b = append(b, c.Kind.String()...)
	b = append(b, `","x":`...)
	b = appendJSONString(b, c.X)
	b = append(b, `,"y":`...)
	b = appendJSONString(b, c.Y)
	b = append(b, `,"label":`...)
	b = strconv.AppendInt(b, c.Label, 10)
	b = append(b, `,"steps":`...)
	if c.Steps == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range c.Steps {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendJSONStep(b, &c.Steps[i])
		}
		b = append(b, ']')
	}
	if c.Conflicting != nil {
		b = append(b, `,"conflicting":`...)
		b = appendJSONStep(b, c.Conflicting)
	}
	return append(b, "}}\n"...)
}

// stepJSONSize bounds the bytes a step with plain strings takes beyond
// the strings themselves: its keys, quotes, "reversed":true and a label
// of at most 20 characters.
const stepJSONSize = len(`{"n":"","m":"","label":,"reversed":true,"reason":""},`) + 20

// sizeHint bounds the length of r's body when every string is plain, so
// the encode buffer is allocated once.
func (r *ExplainResponse) sizeHint() int {
	c := &r.Cert
	n := len(`{"cert":{"kind":"relation","x":"","y":"","label":,"steps":null,"conflicting":}}`+"\n") + 20 +
		len(c.X) + len(c.Y) + len(c.Steps)*stepJSONSize
	for i := range c.Steps {
		n += len(c.Steps[i].N) + len(c.Steps[i].M) + len(c.Steps[i].Reason)
	}
	if s := c.Conflicting; s != nil {
		n += stepJSONSize + len(s.N) + len(s.M) + len(s.Reason)
	}
	return n
}

func appendJSONStep(b []byte, s *cert.Step[string, int64]) []byte {
	b = append(b, `{"n":`...)
	b = appendJSONString(b, s.N)
	b = append(b, `,"m":`...)
	b = appendJSONString(b, s.M)
	b = append(b, `,"label":`...)
	b = strconv.AppendInt(b, s.Label, 10)
	if s.Reversed {
		b = append(b, `,"reversed":true`...)
	}
	if s.Reason != "" {
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, s.Reason)
	}
	return append(b, '}')
}

// appendJSONString appends s as a JSON string. A plain string is copied
// between quotes; any other is escaped by json.Marshal, which escapes
// HTML metacharacters as Encode does.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; !plainJSON(c) || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// plainJSON reports whether c stands for itself inside a JSON string:
// printable ASCII other than the quote and the backslash.
func plainJSON(c byte) bool {
	return c >= 0x20 && c < 0x80 && c != '"' && c != '\\'
}

// DecodeJSON sets *r to the value json.Unmarshal decodes data to from a
// zero ExplainResponse, and returns the error json.Unmarshal returns.
// Bodies in the layout AppendJSON writes for plain strings are read in
// one pass, with every string a substring of one copy of data; any
// other input (escapes, non-ASCII text, other keys or key order, null,
// numbers that are not int64 integers, syntax errors) is decoded by
// json.Unmarshal.
func (r *ExplainResponse) DecodeJSON(data []byte) error {
	d := explainDecoder{s: string(data)}
	if c, ok := d.response(); ok {
		*r = ExplainResponse{Cert: c}
		return nil
	}
	var v ExplainResponse
	err := json.Unmarshal(data, &v)
	*r = v
	return err
}

// explainDecoder reads the plain layout of an ExplainResponse body from
// s. Once an expectation fails, bad is set and the read is abandoned.
type explainDecoder struct {
	s   string
	i   int
	bad bool
}

func (d *explainDecoder) response() (cert.Certificate[string, int64], bool) {
	var c cert.Certificate[string, int64]
	d.expect(`{"cert":{"kind":`)
	switch {
	case d.accept(`"relation"`):
		c.Kind = cert.Relation
	case d.accept(`"conflict"`):
		c.Kind = cert.Conflict
	default:
		return c, false
	}
	d.expect(`,"x":`)
	c.X = d.str()
	d.expect(`,"y":`)
	c.Y = d.str()
	d.expect(`,"label":`)
	c.Label = d.int()
	d.expect(`,"steps":[`)
	if d.bad {
		return c, false
	}
	// Plain strings hold no quote, so every `{"n":` opens a step.
	c.Steps = make([]cert.Step[string, int64], 0, strings.Count(d.s[d.i:], `{"n":`))
	for !d.bad && !d.accept("]") {
		if len(c.Steps) > 0 {
			d.expect(",")
		}
		c.Steps = append(c.Steps, d.step())
	}
	if d.accept(`,"conflicting":`) {
		s := d.step()
		c.Conflicting = &s
	}
	d.expect("}}")
	if d.bad || strings.TrimLeft(d.s[d.i:], " \t\r\n") != "" {
		return c, false
	}
	return c, true
}

func (d *explainDecoder) step() cert.Step[string, int64] {
	var s cert.Step[string, int64]
	d.expect(`{"n":`)
	s.N = d.str()
	d.expect(`,"m":`)
	s.M = d.str()
	d.expect(`,"label":`)
	s.Label = d.int()
	s.Reversed = d.accept(`,"reversed":true`)
	if d.accept(`,"reason":`) {
		s.Reason = d.str()
	}
	d.expect("}")
	return s
}

// accept consumes t if the input continues with it.
func (d *explainDecoder) accept(t string) bool {
	if d.bad || !strings.HasPrefix(d.s[d.i:], t) {
		return false
	}
	d.i += len(t)
	return true
}

// expect consumes t, or marks the read bad.
func (d *explainDecoder) expect(t string) {
	if !d.accept(t) {
		d.bad = true
	}
}

// str consumes a quoted plain string and returns its contents.
func (d *explainDecoder) str() string {
	if !d.accept(`"`) {
		d.bad = true
		return ""
	}
	for j := d.i; j < len(d.s); j++ {
		if c := d.s[j]; c == '"' {
			s := d.s[d.i:j]
			d.i = j + 1
			return s
		} else if !plainJSON(c) {
			break
		}
	}
	d.bad = true
	return ""
}

// int consumes a JSON integer that fits an int64: an optional minus
// sign and digits without a leading zero.
func (d *explainDecoder) int() int64 {
	if d.bad {
		return 0
	}
	rest := d.s[d.i:]
	j := 0
	if strings.HasPrefix(rest, "-") {
		j = 1
	}
	start := j
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	if j == start || (rest[start] == '0' && j > start+1) {
		d.bad = true
		return 0
	}
	n, err := strconv.ParseInt(rest[:j], 10, 64)
	if err != nil {
		d.bad = true
		return 0
	}
	d.i += j
	return n
}
