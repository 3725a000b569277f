package server_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"luf/internal/cert"
	"luf/internal/server"
)

// certGen draws a certificate from fuzz bytes, reading zeros once they
// run out.
type certGen struct{ b []byte }

func (g *certGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

// strPieces are the string fragments that need escaping, in every
// class: JSON syntax, control bytes, HTML metacharacters, the two
// JavaScript line separators, valid non-ASCII text and invalid UTF-8.
var strPieces = []string{
	`"`, `\`, "\n", "\x00", "\x1f", "\x7f", "<", ">", "&",
	"\xe2\x80\xa8", "\xe2\x80\xa9", "é", "\xff", "\xe2\x80", "a", "",
}

// str draws a string of up to 7 pieces: bytes below 0x40 pick a piece,
// others stand for themselves (invalid UTF-8 from 0x80 up included).
func (g *certGen) str() string {
	var b []byte
	for n := g.byte() % 8; n > 0; n-- {
		c := g.byte()
		if c < 0x40 {
			b = append(b, strPieces[int(c)%len(strPieces)]...)
		} else {
			b = append(b, c)
		}
	}
	return string(b)
}

func (g *certGen) label() int64 {
	switch g.byte() % 4 {
	case 0:
		return math.MinInt64
	case 1:
		return math.MaxInt64
	case 2:
		return int64(int8(g.byte()))
	}
	var w [8]byte
	for i := range w {
		w[i] = g.byte()
	}
	return int64(binary.LittleEndian.Uint64(w[:]))
}

func (g *certGen) step() cert.Step[string, int64] {
	s := cert.Step[string, int64]{N: g.str(), M: g.str(), Label: g.label()}
	s.Reversed = g.byte()%2 == 1
	if g.byte()%2 == 1 {
		s.Reason = g.str()
	}
	return s
}

func (g *certGen) response() server.ExplainResponse {
	c := cert.Certificate[string, int64]{
		// Kinds 2 and -1 have no wire name.
		Kind:  cert.Kind(int(g.byte()%4) - 1),
		X:     g.str(),
		Y:     g.str(),
		Label: g.label(),
	}
	// Nil Steps encode as null, empty ones as [].
	if n := g.byte() % 6; n > 0 {
		c.Steps = make([]cert.Step[string, int64], n-1)
		for i := range c.Steps {
			c.Steps[i] = g.step()
		}
	}
	if g.byte()%2 == 1 {
		s := g.step()
		c.Conflicting = &s
	}
	return server.ExplainResponse{Cert: c}
}

// checkExplainDecode: DecodeJSON gives json.Unmarshal's value and
// error for data.
func checkExplainDecode(t *testing.T, data []byte) {
	t.Helper()
	var want server.ExplainResponse
	wantErr := json.Unmarshal(data, &want)
	var got server.ExplainResponse
	gotErr := got.DecodeJSON(data)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("DecodeJSON(%q) error = %v, json.Unmarshal's = %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeJSON(%q) =\n %#v\njson.Unmarshal gives\n %#v", data, got, want)
	}
}

// FuzzExplainCodec checks the /v1/explain codec against encoding/json
// in both directions. The input is read twice: as a response body,
// which DecodeJSON must decode to json.Unmarshal's value and error; and
// as the draws of a certificate, which AppendJSON must encode to the
// bytes json.Encoder writes and DecodeJSON must read back as
// json.Unmarshal does.
func FuzzExplainCodec(f *testing.F) {
	for _, body := range []string{
		`{"cert":{"kind":"relation","x":"x","y":"z","label":7,"steps":[{"n":"x","m":"y","label":3,"reason":"fact-1"},{"n":"y","m":"z","label":4,"reason":"fact-2"}]}}` + "\n",
		`{"cert":{"kind":"relation","x":"z","y":"y","label":-4,"steps":[{"n":"y","m":"z","label":4,"reversed":true,"reason":"fact-2"}]}}` + "\n",
		`{"cert":{"kind":"conflict","x":"x","y":"z","label":7,"steps":[{"n":"x","m":"z","label":7}],"conflicting":{"n":"x","m":"z","label":8,"reason":"bad"}}}`,
		`{"cert":{"kind":"relation","x":"a","y":"a","label":0,"steps":[]}}`,
		`{"cert":{"kind":"relation","x":"a","y":"a","label":-9223372036854775808,"steps":null}}`,
		`{"cert":{"kind":"relation","x":"a","y":"b","label":9223372036854775808,"steps":[]}}`,
		`{"cert":{"kind":"relation","x":"a\"b","y":"<","label":1e3,"steps":[]}}`,
		`{"cert":{"kind":"relation","x":"a","y":"b","label":1,"steps":[{"N":"a","m":"b","label":1}]}}`,
		`{"cert":{"kind":"Relation","x":"a","y":"b","label":1,"steps":[]}}`,
		`{"cert":{"kind":"relation","x":"é","y":"b","label":01,"steps":[]}} `,
		`{"cert":null}`,
		``,
	} {
		f.Add([]byte(body))
	}
	// Certificate draws: one with HTML metacharacters, escapes, U+2028,
	// invalid UTF-8, both extreme labels and an empty reason; one whose
	// strings are all plain.
	f.Add([]byte{1, 2, 0x06, 'a', 1, 0x08, 2, 0x7f, 3, 1, 'b', 2, 0x07, 'c', 0, 1, 1, 3, 0x00, 0x01, 0x02,
		1, 0x09, 1, 0x0c, 1, 0, 1, 0, 1, 1, 'x', 1, 'y', 3})
	f.Add([]byte{2, 1, 'p', 1, 'q', 2, 5, 2, 1, 'a', 1, 'b', 2, 0xfb, 1, 1, 2, 'r', 's', 1, 1, 'a', 1, 'b', 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkExplainDecode(t, data)

		g := certGen{b: data}
		r := g.response()
		var want bytes.Buffer
		_ = json.NewEncoder(&want).Encode(r) // an unknown Kind writes nothing
		got := r.AppendJSON(nil)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("AppendJSON(%#v) =\n %q\njson.Encoder writes\n %q", r, got, want.Bytes())
		}
		checkExplainDecode(t, got)
	})
}

// explainWireCert is a certificate shaped like explain-deep's: steps
// between nodes named c<class>.<n>, each with the reason "preload".
func explainWireCert(steps int) server.ExplainResponse {
	c := cert.Certificate[string, int64]{Kind: cert.Relation, X: "c3.0", Y: fmt.Sprintf("c3.%d", 1000+steps)}
	for i := 0; i < steps; i++ {
		c.Steps = append(c.Steps, cert.Step[string, int64]{
			N: fmt.Sprintf("c3.%d", 1000+i), M: fmt.Sprintf("c3.%d", 1001+i),
			Label: int64(i*37 - 400), Reversed: i%3 == 0, Reason: "preload",
		})
		c.Label += c.Steps[i].Label
	}
	return server.ExplainResponse{Cert: c}
}

var explainSink server.ExplainResponse

// BenchmarkExplainWire encodes and decodes /v1/explain bodies of 1, 14
// and 64 steps with the codec and with encoding/json, each as the
// server writes and the client reads them: encode into a response
// writer, decode from the whole body.
func BenchmarkExplainWire(b *testing.B) {
	for _, steps := range []int{1, 14, 64} {
		r := explainWireCert(steps)
		body := r.AppendJSON(nil)
		b.Run(fmt.Sprintf("encode/codec/steps=%d", steps), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_, _ = io.Discard.Write(r.AppendJSON(nil))
			}
		})
		b.Run(fmt.Sprintf("encode/json/steps=%d", steps), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				_ = json.NewEncoder(io.Discard).Encode(r)
			}
		})
		b.Run(fmt.Sprintf("decode/codec/steps=%d", steps), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var out server.ExplainResponse
				if err := out.DecodeJSON(body); err != nil {
					b.Fatal(err)
				}
				explainSink = out
			}
		})
		b.Run(fmt.Sprintf("decode/json/steps=%d", steps), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				var out server.ExplainResponse
				if err := json.Unmarshal(body, &out); err != nil {
					b.Fatal(err)
				}
				explainSink = out
			}
		})
	}
}
