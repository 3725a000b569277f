package cert

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzCertificateJSON decodes arbitrary bytes as a certificate, the
// way a client reads one straight off the network. Decoding never
// panics, every accepted certificate claims a relation or a conflict,
// and re-encoding an accepted certificate decodes back to itself.
func FuzzCertificateJSON(f *testing.F) {
	f.Add([]byte(`{"kind":"relation","x":"x","y":"z","label":7,"steps":[{"n":"x","m":"y","label":3,"reason":"fact-1"},{"n":"y","m":"z","label":4,"reason":"fact-2"}]}`))
	f.Add([]byte(`{"kind":"relation","x":"z","y":"y","label":-4,"steps":[{"n":"y","m":"z","label":4,"reversed":true,"reason":"fact-2"}]}`))
	f.Add([]byte(`{"kind":"conflict","x":"x","y":"z","label":7,"steps":[{"n":"x","m":"z","label":7}],"conflicting":{"n":"x","m":"z","label":8,"reason":"bad"}}`))
	f.Add([]byte(`{"kind":"kind(-1)","x":"a","y":"a","label":0,"steps":null}`))
	f.Add([]byte(`{"kind":"","steps":[]}`))
	f.Add([]byte(`{"kind":3}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var c Certificate[string, int64]
		if json.Unmarshal(data, &c) != nil {
			return
		}
		if c.Kind != Relation && c.Kind != Conflict {
			t.Fatalf("accepted certificate of kind %v from %q", c.Kind, data)
		}
		enc, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("re-encode %+v: %v", c, err)
		}
		var again Certificate[string, int64]
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("decode of re-encoded %s: %v", enc, err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("round trip changed the certificate:\n%+v\n%+v", c, again)
		}
	})
}

// TestKindTextRefusesUnknown: only the two claim kinds have a wire
// name; any other value is refused in both directions.
func TestKindTextRefusesUnknown(t *testing.T) {
	for _, k := range []Kind{Relation, Conflict} {
		text, err := k.MarshalText()
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var back Kind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Fatalf("%s decodes to (%v, %v), want %v", text, back, err, k)
		}
	}
	if _, err := Kind(-1).MarshalText(); err == nil {
		t.Fatal("an unknown kind encoded")
	}
	var k Kind
	for _, name := range []string{"", "Relation", "kind(-1)", "unsat"} {
		if err := k.UnmarshalText([]byte(name)); err == nil {
			t.Fatalf("kind %q decoded", name)
		}
	}
}
