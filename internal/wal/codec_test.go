package wal

import (
	"math"
	"testing"

	"luf/internal/cert"
	"luf/internal/group"
	"luf/internal/rational"
)

// TestTVPECodecGolden pins the on-disk bytes of TVPE labels, so that a
// change in how coefficients are represented in memory cannot change
// what a journal written earlier decodes to, or what a new one holds.
func TestTVPECodecGolden(t *testing.T) {
	huge := rational.QInt(1 << 62).Mul(rational.QInt(1 << 8)).Div(rational.QInt(3)) // 2⁷⁰/3
	for _, tc := range []struct {
		a, b rational.Q
		want string
	}{
		{rational.QInt(1), rational.QInt(0), "1|0"},
		{rational.QInt(3), rational.QInt(4), "3|4"},
		{rational.QInt(-1), rational.QInt(-273), "-1|-273"},
		{rational.QFrac(9, 5), rational.QFrac(32, 1), "9/5|32"},
		{rational.QFrac(-6, 4), rational.QFrac(1, -3), "-3/2|-1/3"},
		{rational.QInt(9223372036854775807), rational.QInt(-9223372036854775807), "9223372036854775807|-9223372036854775807"},
		{rational.QInt(math.MinInt64), rational.QInt(1), "-9223372036854775808|1"},
		{huge, huge.Neg(), "1180591620717411303424/3|-1180591620717411303424/3"},
	} {
		l := group.MustAffine(tc.a, tc.b)
		got := string(TVPECodec{}.EncodeLabel(l))
		if got != tc.want {
			t.Errorf("EncodeLabel(%s) = %q, want %q", group.TVPE{}.Format(l), got, tc.want)
		}
		back, err := TVPECodec{}.DecodeLabel([]byte(tc.want))
		if err != nil {
			t.Fatalf("DecodeLabel(%q): %v", tc.want, err)
		}
		if !(group.TVPE{}).Equal(back, l) {
			t.Errorf("DecodeLabel(%q) = %s, want %s", tc.want, group.TVPE{}.Format(back), group.TVPE{}.Format(l))
		}
	}
	for _, bad := range []string{"0|1", "1", "x|1", "1|y"} {
		if _, err := (TVPECodec{}).DecodeLabel([]byte(bad)); err == nil {
			t.Errorf("DecodeLabel(%q) accepted", bad)
		}
	}
}

// TestTVPELongLabelRecovers journals a label whose coefficients run past
// the 400-digit cap on outside literals, as a label composed along a
// long class path can, and checks recovery reads it back: the journal
// must never hold a write it cannot replay.
func TestTVPELongLabelRecovers(t *testing.T) {
	a := rational.QInt(1)
	for range 41 {
		a = a.Mul(rational.QInt(10_000_000_000)) // 10⁴¹⁰
	}
	b := a.Neg().Div(rational.QInt(7))
	l := group.MustAffine(a, b)
	if n := len(a.Key()); n <= 400 {
		t.Fatalf("slope has %d digits, want more than 400", n)
	}
	dir := t.TempDir()
	st, _, err := Open(dir, group.TVPE{}, TVPECodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := st.Append(cert.Entry[int, group.Affine]{N: 1, M: 2, Label: l, Reason: "long"})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Commit(seq); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, rec, err := Open(dir, group.TVPE{}, TVPECodec{}, Options{})
	if err != nil {
		t.Fatalf("reopening a journal holding a %d-digit label: %v", len(a.Key()), err)
	}
	defer st.Close()
	got, ok := rec.UF.GetRelation(1, 2)
	if !ok || !(group.TVPE{}).Equal(got, l) {
		t.Fatalf("recovered relation 1->2 = (%s, %v), want %s", group.TVPE{}.Format(got), ok, group.TVPE{}.Format(l))
	}
}
