package wal

import (
	"math/big"
	"testing"

	"luf/internal/group"
	"luf/internal/rational"
)

// TestTVPECodecGolden pins the on-disk bytes of TVPE labels, so that a
// change in how coefficients are represented in memory cannot change
// what a journal written earlier decodes to, or what a new one holds.
func TestTVPECodecGolden(t *testing.T) {
	huge := new(big.Rat).SetFrac(
		new(big.Int).Lsh(big.NewInt(1), 70),
		big.NewInt(3))
	for _, tc := range []struct {
		a, b *big.Rat
		want string
	}{
		{rational.Int(1), rational.Int(0), "1|0"},
		{rational.Int(3), rational.Int(4), "3|4"},
		{rational.Int(-1), rational.Int(-273), "-1|-273"},
		{rational.New(9, 5), rational.New(32, 1), "9/5|32"},
		{rational.New(-6, 4), rational.New(1, -3), "-3/2|-1/3"},
		{rational.Int(9223372036854775807), rational.Int(-9223372036854775807), "9223372036854775807|-9223372036854775807"},
		{new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(-1), 63)), rational.Int(1), "-9223372036854775808|1"},
		{huge, rational.Neg(huge), "1180591620717411303424/3|-1180591620717411303424/3"},
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
