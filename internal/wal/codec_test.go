package wal

import (
	"errors"
	"math"
	"testing"

	"luf/internal/cert"
	"luf/internal/concurrent"
	"luf/internal/fault"
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

// TestTVPEChainsRecover journals chains of TVPE assertions, which do not
// commute, and recovers them. Each chain closes with a redundant
// assertion from its first node to its last, so recovery re-proves a
// relation whose path in the rebuilt forest has several hops. After
// reopening, every pair of a chain must answer the composition of the
// labels between them, through the recovered structure, Rebuild of the
// store's entries, and Reprove; the same labels composed in the
// opposite order must be refused.
func TestTVPEChainsRecover(t *testing.T) {
	g := group.TVPE{}
	labels := []group.Affine{
		group.AffineInt(2, 1), group.AffineInt(3, -2), group.AffineInt(-1, 5),
		group.MustAffine(rational.QFrac(1, 2), rational.QInt(3)), group.AffineInt(5, 0),
	}
	// chains[c] lists the nodes of chain c; its k-th edge carries
	// labels[(c+k) % len(labels)].
	chains := [][]int{{0, 1, 2}, {10, 11, 12, 13}, {20, 21, 22, 23, 24, 25}}
	label := func(c, k int) group.Affine { return labels[(c+k)%len(labels)] }
	// path composes the labels from chain c's node i to its node j > i,
	// in order (forward) or reversed.
	path := func(c, i, j int, forward bool) group.Affine {
		l := g.Identity()
		for k := i; k < j; k++ {
			if forward {
				l = g.Compose(l, label(c, k))
			} else {
				l = g.Compose(label(c, k), l)
			}
		}
		return l
	}
	var entries []cert.Entry[int, group.Affine]
	for c, nodes := range chains {
		for k := 0; k+1 < len(nodes); k++ {
			entries = append(entries, cert.Entry[int, group.Affine]{N: nodes[k], M: nodes[k+1], Label: label(c, k), Reason: "hop"})
		}
		entries = append(entries, cert.Entry[int, group.Affine]{N: nodes[0], M: nodes[len(nodes)-1], Label: path(c, 0, len(nodes)-1, true), Reason: "close"})
	}

	dir := t.TempDir()
	st, _, err := Open(dir, g, TVPECodec{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for _, e := range entries {
		if last, err = st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Commit(last); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st, rec, err := Open(dir, g, TVPECodec{}, Options{})
	if err != nil {
		t.Fatalf("recovering TVPE chains: %v", err)
	}
	defer st.Close()
	if rec.Entries != len(entries) {
		t.Fatalf("recovered %d entries, want %d", rec.Entries, len(entries))
	}
	uf, journal, err := Rebuild(g, st.Entries())
	if err != nil {
		t.Fatalf("Rebuild of the store's entries: %v", err)
	}
	swapped := 0
	for c, nodes := range chains {
		for i := range nodes {
			for j := i + 1; j < len(nodes); j++ {
				want := path(c, i, j, true)
				e := cert.Entry[int, group.Affine]{N: nodes[i], M: nodes[j], Label: want}
				for _, got := range []*concurrent.UF[int, group.Affine]{rec.UF, uf} {
					if l, ok := got.GetRelation(nodes[i], nodes[j]); !ok || !g.Equal(l, want) {
						t.Fatalf("relation %d->%d = (%s, %v), want %s", nodes[i], nodes[j], g.Format(l), ok, g.Format(want))
					}
				}
				if err := Reprove(g, rec.UF, rec.Journal, e); err != nil {
					t.Fatalf("Reprove %d->%d on the recovered store: %v", nodes[i], nodes[j], err)
				}
				if err := Reprove(g, uf, journal, e); err != nil {
					t.Fatalf("Reprove %d->%d on the rebuilt store: %v", nodes[i], nodes[j], err)
				}
				if rev := path(c, i, j, false); !g.Equal(rev, want) {
					swapped++
					e.Label = rev
					if err := Reprove(g, rec.UF, rec.Journal, e); !errors.Is(err, fault.ErrInvariantViolated) {
						t.Fatalf("Reprove %d->%d accepted the labels composed in reverse: %v", nodes[i], nodes[j], err)
					}
				}
			}
		}
	}
	if swapped == 0 {
		t.Fatal("no pair's labels depend on composition order; the test is vacuous")
	}
}
