package domain

import (
	"math/rand"
	"testing"

	"luf/internal/bits"
	"luf/internal/congruence"
	"luf/internal/group"
	"luf/internal/interval"
	"luf/internal/rational"
)

func icRange(lo, hi int64) IC { return FromInterval(interval.RangeInt(lo, hi)) }

func TestBasics(t *testing.T) {
	var zero IC
	if !zero.IsBottom() {
		t.Error("zero value must be bottom")
	}
	if !Top().IsTop() || Top().IsBottom() {
		t.Error("Top")
	}
	if v, ok := ConstInt(4).IsConst(); !ok || !v.Eq(rational.QInt(4)) {
		t.Error("ConstInt/IsConst")
	}
	if !Integers().Contains(rational.QInt(-3)) || Integers().Contains(rational.QFrac(1, 2)) {
		t.Error("Integers")
	}
	if !icRange(1, 5).Contains(rational.QInt(3)) {
		t.Error("Contains")
	}
}

func TestReduce(t *testing.T) {
	// Interval [1;10] with congruence 0 mod 3 tightens to [3;9].
	a := newIC(interval.RangeInt(1, 10), congruence.Modulo(rational.QInt(3), rational.QInt(0))).Reduce()
	if !a.I().Eq(interval.RangeInt(3, 9)) {
		t.Errorf("Reduce interval = %s", a.I())
	}
	// No member: [4;5] with 0 mod 7 is bottom.
	b := newIC(interval.RangeInt(4, 5), congruence.Modulo(rational.QInt(7), rational.QInt(0))).Reduce()
	if !b.IsBottom() {
		t.Errorf("Reduce should find bottom, got %s", b)
	}
	// Singleton interval collapses congruence.
	c := newIC(interval.ConstInt(6), congruence.Modulo(rational.QInt(3), rational.QInt(0))).Reduce()
	if v, ok := c.C().IsConst(); !ok || !v.Eq(rational.QInt(6)) {
		t.Errorf("Reduce singleton = %s", c)
	}
	// Incompatible singleton.
	d := newIC(interval.ConstInt(5), congruence.Modulo(rational.QInt(3), rational.QInt(0))).Reduce()
	if !d.IsBottom() {
		t.Errorf("Reduce incompatible singleton = %s", d)
	}
	// Congruence singleton inside interval.
	e := newIC(interval.RangeInt(0, 10), congruence.ConstInt(7)).Reduce()
	if v, ok := e.IsConst(); !ok || !v.Eq(rational.QInt(7)) {
		t.Errorf("Reduce cong singleton = %s", e)
	}
	// The paper's §5.1 example: x ∈ [0;3]∧int, y ∈ [2;8], y = x + 1 means
	// refine gives x ∈ [1;3] — checked in TestRefineDelta below.
}

func TestMeetJoinWiden(t *testing.T) {
	a, b := icRange(0, 10), icRange(5, 20)
	if got := a.Meet(b); !got.Eq(icRange(5, 10)) {
		t.Errorf("Meet = %s", got)
	}
	if got := a.Join(b); !got.Eq(icRange(0, 20)) {
		t.Errorf("Join = %s", got)
	}
	if got := a.Widen(b); !got.I().HiInf {
		t.Errorf("Widen = %s", got)
	}
	if got := Bottom().Join(a); !got.Eq(a) {
		t.Errorf("bottom join = %s", got)
	}
	// Join of constants keeps congruence: {2} ⊔ {5} = [2;5] ∧ 2 mod 3.
	got := ConstInt(2).Join(ConstInt(5))
	if m, r, ok := got.C().Mod(); !ok || !m.Eq(rational.QInt(3)) || !r.Eq(rational.QInt(2)) {
		t.Errorf("join congruence = %s", got)
	}
}

func TestArith(t *testing.T) {
	a := icRange(1, 3).MeetInt()
	if got := a.AddConst(rational.QInt(10)); !got.I().Eq(interval.RangeInt(11, 13)) {
		t.Errorf("AddConst = %s", got)
	}
	if got := a.MulConst(rational.QInt(2)); !got.I().Eq(interval.RangeInt(2, 6)) {
		t.Errorf("MulConst = %s", got)
	}
	if got := a.Neg(); !got.I().Eq(interval.RangeInt(-3, -1)) {
		t.Errorf("Neg = %s", got)
	}
	if got := a.Add(icRange(10, 10)); !got.I().Eq(interval.RangeInt(11, 13)) {
		t.Errorf("Add = %s", got)
	}
	if got := a.Sub(icRange(1, 1)); !got.I().Eq(interval.RangeInt(0, 2)) {
		t.Errorf("Sub = %s", got)
	}
	if got := icRange(-3, 2).Square(); !got.I().Eq(interval.RangeInt(0, 9)) {
		t.Errorf("Square = %s", got)
	}
	if got := icRange(2, 3).Mul(icRange(4, 5)); !got.I().Eq(interval.RangeInt(8, 15)) {
		t.Errorf("Mul = %s", got)
	}
}

func TestMeetInt(t *testing.T) {
	a := FromInterval(interval.Range(rational.QFrac(1, 2), rational.QFrac(7, 2))).MeetInt()
	if !a.I().Eq(interval.RangeInt(1, 3)) {
		t.Errorf("MeetInt = %s", a)
	}
	if !a.C().IsIntOnly() {
		t.Errorf("MeetInt congruence = %s", a.C())
	}
}

func TestApplyAffine(t *testing.T) {
	l := group.AffineInt(3, 4) // y = 3x + 4
	a := icRange(0, 10).MeetInt()
	fwd := a.ApplyAffine(l)
	if !fwd.I().Eq(interval.RangeInt(4, 34)) {
		t.Errorf("ApplyAffine interval = %s", fwd)
	}
	// The congruence captures the stride: 4 mod 3.
	if m, r, ok := fwd.C().Mod(); !ok || !m.Eq(rational.QInt(3)) || !r.Eq(rational.QInt(1)) {
		t.Errorf("ApplyAffine congruence = %s", fwd.C())
	}
	back := fwd.UnapplyAffine(l)
	if !back.Eq(a) {
		t.Errorf("UnapplyAffine(ApplyAffine) = %s, want %s", back, a)
	}
}

func TestRefineDelta(t *testing.T) {
	// Paper §5.1: x ∈ [0;3], y ∈ [2;8], y = x + 1 refines to x ∈ [1;3],
	// y ∈ [2;4].
	x, y := icRange(0, 3), icRange(2, 8)
	nx, ny := RefineDelta(rational.QInt(1), x, y)
	if !nx.I().Eq(interval.RangeInt(1, 3)) {
		t.Errorf("x refined to %s", nx)
	}
	if !ny.I().Eq(interval.RangeInt(2, 4)) {
		t.Errorf("y refined to %s", ny)
	}
}

func TestRefineAffine(t *testing.T) {
	// y = 2x + 1, x ∈ [0;10], y ∈ [5;9] ⟹ x ∈ [2;4], y ∈ [5;9].
	x, y := icRange(0, 10).MeetInt(), icRange(5, 9).MeetInt()
	nx, ny := RefineAffine(group.AffineInt(2, 1), x, y)
	if !nx.I().Eq(interval.RangeInt(2, 4)) {
		t.Errorf("x refined to %s", nx)
	}
	// y must also pick up oddness: y = 2x+1 ∧ y ∈ [5;9] ⟹ y ∈ {5,7,9}.
	if !ny.Contains(rational.QInt(7)) || ny.Contains(rational.QInt(6)) {
		t.Errorf("y refined to %s", ny)
	}
}

func TestRefineSoundnessFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		x := icRange(int64(rng.Intn(11)-5), int64(rng.Intn(11)-5)+int64(rng.Intn(6))).MeetInt()
		y := icRange(int64(rng.Intn(11)-5), int64(rng.Intn(11)-5)+int64(rng.Intn(6))).MeetInt()
		a := int64(rng.Intn(4) + 1)
		b := int64(rng.Intn(9) - 4)
		l := group.AffineInt(a, b)
		nx, ny := RefineAffine(l, x, y)
		// Every concrete pair (vx, vy) with vy = a·vx + b surviving in the
		// originals must survive refinement.
		for vx := int64(-10); vx <= 10; vx++ {
			vxr := rational.QInt(vx)
			vyr := rational.QInt(a).Mul(vxr).Add(rational.QInt(b))
			if x.Contains(vxr) && y.Contains(vyr) {
				if !nx.Contains(vxr) || !ny.Contains(vyr) {
					t.Fatalf("refine dropped (%d, %s) from (%s,%s) -> (%s,%s)", vx, vyr, x, y, nx, ny)
				}
			}
		}
	}
}

func TestActionsAreGroupActions(t *testing.T) {
	// HActionCompose / HActionIdentity on sampled values — TVPE action.
	g := group.TVPE{}
	act := TVPEAction{}
	rng := rand.New(rand.NewSource(55))
	for i := 0; i < 200; i++ {
		l1 := group.AffineInt(int64(rng.Intn(3)+1), int64(rng.Intn(7)-3))
		l2 := group.AffineInt(-int64(rng.Intn(3)+1), int64(rng.Intn(7)-3))
		v := icRange(int64(rng.Intn(11)-5), int64(rng.Intn(11)-5)+3)
		composed := act.Apply(g.Compose(l1, l2), v)
		sequential := act.Apply(l1, act.Apply(l2, v))
		if !composed.Eq(sequential) {
			t.Fatalf("HActionCompose fails: %s vs %s", composed, sequential)
		}
		if !act.Apply(g.Identity(), v).Eq(v) {
			t.Fatal("HActionIdentity fails")
		}
		// Theorem 5.6: Apply distributes over Meet.
		w := icRange(int64(rng.Intn(11)-5), int64(rng.Intn(11)-5)+3)
		lhs := act.Apply(l1, v.Meet(w))
		rhs := act.Apply(l1, v).Meet(act.Apply(l1, w))
		if !lhs.Eq(rhs) {
			t.Fatalf("action/meet distribution fails: %s vs %s", lhs, rhs)
		}
	}
}

func TestXorRotActionAndRefine(t *testing.T) {
	g := group.MustXorRot(8)
	act := XorRotAction{G: g}
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 200; i++ {
		l := g.NewLabel(uint(rng.Intn(8)), rng.Uint64())
		v := bits.Make(8, rng.Uint64(), rng.Uint64())
		// Action soundness: for a concrete m ∈ γ(v), the preimage n with
		// m = (n xor c) rot s must be in Apply(l, v).
		m := (v.Val | (rng.Uint64() & v.Mask)) & 0xff
		n := g.Apply(g.Inverse(l), m)
		if !act.Apply(l, v).Contains(n) {
			t.Fatalf("action unsound")
		}
		// Identity/composition.
		if !act.Apply(g.Identity(), v).Eq(v) {
			t.Fatal("identity")
		}
		l2 := g.NewLabel(uint(rng.Intn(8)), rng.Uint64())
		if !act.Apply(g.Compose(l, l2), v).Eq(act.Apply(l, act.Apply(l2, v))) {
			t.Fatal("composition")
		}
		// Refine soundness.
		v2 := bits.Make(8, rng.Uint64(), rng.Uint64())
		n1, n2 := RefineXorRot(g, l, v, v2)
		cv := (v.Val | (rng.Uint64() & v.Mask)) & 0xff
		cw := g.Apply(l, cv)
		if v.Contains(cv) && v2.Contains(cw) {
			if !n1.Contains(cv) || !n2.Contains(cw) {
				t.Fatalf("xorrot refine dropped a pair")
			}
		}
	}
}

func TestWordsAndLimit(t *testing.T) {
	a := icRange(1, 2)
	if a.Words() == 0 {
		t.Error("Words of finite interval")
	}
	if got := a.LimitWords(4); !got.Eq(a) {
		t.Error("LimitWords on small value must be identity")
	}
}

func TestString(t *testing.T) {
	if Bottom().String() != "⊥" {
		t.Error("bottom")
	}
	if got := icRange(1, 2).String(); got != "[1; 2]" {
		t.Errorf("String = %q", got)
	}
	withCong := newIC(interval.RangeInt(0, 9), congruence.Modulo(rational.QInt(3), rational.QInt(0))).Reduce()
	if got := withCong.String(); got != "[0; 9]∧(0 mod 3)" {
		t.Errorf("String = %q", got)
	}
}

func TestLeqAndConstructors(t *testing.T) {
	a, b := icRange(1, 3), icRange(0, 10)
	if !a.Leq(b) || b.Leq(a) {
		t.Error("Leq wrong")
	}
	if !Bottom().Leq(a) || !a.Leq(Top()) {
		t.Error("Leq extremes")
	}
	if a.Leq(Bottom()) {
		t.Error("non-bottom below bottom")
	}
	fc := FromCongruence(congruence.Modulo(rational.QInt(4), rational.QInt(1)))
	if !fc.Contains(rational.QInt(5)) || fc.Contains(rational.QInt(4)) {
		t.Errorf("FromCongruence = %s", fc)
	}
	// IsConst via the congruence component.
	c := newIC(interval.RangeInt(0, 10), congruence.ConstInt(7))
	if v, ok := c.IsConst(); !ok || !v.Eq(rational.QInt(7)) {
		t.Errorf("IsConst via congruence: %s", c)
	}
	// Congruence singleton outside the interval is not a constant.
	d := newIC(interval.RangeInt(0, 3), congruence.ConstInt(7))
	if _, ok := d.IsConst(); ok {
		t.Error("incompatible singleton must not report const")
	}
}

func TestWidenBottomCases(t *testing.T) {
	a := icRange(0, 5)
	if got := Bottom().Widen(a); !got.Eq(a) {
		t.Errorf("bottom widen = %s", got)
	}
	if got := a.Widen(Bottom()); !got.Eq(a) {
		t.Errorf("widen bottom = %s", got)
	}
	if got := a.Widen(icRange(0, 9)); !got.I().HiInf {
		t.Errorf("widen unstable = %s", got)
	}
}

func TestArithBottomPropagation(t *testing.T) {
	a := icRange(1, 2)
	if !Bottom().Add(a).IsBottom() || !a.Add(Bottom()).IsBottom() {
		t.Error("Add bottom")
	}
	if !Bottom().Mul(a).IsBottom() || !a.Mul(Bottom()).IsBottom() {
		t.Error("Mul bottom")
	}
	if !Bottom().Square().IsBottom() {
		t.Error("Square bottom")
	}
}

// TestActionInterfaceMethods exercises the core.Action implementations
// (Apply/Meet/Top) for each label kind directly, as InfoUF uses them.
func TestActionInterfaceMethods(t *testing.T) {
	da := DeltaAction{}
	if got := da.Apply(5, ConstInt(12)); !got.Eq(ConstInt(7)) {
		t.Errorf("DeltaAction.Apply = %s", got)
	}
	if got := da.Meet(icRange(0, 10), icRange(5, 20)); !got.Eq(icRange(5, 10)) {
		t.Errorf("DeltaAction.Meet = %s", got)
	}
	if !da.Top().IsTop() {
		t.Error("DeltaAction.Top")
	}
	qa := QDiffAction{}
	if got := qa.Apply(rational.QFrac(1, 2), Const(rational.QInt(3))); !got.Eq(Const(rational.QFrac(5, 2))) {
		t.Errorf("QDiffAction.Apply = %s", got)
	}
	if got := qa.Meet(icRange(0, 4), icRange(2, 9)); !got.Eq(icRange(2, 4)) {
		t.Errorf("QDiffAction.Meet = %s", got)
	}
	if !qa.Top().IsTop() {
		t.Error("QDiffAction.Top")
	}
	ta := TVPEAction{}
	if got := ta.Meet(icRange(0, 4), icRange(2, 9)); !got.Eq(icRange(2, 4)) {
		t.Errorf("TVPEAction.Meet = %s", got)
	}
	if !ta.Top().IsTop() {
		t.Error("TVPEAction.Top")
	}
	xa := XorRotAction{G: group.MustXorRot(8)}
	m := xa.Meet(bits.MustParse("1???????"), bits.MustParse("?0??????"))
	if m.String() != "0b10??????" {
		t.Errorf("XorRotAction.Meet = %s", m)
	}
	if !xa.Top().IsTop() {
		t.Error("XorRotAction.Top")
	}
}
