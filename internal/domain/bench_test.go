package domain

import (
	"testing"

	"luf/internal/congruence"
	"luf/internal/interval"
	"luf/internal/rational"
)

var (
	icSink   IC
	boolSink bool
)

// BenchmarkIC times each operation the analyzer and the solver call, on
// two inline operands (integer bounds, under 0 + 1ℤ and 1 mod 3) and on two
// general ones (fractional bounds), as ns/op, B/op and allocs/op.
func BenchmarkIC(b *testing.B) {
	forms := []struct {
		name string
		x, y IC
		itv  interval.Itv
		k    rational.Q
	}{
		{
			name: "inline",
			x:    FromInterval(interval.RangeInt(0, 10)).MeetInt(),
			y:    FromInterval(interval.RangeInt(3, 40)).Meet(FromCongruence(congruence.Modulo(rational.QInt(3), rational.QInt(1)))),
			itv:  interval.RangeInt(-5, 5),
			k:    rational.QInt(3),
		},
		{
			name: "general",
			x:    FromInterval(interval.Range(rational.QFrac(1, 2), rational.QFrac(21, 2))),
			y:    FromInterval(interval.Range(rational.QFrac(7, 3), rational.QInt(40))),
			itv:  interval.Range(rational.QFrac(-9, 2), rational.QInt(5)),
			k:    rational.QFrac(3, 2),
		},
	}
	for _, f := range forms {
		x, y, k := f.x, f.y, f.k
		ops := []struct {
			name string
			op   func()
		}{
			{"Meet", func() { icSink = x.Meet(y) }},
			{"Join", func() { icSink = x.Join(y) }},
			{"Widen", func() { icSink = x.Widen(y) }},
			{"Leq", func() { boolSink = x.Leq(y) }},
			{"Eq", func() { boolSink = x.Eq(y) }},
			{"Add", func() { icSink = x.Add(y) }},
			{"Sub", func() { icSink = x.Sub(y) }},
			{"Neg", func() { icSink = x.Neg() }},
			{"AddConst", func() { icSink = x.AddConst(k) }},
			{"MulConst", func() { icSink = x.MulConst(k) }},
			{"MeetInt", func() { icSink = x.MeetInt() }},
			{"IsConst", func() { _, boolSink = x.IsConst() }},
			{"Contains", func() { boolSink = x.Contains(k) }},
			{"FromInterval", func() { icSink = FromInterval(f.itv) }},
			{"IntPreimage", func() { icSink = y.IntPreimage(k, k) }},
		}
		for _, o := range ops {
			b.Run(o.name+"/"+f.name, func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					o.op()
				}
			})
		}
	}
}
