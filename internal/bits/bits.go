// Package bits implements the tristate "known bits" bitvector domain
// (Example 2.3 of the paper; Vishwanathan et al. 2022; Miné 2012): each bit
// of a w-bit value is 0, 1, or unknown (?). It pairs exactly with the
// xor-rotate label group (xor and rotation on tristate values are exact,
// Section 5.2), while addition is famously non-exact (Example 5.1).
package bits

import (
	"fmt"
	"strings"

	"luf/internal/fault"
)

// TS is a tristate bitvector: bit i is unknown when Mask bit i is 1,
// otherwise it equals bit i of Val (unknown Val bits are kept at 0).
// Always build values with the constructors so the width is set.
type TS struct {
	W     uint   // width, 1..64
	Mask  uint64 // 1 = unknown
	Val   uint64 // known bit values; (Val & Mask) == 0
	empty bool   // ⊥
}

func widthMask(w uint) uint64 {
	if w == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// CheckWidth validates a tristate width, reporting
// fault.ErrInvalidLabel outside [1,64]. The panicking constructors
// below (Top, Bottom, Const, Make) stay panic-based for ergonomic
// literals, but panic with this classified error so the facade's
// recover layer can map it back to the taxonomy; callers handling
// untrusted widths should call CheckWidth first.
func CheckWidth(w uint) error {
	if w < 1 || w > 64 {
		return fault.Invalidf("bits width %d must be in [1,64]", w)
	}
	return nil
}

func checkWidth(w uint) {
	if err := CheckWidth(w); err != nil {
		panic(err)
	}
}

// Top returns the all-unknown tristate of width w.
func Top(w uint) TS {
	checkWidth(w)
	return TS{W: w, Mask: widthMask(w)}
}

// Bottom returns ⊥ of width w.
func Bottom(w uint) TS {
	checkWidth(w)
	return TS{W: w, empty: true}
}

// Const returns the fully-known tristate for value v.
func Const(w uint, v uint64) TS {
	checkWidth(w)
	return TS{W: w, Val: v & widthMask(w)}
}

// Make returns the tristate with the given unknown mask and known values.
func Make(w uint, mask, val uint64) TS {
	checkWidth(w)
	m := mask & widthMask(w)
	return TS{W: w, Mask: m, Val: val & widthMask(w) &^ m}
}

// IsBottom reports whether the tristate is ⊥.
func (a TS) IsBottom() bool { return a.empty }

// IsTop reports whether all bits are unknown.
func (a TS) IsTop() bool { return !a.empty && a.Mask == widthMask(a.W) }

// IsConst reports whether all bits are known, returning the value.
func (a TS) IsConst() (uint64, bool) {
	if a.empty || a.Mask != 0 {
		return 0, false
	}
	return a.Val, true
}

// Contains reports whether the concrete value v matches the known bits.
func (a TS) Contains(v uint64) bool {
	if a.empty {
		return false
	}
	return v&widthMask(a.W)&^a.Mask == a.Val
}

// Eq reports equality.
func (a TS) Eq(b TS) bool { return a == b }

// Leq reports γ(a) ⊆ γ(b): every bit known in b is known in a with the
// same value.
func (a TS) Leq(b TS) bool {
	if a.empty {
		return true
	}
	if b.empty {
		return false
	}
	// b's known bits must be known in a and agree.
	known := ^b.Mask & widthMask(b.W)
	return a.Mask&known == 0 && a.Val&known == b.Val
}

// Meet returns the intersection: bits known in either must agree, and the
// result knows their union. Conflicting known bits give ⊥.
func (a TS) Meet(b TS) TS {
	if a.empty || b.empty {
		return Bottom(a.W)
	}
	bothKnown := ^a.Mask & ^b.Mask & widthMask(a.W)
	if (a.Val^b.Val)&bothKnown != 0 {
		return Bottom(a.W)
	}
	mask := a.Mask & b.Mask
	val := (a.Val | b.Val) &^ mask
	return TS{W: a.W, Mask: mask, Val: val}
}

// Join returns the union: only bits known and equal on both sides stay
// known.
func (a TS) Join(b TS) TS {
	if a.empty {
		return b
	}
	if b.empty {
		return a
	}
	agree := ^a.Mask & ^b.Mask & ^(a.Val ^ b.Val) & widthMask(a.W)
	return TS{W: a.W, Mask: widthMask(a.W) &^ agree, Val: a.Val & agree}
}

// Xor returns {v xor c | v ∈ γ(a)} for a constant c; exact.
func (a TS) Xor(c uint64) TS {
	if a.empty {
		return a
	}
	return TS{W: a.W, Mask: a.Mask, Val: (a.Val ^ c) & widthMask(a.W) &^ a.Mask}
}

// RotL rotates left by s; exact.
func (a TS) RotL(s uint) TS {
	if a.empty {
		return a
	}
	s %= a.W
	rot := func(x uint64) uint64 {
		x &= widthMask(a.W)
		if s == 0 {
			return x
		}
		return ((x << s) | (x >> (a.W - s))) & widthMask(a.W)
	}
	return TS{W: a.W, Mask: rot(a.Mask), Val: rot(a.Val)}
}

// RotR rotates right by s; exact.
func (a TS) RotR(s uint) TS { return a.RotL(a.W - s%a.W) }

// XorTS returns {v xor w | v ∈ γ(a), w ∈ γ(b)}; exact.
func (a TS) XorTS(b TS) TS {
	if a.empty || b.empty {
		return Bottom(a.W)
	}
	mask := a.Mask | b.Mask
	return TS{W: a.W, Mask: mask, Val: (a.Val ^ b.Val) &^ mask}
}

// And returns a sound over-approximation of {v & w}.
func (a TS) And(b TS) TS {
	if a.empty || b.empty {
		return Bottom(a.W)
	}
	// A result bit is known-0 if either side is known-0; known-1 if both
	// are known-1.
	zero := (^a.Mask & ^a.Val) | (^b.Mask & ^b.Val)
	one := (^a.Mask & a.Val) & (^b.Mask & b.Val)
	known := (zero | one) & widthMask(a.W)
	return TS{W: a.W, Mask: widthMask(a.W) &^ known, Val: one & widthMask(a.W)}
}

// Or returns a sound over-approximation of {v | w}.
func (a TS) Or(b TS) TS {
	if a.empty || b.empty {
		return Bottom(a.W)
	}
	one := (^a.Mask & a.Val) | (^b.Mask & b.Val)
	zero := (^a.Mask & ^a.Val) & (^b.Mask & ^b.Val)
	known := (zero | one) & widthMask(a.W)
	return TS{W: a.W, Mask: widthMask(a.W) &^ known, Val: one & widthMask(a.W)}
}

// Not returns {^v}; exact.
func (a TS) Not() TS { return a.Xor(widthMask(a.W)) }

// Add returns a sound over-approximation of {v + w mod 2^W} using carry
// propagation on known bits. This is the canonical *non-exact* tristate
// operation (Example 5.1): a single unknown bit can poison all higher bits
// through the carry chain.
func (a TS) Add(b TS) TS {
	if a.empty || b.empty {
		return Bottom(a.W)
	}
	// Known-bit addition (cf. tnum_add from Vishwanathan et al.):
	sm := a.Mask + b.Mask
	sv := a.Val + b.Val
	sigma := sm + sv
	chi := sigma ^ sv
	mu := chi | a.Mask | b.Mask
	return TS{W: a.W, Mask: mu & widthMask(a.W), Val: sv & widthMask(a.W) &^ mu}
}

// String renders the tristate MSB-first with ? for unknown bits.
func (a TS) String() string {
	if a.empty {
		return "⊥"
	}
	var sb strings.Builder
	sb.WriteString("0b")
	for i := int(a.W) - 1; i >= 0; i-- {
		bit := uint64(1) << uint(i)
		switch {
		case a.Mask&bit != 0:
			sb.WriteByte('?')
		case a.Val&bit != 0:
			sb.WriteByte('1')
		default:
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Parse parses the String format ("0b10?1" or "10?1").
func Parse(s string) (TS, error) {
	s = strings.TrimPrefix(s, "0b")
	if len(s) == 0 || len(s) > 64 {
		return TS{}, fmt.Errorf("bits: bad literal %q", s)
	}
	var mask, val uint64
	for _, c := range s {
		mask <<= 1
		val <<= 1
		switch c {
		case '0':
		case '1':
			val |= 1
		case '?':
			mask |= 1
		default:
			return TS{}, fmt.Errorf("bits: bad character %q", c)
		}
	}
	return Make(uint(len(s)), mask, val), nil
}

// MustParse is Parse that panics with a classified error.
func MustParse(s string) TS {
	ts, err := Parse(s)
	if err != nil {
		panic(fault.Invalidf("bits.MustParse: %v", err))
	}
	return ts
}
