package core

import (
	"slices"
	"testing"

	"luf/internal/group"
)

type recorded struct {
	n, m   string
	l      int64
	reason string
}

func TestWithRecorder(t *testing.T) {
	var log []recorded
	u := New[string, int64](group.Delta{},
		WithRecorder[string, int64](func(n, m string, l int64, reason string) {
			log = append(log, recorded{n, m, l, reason})
		}))
	if !u.Recording() {
		t.Fatal("Recording() = false with a recorder installed")
	}
	u.AddRelationReason("a", "b", 2, "eq#0")
	u.AddRelation("b", "c", 3)                   // no reason
	u.AddRelationReason("a", "c", 5, "eq#2")     // redundant, still recorded
	if u.AddRelationReason("a", "c", 9, "bad") { // conflict: NOT recorded
		t.Error("conflicting AddRelationReason reported true")
	}
	want := []recorded{
		{"a", "b", 2, "eq#0"},
		{"b", "c", 3, ""},
		{"a", "c", 5, "eq#2"},
	}
	if len(log) != len(want) {
		t.Fatalf("recorded %d assertions, want %d: %v", len(log), len(want), log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, log[i], want[i])
		}
	}
}

func TestInfoUFRecorder(t *testing.T) {
	var log []recorded
	u := NewInfo[string, int64, int64](
		New[string, int64](group.Delta{},
			WithRecorder[string, int64](func(n, m string, l int64, reason string) {
				log = append(log, recorded{n, m, l, reason})
			})),
		deltaAction{})
	u.AddRelationReason("x", "y", 4, "def y")
	if len(log) != 1 || log[0].reason != "def y" {
		t.Fatalf("InfoUF recording = %v, want one entry with reason 'def y'", log)
	}
}

// deltaAction is a trivial action of Delta on int64 values (shift).
type deltaAction struct{}

func (deltaAction) Apply(l int64, i int64) int64 { return i - l }
func (deltaAction) Meet(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
func (deltaAction) Top() int64 { return 1 << 62 }

func TestPUFJournal(t *testing.T) {
	u := NewPersistent[int64](group.Delta{}).WithRecording()
	if !u.Recording() {
		t.Fatal("Recording() = false after WithRecording")
	}
	u, _ = u.AddRelationReason(0, 1, 2, "c0", nil)
	u, _ = u.AddRelationReason(1, 2, 3, "c1", nil)
	// Snapshot: the old version must keep its shorter journal.
	snap := u
	u, _ = u.AddRelationReason(2, 3, 4, "c2", nil)
	if got := snap.JournalLen(); got != 2 {
		t.Errorf("snapshot journal has %d entries, want 2", got)
	}
	if got := u.JournalLen(); got != 3 {
		t.Errorf("journal has %d entries, want 3", got)
	}
	// Conflicting assertion is not journaled.
	u, ok := u.AddRelationReason(0, 3, 99, "bad", nil)
	if ok || u.JournalLen() != 3 {
		t.Errorf("conflict journaled: ok=%v len=%d", ok, u.JournalLen())
	}
	var got []recorded
	u.ForEachJournalEntry(func(n, m int, l int64, reason string) {
		got = append(got, recorded{string(rune('0' + n)), string(rune('0' + m)), l, reason})
	})
	if len(got) != 3 || got[0].reason != "c0" || got[2].reason != "c2" {
		t.Errorf("journal replay order wrong: %v", got)
	}
	// A structure without recording journals nothing.
	v := NewPersistent[int64](group.Delta{})
	v, _ = v.AddRelation(0, 1, 2, nil)
	if v.JournalLen() != 0 {
		t.Errorf("non-recording PUF journaled %d entries", v.JournalLen())
	}
}

// TestConflictCarriesReason: the conflict callbacks of UF and PUF
// receive the refused call's reason in Conflict.Reason, and the empty
// reason for a plain AddRelation.
func TestConflictCarriesReason(t *testing.T) {
	var got []Conflict[string, int64]
	u := New[string, int64](group.Delta{},
		WithConflictHandler[string, int64](func(c Conflict[string, int64]) { got = append(got, c) }))
	u.AddRelationReason("a", "b", 2, "eq#0")
	u.AddRelationReason("a", "b", 5, "eq#1")
	u.AddRelation("b", "a", 7)
	want := []Conflict[string, int64]{
		{N: "a", M: "b", New: 5, Old: 2, Reason: "eq#1"},
		{N: "b", M: "a", New: 7, Old: -2},
	}
	if !slices.Equal(got, want) {
		t.Fatalf("UF conflicts = %+v, want %+v", got, want)
	}

	var pc []Conflict[int, int64]
	onConflict := func(c Conflict[int, int64]) { pc = append(pc, c) }
	p := NewPersistent[int64](group.Delta{})
	p, _ = p.AddRelationReason(0, 1, 2, "eq#0", onConflict)
	p.AddRelationReason(0, 1, 5, "eq#1", onConflict)
	p.AddRelation(1, 0, 7, onConflict)
	pwant := []Conflict[int, int64]{
		{N: 0, M: 1, New: 5, Old: 2, Reason: "eq#1"},
		{N: 1, M: 0, New: 7, Old: -2},
	}
	if !slices.Equal(pc, pwant) {
		t.Fatalf("PUF conflicts = %+v, want %+v", pc, pwant)
	}
}
