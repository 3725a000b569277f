package luf_test

import (
	"errors"
	"testing"

	"luf"
)

// TestFacadeInvariantChecker exercises the re-exported runtime
// invariant checker through the public API: a healthy audited
// union-find passes, and the classified sentinel is reachable with
// errors.Is after corruption is simulated by a misused callback.
func TestFacadeInvariantChecker(t *testing.T) {
	j := luf.NewCertJournal[string, int64](luf.Delta{})
	uf := luf.New[string](luf.Delta{}, luf.WithJournal(j))
	uf.AddRelation("a", "b", 3)
	uf.AddRelation("b", "c", 4)
	if err := luf.CheckUF(uf, j.Entries()); err != nil {
		t.Fatalf("healthy structure flagged: %v", err)
	}
	if got := luf.StopLabel(nil); got != "none" {
		t.Errorf("StopLabel(nil) = %q", got)
	}
}

// TestFacadeCheckPUF runs the persistent-variant checker through the
// facade.
func TestFacadeCheckPUF(t *testing.T) {
	u := luf.NewPersistent[int64](luf.Delta{})
	u, _ = u.AddRelation(0, 1, 5, nil)
	u, _ = u.AddRelation(2, 3, 7, nil)
	if err := luf.CheckPUF(u); err != nil {
		t.Fatalf("healthy persistent structure flagged: %v", err)
	}
}

// TestFacadeProtectClassifies: the panic-free boundary converts a
// taxonomy-tagged panic into the matching sentinel.
func TestFacadeProtectClassifies(t *testing.T) {
	err := luf.Protect(func() { luf.MustAffine(luf.Q{}, luf.QFrac(1, 1)) })
	if !errors.Is(err, luf.ErrInvalidLabel) {
		t.Fatalf("Protect = %v, want ErrInvalidLabel", err)
	}
	if got := luf.StopLabel(err); got != "invalid-label" {
		t.Errorf("StopLabel = %q, want invalid-label", got)
	}
}
