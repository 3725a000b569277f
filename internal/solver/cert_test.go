package solver

import (
	"errors"
	"os"
	"testing"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/rational"
	"luf/internal/shostak"
)

// TestCertifiedReplaySolver replays the synthetic corpus in certifying
// mode and re-checks every emitted certificate with the independent
// verifier: the CI "certified replay" gate. Set LUF_CERT_REPLAY=full
// for the full Table 1 corpus (CI); the default is a fast subset.
func TestCertifiedReplaySolver(t *testing.T) {
	// The corpus package imports solver, so generate a representative
	// problem mix here instead of importing it back (no cycle).
	problems := replayProblems()
	if os.Getenv("LUF_CERT_REPLAY") != "full" && testing.Short() {
		problems = problems[:len(problems)/2]
	}
	qdiff := group.QDiff{}
	emitted, conflicts := 0, 0
	for _, p := range problems {
		for _, v := range []Variant{Base, LabeledUF, GroupAction} {
			r := Solve(p, v, Options{MaxSteps: 50000, Certify: true})
			for _, c := range r.Certs {
				emitted++
				if err := cert.Check(c, qdiff); err != nil {
					t.Fatalf("%s/%s: certificate %v~%v rejected: %v", p.Name, v, c.X, c.Y, err)
				}
			}
			if cc := r.ConflictCert; cc != nil {
				emitted++
				conflicts++
				if err := cert.Check(*cc, qdiff); err != nil {
					t.Fatalf("%s/%s: conflict certificate rejected: %v", p.Name, v, err)
				}
				if len(cc.Reasons()) == 0 {
					t.Fatalf("%s/%s: conflict certificate has an empty UNSAT core", p.Name, v)
				}
			}
		}
	}
	if emitted == 0 {
		t.Fatal("certified replay emitted no certificates — the corpus no longer exercises relations")
	}
	t.Logf("certified replay: %d certificates verified (%d conflict cores)", emitted, conflicts)
}

// replayProblems builds a small relation-rich mix: equality chains that
// create union-find classes plus the paper's Figure 7 contradiction.
func replayProblems() []*Problem {
	var out []*Problem
	for _, n := range []int{4, 8, 16, 25} {
		p := NewProblem("chain", n)
		for i := 0; i+1 < n; i++ {
			// x_{i+1} = x_i + (i+1)  =>  one growing relational class.
			e := shostak.Monomial(rational.QInt(1), i+1).
				Sub(shostak.Monomial(rational.QInt(1), i)).
				AddConst(rational.QInt(int64(-(i + 1))))
			p.Add(Eq(e))
		}
		p.Add(Le(lin(0, int64(-1), 0)), Le(lin(int64(-10*n), int64(1), 0)))
		p.Truth = StatusSat
		out = append(out, p)
	}
	out = append(out, figure7Problem())
	return out
}

// TestInjectedCertCorruption: a deterministically sabotaged certificate
// must be rejected by the independent checker — the acceptance test that
// corruption cannot slip through certification.
func TestInjectedCertCorruption(t *testing.T) {
	p := replayProblems()[2]
	clean := Solve(p, LabeledUF, Options{Certify: true})
	if len(clean.Certs) == 0 {
		t.Fatal("problem emits no certificates; injection test is vacuous")
	}
	for n := 1; n <= len(clean.Certs); n++ {
		r := Solve(p, LabeledUF, Options{
			Certify: true,
			Inject:  &fault.Injector{CorruptCertAt: n},
		})
		rejected := 0
		var firstErr error
		for _, c := range r.Certs {
			if err := cert.Check(c, group.QDiff{}); err != nil {
				rejected++
				firstErr = err
			}
		}
		if rejected != 1 {
			t.Fatalf("CorruptCertAt=%d: %d certificates rejected, want exactly 1", n, rejected)
		}
		if !errors.Is(firstErr, fault.ErrInvariantViolated) {
			t.Fatalf("CorruptCertAt=%d: rejection %v not classified as invariant violation", n, firstErr)
		}
	}
}

// TestCheckInvariantsAloneEmitsNoCertificates: the invariant audit
// reads the same journal certification records, but a run that only
// checks invariants emits no certificates. The same runs with Certify
// do emit them, so the test is not vacuous.
func TestCheckInvariantsAloneEmitsNoCertificates(t *testing.T) {
	certified := 0
	for _, p := range replayProblems() {
		for _, v := range []Variant{Base, LabeledUF, GroupAction} {
			r := Solve(p, v, Options{CheckInvariants: true})
			if r.Stop != nil {
				t.Fatalf("%s/%s: healthy run flagged: %v", p.Name, v, r.Stop)
			}
			if len(r.Certs) != 0 || r.ConflictCert != nil {
				t.Fatalf("%s/%s: check-only run emitted %d certificates (conflict %v)",
					p.Name, v, len(r.Certs), r.ConflictCert != nil)
			}
			both := Solve(p, v, Options{CheckInvariants: true, Certify: true})
			certified += len(both.Certs)
			if both.ConflictCert != nil {
				certified++
			}
		}
	}
	if certified == 0 {
		t.Fatal("no run emitted certificates under Certify; the test is vacuous")
	}
}
