package analyzer

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"luf/internal/analyzer/corpus"
	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
)

// TestCertifiedReplayAnalyzer replays the analyzer corpus in certifying
// mode and re-checks every certificate with the independent verifier:
// the CI "certified replay" gate for the abstract-interpretation side.
// LUF_CERT_REPLAY=full scales to the paper-sized corpus (CI).
func TestCertifiedReplayAnalyzer(t *testing.T) {
	n := 40
	if os.Getenv("LUF_CERT_REPLAY") == "full" {
		n = 584
	}
	tvpe := group.TVPE{}
	emitted := 0
	for _, cp := range corpus.Scaled(n) {
		conf := DefaultConfig(true)
		conf.Certify = true
		res, g := analyzeSrc(t, cp.Src, conf)
		for _, c := range res.Certificates {
			emitted++
			if err := cert.Check(c, tvpe); err != nil {
				t.Fatalf("%s: certificate %s~%s rejected: %v",
					cp.Name, g.VarName[c.X], g.VarName[c.Y], err)
			}
		}
		if cc := res.ConflictCert; cc != nil {
			emitted++
			if err := cert.Check(*cc, tvpe); err != nil {
				t.Fatalf("%s: conflict certificate rejected: %v", cp.Name, err)
			}
		}
	}
	if emitted == 0 {
		t.Fatal("certified replay emitted no certificates — the corpus no longer exercises relations")
	}
	t.Logf("certified replay: %d certificates verified over %d programs", emitted, n)
}

// TestAnalyzerInjectedCertCorruption: a deterministically sabotaged
// certificate must be rejected by the independent checker and counted as
// an answer problem, proving corruption cannot slip through the
// analyzer's certification either.
func TestAnalyzerInjectedCertCorruption(t *testing.T) {
	conf := DefaultConfig(true)
	conf.Certify = true
	clean, _ := analyzeSrc(t, figure8Src, conf)
	if len(clean.Certificates) == 0 {
		t.Fatal("figure 8 emits no certificates; injection test is vacuous")
	}
	for n := 1; n <= len(clean.Certificates); n++ {
		conf := DefaultConfig(true)
		conf.Certify = true
		conf.Inject = &fault.Injector{CorruptCertAt: n}
		res, _ := analyzeSrc(t, figure8Src, conf)
		rejected := 0
		var firstErr error
		for _, c := range res.Certificates {
			if err := cert.Check(c, group.TVPE{}); err != nil {
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

// corpusCertText runs the whole 584-program corpus with Certify and
// returns, per program, every emitted certificate in cert.Format form,
// in emission order.
func corpusCertText(t *testing.T) []string {
	t.Helper()
	tvpe := group.TVPE{}
	var out []string
	for _, cp := range corpus.Scaled(584) {
		conf := DefaultConfig(true)
		conf.Certify = true
		res, _ := analyzeSrc(t, cp.Src, conf)
		var sb strings.Builder
		fmt.Fprintf(&sb, "%s\n", cp.Name)
		for _, c := range res.Certificates {
			fmt.Fprintf(&sb, "%s\n", cert.Format(c, tvpe))
		}
		if cc := res.ConflictCert; cc != nil {
			fmt.Fprintf(&sb, "%s\n", cert.Format(*cc, tvpe))
		}
		out = append(out, sb.String())
	}
	return out
}

// TestAnalyzerCertificatesDeterministic: two certifying runs of the same
// program emit the same certificates in the same order — emission must
// not follow map iteration order.
func TestAnalyzerCertificatesDeterministic(t *testing.T) {
	a, b := corpusCertText(t), corpusCertText(t)
	differ := 0
	for i := range a {
		if a[i] != b[i] {
			differ++
		}
	}
	if differ != 0 {
		t.Fatalf("%d of %d programs emitted different certificates across two runs", differ, len(a))
	}
}

// TestAnalyzerCheckInvariantsAloneEmitsNoCertificates: the invariant
// audit reads the journal certification records, but a check-only
// analysis emits no certificates, while the same analysis with Certify
// does.
func TestAnalyzerCheckInvariantsAloneEmitsNoCertificates(t *testing.T) {
	conf := DefaultConfig(true)
	conf.CheckInvariants = true
	res, _ := analyzeSrc(t, figure8Src, conf)
	if res.Stop != nil {
		t.Fatalf("healthy run flagged: %v", res.Stop)
	}
	if len(res.Certificates) != 0 || res.ConflictCert != nil {
		t.Fatalf("check-only run emitted %d certificates (conflict %v)",
			len(res.Certificates), res.ConflictCert != nil)
	}
	conf.Certify = true
	if res, _ := analyzeSrc(t, figure8Src, conf); len(res.Certificates) == 0 {
		t.Fatal("figure 8 emits no certificates under Certify; the test is vacuous")
	}
}
