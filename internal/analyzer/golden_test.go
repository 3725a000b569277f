package analyzer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"luf/internal/analyzer/corpus"
	"luf/internal/cfg"
	"luf/internal/lang"
)

// goldenResultsSHA256 is the hash of the canonical result lines of the
// whole scaled corpus (see TestAnalyzerResultsGolden).
const goldenResultsSHA256 = "3c948d52dc6295c776a919b72465767b89a16ab7b9c1ea51044778c36613af70"

// TestAnalyzerResultsGolden pins the analyzer's complete output, not just
// the counts TestPaperCountsPinned checks: for every program of the
// 584-program corpus, at propagation depths 1000 and 2, with and without
// the LUF domain, one canonical line holds the assertion outcomes, the
// stats and every final value's printed form. A change to how the
// analyzer stores or iterates its state that moves a single interval
// bound or congruence changes the hash.
func TestAnalyzerResultsGolden(t *testing.T) {
	h := sha256.New()
	forCorpusResults(t, func(name string, depth int, useLUF bool, res *Result) {
		fmt.Fprintf(h, "%s depth=%d luf=%v stop=%v asserts=%v stats=%+v values=[%s]\n",
			name, depth, useLUF, res.Stop, res.Asserts, res.Stats, valuesText(res))
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenResultsSHA256 {
		t.Errorf("analyzer results hash = %s, want %s", got, goldenResultsSHA256)
	}
}

// goldenOutcomesSHA256 is the hash of the corpus outcome lines of
// TestAnalyzerOutcomesGolden.
const goldenOutcomesSHA256 = "f37d9e3de8620cf1831742d18f46075b4b3924f2edd0650069c21dd775d17d5a"

// TestAnalyzerOutcomesGolden pins what the analysis concludes,
// independently of how often it asserts relations along the way: the
// same lines as TestAnalyzerResultsGolden with Stats.AddRelationCalls
// zeroed. AddRelationCalls counts every relation assertion, including
// re-assertions of relations already implied, so it moves whenever the
// fixpoint visits blocks in a different pattern; the outcomes, values,
// stop reason and every other statistic must not.
func TestAnalyzerOutcomesGolden(t *testing.T) {
	h := sha256.New()
	forCorpusResults(t, func(name string, depth int, useLUF bool, res *Result) {
		stats := res.Stats
		stats.AddRelationCalls = 0
		fmt.Fprintf(h, "%s depth=%d luf=%v stop=%v asserts=%v stats=%+v values=[%s]\n",
			name, depth, useLUF, res.Stop, res.Asserts, stats, valuesText(res))
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenOutcomesSHA256 {
		t.Errorf("analyzer outcomes hash = %s, want %s", got, goldenOutcomesSHA256)
	}
}

// forCorpusResults analyzes every program of the 584-program corpus at
// propagation depths 1000 and 2, without and with the LUF domain, and
// hands each result to fn in that fixed order.
func forCorpusResults(t *testing.T, fn func(name string, depth int, useLUF bool, res *Result)) {
	t.Helper()
	for _, cp := range corpus.Scaled(584) {
		prog, err := lang.Parse(cp.Src)
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		for _, depth := range []int{1000, 2} {
			for _, useLUF := range []bool{false, true} {
				g := cfg.Build(prog)
				dom := cfg.ToSSA(g)
				fn(cp.Name, depth, useLUF, Analyze(g, dom, Config{UseLUF: useLUF, PropagationDepth: depth}))
			}
		}
	}
}

// valuesText joins the printed form of every final value.
func valuesText(res *Result) string {
	vals := make([]string, len(res.Values))
	for v, val := range res.Values {
		vals[v] = val.String()
	}
	return strings.Join(vals, ", ")
}

// goldenCertificatesSHA256 is the hash of every certificate the
// certifying corpus run emits, in emission order (see
// TestAnalyzerCertificatesGolden).
const goldenCertificatesSHA256 = "a05bbf6c83cbc950dbfaf742205b3ada9d8c96e1fc9755681bbed63411b05a29"

// TestAnalyzerCertificatesGolden pins the analyzer's certificates: for
// every program of the 584-program corpus, the cert.Format text of each
// Relation and Conflict certificate, in the order they are emitted. A
// change to which relations are certified, to their evidence chains, or
// to the emission order changes the hash.
func TestAnalyzerCertificatesGolden(t *testing.T) {
	h := sha256.New()
	for _, text := range corpusCertText(t) {
		fmt.Fprint(h, text)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCertificatesSHA256 {
		t.Errorf("analyzer certificates hash = %s, want %s", got, goldenCertificatesSHA256)
	}
}

// goldenRandomSHA256 is the hash of the result lines of
// TestAnalyzerRandomGolden.
const goldenRandomSHA256 = "0bbf460ee17a849e28aabe14b6734fc93fd8f809a6c00c02d463244c13fdf343"

// TestAnalyzerRandomGolden pins the analyzer's output on seeded
// corpus.Random programs. Unlike the scaled corpus, these programs branch
// on conditions built with &&, || and !, so the hash also pins every
// compound case of the condition refiner: for 300 programs, at
// propagation depths 1000 and 2, with and without the LUF domain, one
// line holds the stop reason, the assertion outcomes, the stats and
// every final value.
func TestAnalyzerRandomGolden(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	h := sha256.New()
	for i := 0; i < 300; i++ {
		prog, err := lang.Parse(corpus.Random(rng))
		if err != nil {
			t.Fatalf("random %d: %v", i, err)
		}
		for _, depth := range []int{1000, 2} {
			for _, useLUF := range []bool{false, true} {
				g := cfg.Build(prog)
				dom := cfg.ToSSA(g)
				res := Analyze(g, dom, Config{UseLUF: useLUF, PropagationDepth: depth})
				fmt.Fprintf(h, "random %d depth=%d luf=%v stop=%v asserts=%v stats=%+v values=[%s]\n",
					i, depth, useLUF, res.Stop, res.Asserts, res.Stats, valuesText(res))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenRandomSHA256 {
		t.Errorf("analyzer random-program results hash = %s, want %s", got, goldenRandomSHA256)
	}
}
