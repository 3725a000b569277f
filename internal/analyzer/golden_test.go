package analyzer

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"luf/internal/analyzer/corpus"
	"luf/internal/cfg"
	"luf/internal/lang"
)

// goldenResultsSHA256 is the hash of the canonical result lines of the
// whole scaled corpus (see TestAnalyzerResultsGolden).
const goldenResultsSHA256 = "218ef20de4a2bd17e81386d5de347ecf106e6f99effe78e1e233af3057044953"

// TestAnalyzerResultsGolden pins the analyzer's complete output, not just
// the counts TestPaperCountsPinned checks: for every program of the
// 584-program corpus, at propagation depths 1000 and 2, with and without
// the LUF domain, one canonical line holds the assertion outcomes, the
// stats and every final value's printed form. A change to how the
// analyzer stores or iterates its state that moves a single interval
// bound or congruence changes the hash.
func TestAnalyzerResultsGolden(t *testing.T) {
	h := sha256.New()
	for _, cp := range corpus.Scaled(584) {
		prog, err := lang.Parse(cp.Src)
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		for _, depth := range []int{1000, 2} {
			for _, useLUF := range []bool{false, true} {
				g := cfg.Build(prog)
				dom := cfg.ToSSA(g)
				res := Analyze(g, dom, Config{UseLUF: useLUF, PropagationDepth: depth})
				vals := make([]string, len(res.Values))
				for v, val := range res.Values {
					vals[v] = val.String()
				}
				fmt.Fprintf(h, "%s depth=%d luf=%v stop=%v asserts=%v stats=%+v values=[%s]\n",
					cp.Name, depth, useLUF, res.Stop, res.Asserts, res.Stats, strings.Join(vals, ", "))
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenResultsSHA256 {
		t.Errorf("analyzer results hash = %s, want %s", got, goldenResultsSHA256)
	}
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
