package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/fault"
)

// world is the generator's hidden model. Every node the benchmark names
// has a value σ(node) drawn from the seed, and every assertion it sends
// is m - n = σ(m) - σ(n); so no assertion can conflict, and every label
// the system answers must equal σ(m) - σ(n). class records which
// preloaded class a node belongs to: the generator's own union-find,
// which the system's relatedness answers are checked against. The world
// is built before the window and only read during it.
type world struct {
	rng     *rand.Rand
	sigma   map[string]int64
	class   map[string]int
	classes [][]string
}

func newWorld(rng *rand.Rand) *world {
	return &world{rng: rng, sigma: map[string]int64{}, class: map[string]int{}}
}

// value draws σ for a new node. Values stay far from the int64 range so
// label arithmetic never overflows.
func (w *world) value(n string) {
	w.sigma[n] = w.rng.Int63n(2_000_000_000) - 1_000_000_000
}

// label is the one label consistent with σ for m - n.
func (w *world) label(n, m string) int64 { return w.sigma[m] - w.sigma[n] }

// addClass makes names one class joined by a random recursive tree
// (node i hangs under a uniformly chosen earlier node) and returns the
// tree's edges as preload assertions.
func (w *world) addClass(names []string) []cert.Entry[string, int64] {
	id := len(w.classes)
	w.classes = append(w.classes, names)
	edges := make([]cert.Entry[string, int64], 0, len(names)-1)
	for i, n := range names {
		w.value(n)
		w.class[n] = id
		if i == 0 {
			continue
		}
		p := names[w.rng.Intn(i)]
		edges = append(edges, cert.Entry[string, int64]{N: p, M: n, Label: w.label(p, n), Reason: "preload"})
	}
	return edges
}

// join merges the classes of n and m in the model, as an assertion
// between them merges them in the system.
func (w *world) join(n, m string) {
	from, to := w.class[m], w.class[n]
	if from == to {
		return
	}
	for _, x := range w.classes[from] {
		w.class[x] = to
	}
	w.classes[to] = append(w.classes[to], w.classes[from]...)
	w.classes[from] = nil
}

// pair picks two distinct members of class c.
func (w *world) pair(c int) (string, string) {
	members := w.classes[c]
	i := w.rng.Intn(len(members))
	j := w.rng.Intn(len(members) - 1)
	if j >= i {
		j++
	}
	return members[i], members[j]
}

// member picks one member of class c.
func (w *world) member(c int) string {
	members := w.classes[c]
	return members[w.rng.Intn(len(members))]
}

// related reports whether the generator's model relates n and m.
func (w *world) related(n, m string) bool {
	cn, okn := w.class[n]
	cm, okm := w.class[m]
	return okn && okm && cn == cm
}

// errWrong marks an answer the oracle rejected. Any such answer makes
// the run incorrect, unlike a refused or failed request, which only
// counts as failed.
var errWrong = errors.New("wrong answer")

func wrongf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errWrong, fmt.Sprintf(format, args...))
}

// judge sorts the error a request returned. The system shedding or
// refusing the request (429, 503, 504, a stale-route 421 or 403, an I/O
// 500), the transport failing or the deadline passing leaves the
// request unanswered: a failure. Every other error is an answer the
// oracle rejects, since every request the generator sends is valid and
// consistent with σ: a certificate the independent checker rejects on
// the client, or on the server (a 500 of kind "invariant"), a malformed
// certificate, a conflict (409), "no derivation" (404) for a pair the
// model relates, or a request called invalid (400).
func judge(err error, kind, n, m string) error {
	if err == nil || errors.Is(err, errWrong) {
		return err
	}
	var ae *client.APIError
	if errors.As(err, &ae) {
		switch {
		case ae.Status == http.StatusConflict, ae.Status == http.StatusNotFound, ae.Status == http.StatusBadRequest,
			ae.Status == http.StatusInternalServerError && strings.HasSuffix(ae.Body.Error.Kind, "invariant"):
			return wrongf("%s(%s, %s): %v", kind, n, m, err)
		}
		return err
	}
	// The clients return a certificate that fails to decode as a plain
	// error starting with "malformed certificate".
	if errors.Is(err, fault.ErrInvariantViolated) || strings.HasPrefix(err.Error(), "malformed certificate") {
		return wrongf("%s(%s, %s): %v", kind, n, m, err)
	}
	return err
}

// checkRelation checks a relation answer for (n, m).
func (w *world) checkRelation(n, m string, label int64, related bool) error {
	want := w.related(n, m)
	if related != want {
		return wrongf("relation(%s, %s): related=%v, model says %v", n, m, related, want)
	}
	if related && label != w.label(n, m) {
		return wrongf("relation(%s, %s): label %d, model says %d", n, m, label, w.label(n, m))
	}
	return nil
}

// checkCert checks that a certificate (already accepted by the
// independent checker) proves exactly the queried relation.
func (w *world) checkCert(n, m string, c cert.Certificate[string, int64]) error {
	if c.X != n || c.Y != m {
		return wrongf("explain(%s, %s): certificate is for (%s, %s)", n, m, c.X, c.Y)
	}
	if c.Label != w.label(n, m) {
		return wrongf("explain(%s, %s): certificate label %d, model says %d", n, m, c.Label, w.label(n, m))
	}
	return nil
}

// share is one operation kind's share of a workload's mix.
type share struct {
	kind string
	frac float64
}

// deck deals operation kinds in exact proportions: every hundred deals
// hold each kind its share of times, in seeded random order. The mix
// then does not vary with the seed; in shard-2pc the union count sets
// the bridge count, and with it the cost of every cross-shard relation.
type deck struct {
	rng   *rand.Rand
	cards []string
	pos   int
}

func newDeck(rng *rand.Rand, mix []share) *deck {
	d := &deck{rng: rng}
	for _, s := range mix {
		for i := 0; i < int(math.Round(s.frac*100)); i++ {
			d.cards = append(d.cards, s.kind)
		}
	}
	d.pos = len(d.cards)
	return d
}

func (d *deck) next() string {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// zipfS is the Zipf exponent of class popularity in every workload.
const zipfS = 1.1

// zipf draws class indices in [0, k) with Zipf(zipfS) popularity; the
// permutation keeps the hot classes from being the lowest-numbered
// (preloaded first) ones.
type zipf struct {
	z    *rand.Zipf
	perm []int
}

func newZipf(rng *rand.Rand, k int) zipf {
	return zipf{z: rand.NewZipf(rng, zipfS, 1, uint64(k-1)), perm: rng.Perm(k)}
}

func (z zipf) next() int { return z.perm[z.z.Uint64()] }
