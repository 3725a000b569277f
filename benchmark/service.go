package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/group"
	"luf/internal/replica"
	"luf/internal/server"
	"luf/internal/wal"
)

// node is one in-process server on a loopback listener, wrapped in the
// tracing middleware when the run is traced.
type node struct {
	name string
	dir  string
	url  string
	srv  *server.Server
	hs   *http.Server
}

// listen opens a loopback listener on an ephemeral port.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serve starts h on ln and returns the server that owns the listener.
func serve(ln net.Listener, h http.Handler) *http.Server {
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }()
	return hs
}

// startNode builds a server from cfg (recovering cfg.Dir) and serves it
// on ln.
func startNode(tr *tracer, name string, ln net.Listener, url string, cfg server.Config) (*node, error) {
	s, _, err := server.New(cfg)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	return &node{name: name, dir: cfg.Dir, url: url, srv: s, hs: serve(ln, tr.wrap(name, s.Handler()))}, nil
}

// stop closes the listener and drains the server (flush, snapshot,
// close the store). It is idempotent.
func (n *node) stop() error {
	if n == nil || n.hs == nil {
		return nil
	}
	_ = n.hs.Close()
	n.hs = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return n.srv.Drain(ctx)
}

// preload writes entries straight into a fresh durable store at dir
// with one final fsync, so set-up does not pay one fsync per preloaded
// edge; the server then recovers (and re-proves) them on start.
func preload(dir string, entries []cert.Entry[string, int64]) error {
	st, _, err := wal.Open(dir, group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		return err
	}
	var seq uint64
	for _, e := range entries {
		if seq, err = st.Append(e); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Commit(seq); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}

// reopen recovers dir with server.New, as a restarted server would, and
// checks that every acknowledged write answers with its label.
func reopen(dir string, acked []cert.Entry[string, int64]) error {
	s, _, err := server.New(server.Config{Dir: dir})
	if err != nil {
		return fmt.Errorf("reopen %s: %w", dir, err)
	}
	defer s.Drain(context.Background())
	uf := s.UF()
	for _, e := range acked {
		l, ok := uf.GetRelation(e.N, e.M)
		if !ok || l != e.Label {
			return wrongf("acknowledged write %s -(%d)-> %s lost after restart of %s (related=%v label=%d)",
				e.N, e.Label, e.M, filepath.Base(dir), ok, l)
		}
	}
	return nil
}

// newClient returns a client with retries off: a refusal is a failed
// operation, not hidden latency.
func newClient(url string) *client.Client {
	c := client.New(url)
	c.MaxRetries = 0
	return c
}

// ackLog collects acknowledged writes.
type ackLog struct {
	mu      sync.Mutex
	entries []cert.Entry[string, int64]
}

func (a *ackLog) add(e cert.Entry[string, int64]) {
	a.mu.Lock()
	a.entries = append(a.entries, e)
	a.mu.Unlock()
}

// svcConfig sizes a single-group service workload.
type svcConfig struct {
	classes, size int
	// mix shares out the reads, "relation" and "explain".
	mix []share
	// negative is the share of relation reads across two classes, which
	// the model says are unrelated.
	negative float64
	// An assert of a new node is due every assertEvery (none when 0), on
	// the clock rather than dealt from the mix: the writes a window
	// completes, and with them the state's size and the memory it takes,
	// then grow with time alone, not with how fast the host runs.
	assertEvery time.Duration
	// follower adds a -sync-replication follower to the primary.
	follower bool
}

// svcOp is one generated single-group operation.
type svcOp struct {
	kind  string
	n, m  string
	label int64
}

// svc is a single-group workload: one durable primary, optionally with
// a synchronous follower, driven through client.Client.
type svc struct {
	cfg      svcConfig
	tr       *tracer
	world    *world
	preload  []cert.Entry[string, int64]
	primary  *node
	follower *node
	client   *client.Client
	zipf     zipf
	deck     *deck
	op       svcOp // the operation next generated
	// asserts are the window's asserts, generated at set-up so that the
	// seed alone fixes them; written counts those generated so far.
	asserts []svcOp
	written int
	// history keeps the first historyCap operations, which the layer
	// replays re-run.
	history []svcOp
	acked   ackLog
	stats0  server.StatsResponse
	sampler *peerSampler
}

// historyCap bounds svc.history.
const historyCap = 20000

func setupSvc(e *env, cfg svcConfig, window time.Duration) (system, error) {
	if e.tiny {
		cfg.classes, cfg.size = min(cfg.classes, 8), min(cfg.size, 16)
	}
	s := &svc{cfg: cfg, tr: e.tr, world: newWorld(rand.New(rand.NewSource(e.seed)))}
	for c := 0; c < cfg.classes; c++ {
		names := make([]string, cfg.size)
		for i := range names {
			names[i] = fmt.Sprintf("c%d.%d", c, i)
		}
		s.preload = append(s.preload, s.world.addClass(names)...)
	}
	pdir := filepath.Join(e.dir, "primary")
	if err := preload(pdir, s.preload); err != nil {
		return nil, err
	}
	pln, purl, err := listen()
	if err != nil {
		return nil, err
	}
	pcfg := server.Config{Dir: pdir, NodeName: "primary", Advertise: purl, Seed: e.seed}
	if cfg.follower {
		fdir := filepath.Join(e.dir, "follower")
		if err := preload(fdir, s.preload); err != nil {
			pln.Close()
			return nil, err
		}
		fln, furl, err := listen()
		if err != nil {
			pln.Close()
			return nil, err
		}
		s.follower, err = startNode(e.tr, "follower", fln, furl, server.Config{
			Dir: fdir, Role: server.RoleFollower, NodeName: "follower", Advertise: furl, Seed: e.seed + 1,
		})
		if err != nil {
			pln.Close()
			return nil, err
		}
		pcfg.Peers = []replica.Peer{{Name: "follower", URL: furl}}
		pcfg.SyncReplication = true
	}
	if s.primary, err = startNode(e.tr, "primary", pln, purl, pcfg); err != nil {
		s.close()
		return nil, err
	}
	s.client = newClient(purl)
	if cfg.follower {
		// A replicating primary starts with an expired lease and accepts
		// writes only after the follower's first acknowledgement.
		if err := waitFor(10*time.Second, func() bool { return s.primary.srv.Role() == server.RolePrimary && s.leaseValid() }); err != nil {
			s.close()
			return nil, fmt.Errorf("primary never earned its write lease: %w", err)
		}
	}
	s.zipf = newZipf(s.world.rng, cfg.classes)
	for i := 0; cfg.assertEvery > 0 && i <= int(window/cfg.assertEvery); i++ {
		// A new node attached to an existing class: it is never read
		// (reads use preloaded nodes only), so which writes were
		// acknowledged does not change the reads.
		o := svcOp{kind: "assert", n: s.world.member(s.zipf.next()), m: fmt.Sprintf("w%d", i)}
		s.world.value(o.m)
		o.label = s.world.label(o.n, o.m)
		s.asserts = append(s.asserts, o)
	}
	s.deck = newDeck(s.world.rng, cfg.mix)
	s.stats0, _ = s.client.Stats(context.Background())
	if e.tr != nil && s.follower != nil {
		s.sampler = startPeerSampler(s.primary.url)
	}
	return s, nil
}

func (s *svc) leaseValid() bool {
	st, err := s.client.Stats(context.Background())
	return err == nil && st.LeaseValid
}

// waitFor polls cond every millisecond until it holds or d passes.
func waitFor(d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("condition not reached within %v", d)
}

func (s *svc) next(at time.Duration) string {
	var o svcOp
	if s.written < len(s.asserts) && at >= time.Duration(s.written)*s.cfg.assertEvery {
		o = s.asserts[s.written]
		s.written++
	} else {
		rng, c := s.world.rng, s.zipf.next()
		o.kind = s.deck.next()
		if o.kind == "relation" && rng.Float64() < s.cfg.negative {
			o.n, o.m = s.world.member(c), s.world.member((c+1+rng.Intn(s.cfg.classes-1))%s.cfg.classes)
		} else {
			o.n, o.m = s.world.pair(c)
		}
		o.label = s.world.label(o.n, o.m)
	}
	s.op = o
	if len(s.history) < historyCap {
		s.history = append(s.history, o)
	}
	return o.kind
}

func (s *svc) do(ctx context.Context) error {
	c, o := s.client, s.op
	switch o.kind {
	case "relation":
		l, ok, err := c.Relation(ctx, o.n, o.m)
		if err != nil {
			return judge(err, o.kind, o.n, o.m)
		}
		return s.world.checkRelation(o.n, o.m, l, ok)
	case "explain":
		crt, err := c.Explain(ctx, o.n, o.m)
		if err != nil {
			return judge(err, o.kind, o.n, o.m)
		}
		return s.world.checkCert(o.n, o.m, crt)
	default:
		resp, err := c.Assert(ctx, o.n, o.m, o.label, "bench")
		if err != nil {
			return judge(err, o.kind, o.n, o.m)
		}
		if !resp.OK || !resp.Durable {
			return wrongf("assert %s -> %s acknowledged without durability (%+v)", o.n, o.m, resp)
		}
		s.acked.add(cert.Entry[string, int64]{N: o.n, M: o.m, Label: o.label})
		return nil
	}
}

// finish drains both nodes and re-opens each store: every acknowledged
// write (and every preloaded edge) must answer after the restart. With
// synchronous replication an acknowledged write must also be on the
// follower.
func (s *svc) finish(ctx context.Context) error {
	if s.sampler != nil {
		s.sampler.stop()
	}
	var firstErr error
	for _, n := range []*node{s.primary, s.follower} {
		if err := n.stop(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("drain %s: %w", n.name, err)
		}
	}
	if firstErr != nil {
		return firstErr
	}
	want := append(append([]cert.Entry[string, int64](nil), s.preload...), s.acked.entries...)
	if err := reopen(s.primary.dir, want); err != nil {
		return err
	}
	if s.follower != nil {
		return reopen(s.follower.dir, want)
	}
	return nil
}

func (s *svc) close() {
	if s.sampler != nil {
		s.sampler.stop()
	}
	_ = s.primary.stop()
	_ = s.follower.stop()
}

// peerSampler polls the primary's replication status every 100 ms
// during a traced window: the follower's lag in sequence numbers and
// the pipelined batches in flight.
type peerSampler struct {
	done     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once
	lag      sample
	inFlight sample
}

func startPeerSampler(url string) *peerSampler {
	p := &peerSampler{done: make(chan struct{})}
	c := newClient(url)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
			}
			st, err := c.Stats(context.Background())
			if err != nil {
				continue
			}
			for _, ps := range st.Peers {
				p.lag = append(p.lag, float64(st.LastSeq-min(ps.Acked, st.LastSeq)))
				p.inFlight = append(p.inFlight, float64(ps.InFlight))
			}
		}
	}()
	return p
}

func (p *peerSampler) stop() {
	p.once.Do(func() { close(p.done) })
	p.wg.Wait()
}
