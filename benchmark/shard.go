package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"time"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/server"
	"luf/internal/shard"
)

// shardConfig sizes the shard-2pc workload.
type shardConfig struct {
	// hot classes of size members on each group; bridge i joins hot
	// class i of both groups into one cross-shard class.
	hot, size int
	// mix shares out in-shard "relation" and "assert" and cross-shard
	// relations over bridged classes ("xrel").
	mix []share
	// A cross-shard union of a fresh pair ("xunion") is due every
	// unionEvery and a migration every migrateEvery. Each union
	// registers a bridge, and routing a cross-shard relation costs a
	// probe per bridge, so the unions run on the clock: the bridge count,
	// and with it the cost of "xrel", then grows with time alone, not
	// with how fast the machine ran the mix.
	unionEvery, migrateEvery time.Duration
}

// shardOp is one generated shard-2pc operation.
type shardOp struct {
	kind  string
	g     int // owner group of an in-shard operation
	n, m  string
	label int64
	class int // index into shardSys.migrate for a migration
}

// shardSys is two durable single-primary groups plus a coordinator
// (shard.NewHandler) on loopback listeners, driven through
// client.ShardCluster.
type shardSys struct {
	cfg    shardConfig
	world  *world
	m      shard.Map
	groups []*node
	coord  *shard.Coordinator
	curl   string
	chs    *http.Server
	// parts[i][g] are hot class i's members owned by group g.
	parts [][2][]string
	// migrate[j] is warm class j's members, migEdges[j] its preload.
	migrate  [][]string
	migEdges [][]cert.Entry[string, int64]
	// durable[g] is what group g must answer after a restart: its
	// preload, the bridges, and every acknowledged write it owns.
	durable [2]ackLog
	cluster *client.ShardCluster
	zipf    zipf
	deck    *deck
	op      shardOp // the operation next generated
	// unions are the window's cross-shard unions, generated at set-up so
	// that the seed alone fixes them. unionAt and migrateAt are when the
	// next union and migration are due; unioned and migrated count those
	// generated.
	unions             []shardOp
	unionAt, migrateAt time.Duration
	unioned, migrated  int
	// fresh[g] numbers the candidates for group g's next fresh node.
	fresh [2]int
}

var shardNames = []string{"alpha", "beta"}

func setupShard(e *env, cfg shardConfig, window time.Duration) (sys system, err error) {
	if e.tiny {
		cfg.hot, cfg.size, cfg.migrateEvery = 4, 8, window/2
	}
	s := &shardSys{cfg: cfg, world: newWorld(rand.New(rand.NewSource(e.seed))), unionAt: cfg.unionEvery / 2, migrateAt: cfg.migrateEvery / 4}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	lns := make([]net.Listener, len(shardNames))
	urls := make([]string, len(shardNames))
	for gi, name := range shardNames {
		if lns[gi], urls[gi], err = listen(); err != nil {
			for _, ln := range lns[:gi] {
				ln.Close()
			}
			return nil, err
		}
		s.m.Groups = append(s.m.Groups, shard.Group{Name: name, Nodes: []string{urls[gi]}})
	}
	var preloaded [2][]cert.Entry[string, int64]
	for i := 0; i < cfg.hot; i++ {
		var p [2][]string
		for gi := range shardNames {
			p[gi] = s.m.SampleOwned(gi, cfg.size, fmt.Sprintf("h%d.%d", i, gi))
			preloaded[gi] = append(preloaded[gi], s.world.addClass(p[gi])...)
		}
		s.parts = append(s.parts, p)
	}
	// Warm classes on alpha that the window migrates to beta, one per
	// migrateEvery; no other operation touches them.
	for j := 0; j < int(window/cfg.migrateEvery)+1; j++ {
		members := s.m.SampleOwned(0, cfg.size, fmt.Sprintf("mig%d", j))
		edges := s.world.addClass(members)
		preloaded[0] = append(preloaded[0], edges...)
		s.migrate, s.migEdges = append(s.migrate, members), append(s.migEdges, edges)
	}
	for gi, name := range shardNames {
		dir := filepath.Join(e.dir, name)
		if err = preload(dir, preloaded[gi]); err != nil {
			for _, ln := range lns[gi:] {
				ln.Close()
			}
			return nil, err
		}
		s.durable[gi].entries = preloaded[gi]
		n, err := startNode(e.tr, name, lns[gi], urls[gi], server.Config{Dir: dir, NodeName: name, Advertise: urls[gi], Seed: e.seed + int64(gi)})
		if err != nil {
			for _, ln := range lns[gi+1:] {
				ln.Close()
			}
			return nil, err
		}
		s.groups = append(s.groups, n)
	}
	cln, curl, err := listen()
	if err != nil {
		return nil, err
	}
	s.curl = curl
	s.coord, err = shard.New(shard.Config{Dir: filepath.Join(e.dir, "coordinator"), Map: s.m, Advertise: curl, Dial: client.DialGroup})
	if err != nil {
		cln.Close()
		return nil, err
	}
	s.chs = serve(cln, e.tr.wrap("coordinator", shard.NewHandler(s.coord)))
	for i, p := range s.parts {
		a, b := p[0][s.world.rng.Intn(cfg.size)], p[1][s.world.rng.Intn(cfg.size)]
		l := s.world.label(a, b)
		if _, err = s.coord.Union(context.Background(), a, b, l, "preload"); err != nil {
			return nil, fmt.Errorf("preload bridge %d: %w", i, err)
		}
		s.world.join(a, b)
		s.bothSides(cert.Entry[string, int64]{N: a, M: b, Label: l})
	}
	if s.cluster, err = client.NewShardCluster(s.m, curl); err != nil {
		return nil, err
	}
	for i := 0; i <= int(window/cfg.unionEvery); i++ {
		s.unions = append(s.unions, shardOp{kind: "xunion", n: s.freshNode(0), m: s.freshNode(1)})
	}
	s.zipf, s.deck = newZipf(s.world.rng, cfg.hot), newDeck(s.world.rng, cfg.mix)
	return s, nil
}

// bothSides records a committed bridge edge, which both owners hold.
func (s *shardSys) bothSides(e cert.Entry[string, int64]) {
	s.durable[0].add(e)
	s.durable[1].add(e)
}

func (s *shardSys) next(at time.Duration) string {
	rng := s.world.rng
	var o shardOp
	switch {
	case at >= s.migrateAt && s.migrated < len(s.migrate):
		o.kind, o.class = "migrate", s.migrated
		s.migrated++
		s.migrateAt += s.cfg.migrateEvery
	case s.unioned < len(s.unions) && at >= s.unionAt:
		o = s.unions[s.unioned]
		s.unioned++
		s.unionAt += s.cfg.unionEvery
	default:
		p := s.parts[s.zipf.next()]
		o.g = rng.Intn(2)
		switch o.kind = s.deck.next(); o.kind {
		case "relation":
			a, b := rng.Intn(s.cfg.size), rng.Intn(s.cfg.size-1)
			if b >= a {
				b++
			}
			o.n, o.m = p[o.g][a], p[o.g][b]
		case "assert":
			o.n, o.m = p[o.g][rng.Intn(s.cfg.size)], s.freshNode(o.g)
		default:
			o.n, o.m = p[0][rng.Intn(s.cfg.size)], p[1][rng.Intn(s.cfg.size)]
		}
	}
	if o.kind != "migrate" {
		o.label = s.world.label(o.n, o.m)
	}
	s.op = o
	return o.kind
}

// freshNode names a new node that group g owns and draws its value.
func (s *shardSys) freshNode(g int) string {
	for {
		n := fmt.Sprintf("f%d-%d", g, s.fresh[g])
		s.fresh[g]++
		if s.m.Owner(n) == g {
			s.world.value(n)
			return n
		}
	}
}

func (s *shardSys) do(ctx context.Context) error {
	sc, o := s.cluster, s.op
	switch o.kind {
	case "relation", "xrel":
		l, ok, err := sc.Relation(ctx, o.n, o.m)
		if err != nil {
			return judge(err, o.kind, o.n, o.m)
		}
		return s.world.checkRelation(o.n, o.m, l, ok)
	case "assert", "xunion":
		res, err := sc.Assert(ctx, o.n, o.m, o.label, "bench")
		if err != nil {
			return judge(err, o.kind, o.n, o.m)
		}
		if !res.OK || res.SameShard != (o.kind == "assert") {
			return wrongf("%s %s -> %s: unexpected result %+v", o.kind, o.n, o.m, res)
		}
		e := cert.Entry[string, int64]{N: o.n, M: o.m, Label: o.label}
		if o.kind == "xunion" {
			s.bothSides(e)
		} else {
			s.durable[o.g].add(e)
		}
		return nil
	default:
		members := s.migrate[o.class]
		res, err := s.migrateClass(ctx, members[0])
		if err != nil {
			return judge(err, o.kind, members[0], shardNames[1])
		}
		if !res.OK || res.Nodes != len(members) || res.To != shardNames[1] {
			return wrongf("migration of class %s: unexpected result %+v", members[0], res)
		}
		for _, e := range s.migEdges[o.class] {
			s.durable[1].add(e)
		}
		return nil
	}
}

// migrateClass asks the coordinator to move class to beta over its
// public HTTP endpoint. The coordinator refuses a
// migration while a cross-shard union is in doubt on either group; like
// an operator tool, the benchmark retries such a refusal after 5 ms
// until the operation's deadline, so the wait shows as migration
// latency. Any other refusal is returned as a *client.APIError.
func (s *shardSys) migrateClass(ctx context.Context, class string) (shard.MigrateResult, error) {
	var res shard.MigrateResult
	body, err := json.Marshal(shard.MigrateRequest{Class: class, To: shardNames[1], Reason: "bench"})
	if err != nil {
		return res, err
	}
	for {
		status, data, err := s.migrateOnce(ctx, body)
		if err != nil {
			return res, fmt.Errorf("migrate %s: %w", class, err)
		}
		if status == http.StatusOK {
			return res, json.Unmarshal(data, &res)
		}
		ae := &client.APIError{Status: status}
		_ = json.Unmarshal(data, &ae.Body) // a body that is not an error body leaves the kind empty
		if status != http.StatusServiceUnavailable {
			return res, fmt.Errorf("migrate %s: %w", class, ae)
		}
		select {
		case <-ctx.Done():
			return res, fmt.Errorf("migrate %s: refused until the deadline: %w", class, ae)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// migrateOnce sends one migration request.
func (s *shardSys) migrateOnce(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.curl+shard.RebalancePath, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// finish stops the coordinator and both groups, then re-opens each
// group's store: every preloaded edge, bridge and acknowledged write the
// group owns must answer. A migrated class must answer on beta.
func (s *shardSys) finish(ctx context.Context) error {
	s.stopCoordinator()
	for _, n := range s.groups {
		if err := n.stop(); err != nil {
			return fmt.Errorf("drain %s: %w", n.name, err)
		}
	}
	for gi, n := range s.groups {
		if err := reopen(n.dir, s.durable[gi].entries); err != nil {
			return err
		}
	}
	return nil
}

func (s *shardSys) stopCoordinator() {
	if s.chs != nil {
		_ = s.chs.Close()
		s.chs = nil
	}
	if s.coord != nil {
		_ = s.coord.Close()
		s.coord = nil
	}
}

func (s *shardSys) close() {
	s.stopCoordinator()
	for _, n := range s.groups {
		_ = n.stop()
	}
}
