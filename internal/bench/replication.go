package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/group"
	"luf/internal/replica"
	"luf/internal/server"
	"luf/internal/wal"
)

// ReplicationConfig parameterizes the replication benchmark: a real
// primary/follower pair on loopback listeners, measured three ways —
// steady-state synchronous shipping (every write acknowledged only
// once a follower holds it durably), anti-entropy catch-up rate after
// follower downtime, and failover latency from primary kill to the
// first certified answer off the promoted follower.
type ReplicationConfig struct {
	// Entries is the number of writes pushed through synchronous
	// replication for the steady-state measurement.
	Entries int
	// Catchup is the number of entries the primary accumulates while
	// the follower is down, then ships when it returns.
	Catchup int
	// Writers is the number of concurrent clients in the pipelined
	// steady-state measurement (default 24). The serial measurement is
	// one client awaiting each acknowledgement in turn; the pipelined
	// one offers Writers at once, so group commit, batched shipping and
	// cumulative watermark acks amortize the ship-fsync round-trip
	// across many writes.
	Writers int
	// PipelinedEntries is the number of writes pushed through the
	// pipelined measurement (default 8x Entries, so it runs long enough
	// to reach the pipelined steady state).
	PipelinedEntries int
	// CertSample is the number of post-write certificates fetched and
	// re-verified through the client after each steady-state
	// measurement (default 100).
	CertSample int
	// ShipInterval is the primary's idle poll period; writes are
	// kicked immediately regardless.
	ShipInterval time.Duration
	Seed         int64
}

// DefaultReplication returns the configuration used to produce
// BENCH_replication.json.
func DefaultReplication() ReplicationConfig {
	return ReplicationConfig{
		Entries: 300, Catchup: 2000, Writers: 24, PipelinedEntries: 2400,
		CertSample: 100, ShipInterval: 2 * time.Millisecond, Seed: 2025,
	}
}

// ReplicationResult aggregates the benchmark for
// BENCH_replication.json.
type ReplicationResult struct {
	// Steady-state synchronous shipping: client-observed write
	// latency with the durable-on-a-follower acknowledgement gate,
	// measured with one serial client (each write awaits its own
	// acknowledgement — the pre-pipelining protocol ceiling).
	SteadyEntries      int     `json:"steady_entries"`
	SteadyNS           int64   `json:"steady_ns"`
	SteadyPerWriteNS   int64   `json:"steady_per_write_ns"`
	SteadyWritesPerSec float64 `json:"steady_writes_per_sec"`
	// Pipelined steady state: the same sync-replication gate under
	// Writers concurrent clients — group commit, batched shipping and
	// cumulative watermark acknowledgements resolve whole batches per
	// ship-fsync round-trip.
	PipelinedWriters      int     `json:"pipelined_writers"`
	PipelinedEntries      int     `json:"pipelined_entries"`
	PipelinedNS           int64   `json:"pipelined_ns"`
	PipelinedWritesPerSec float64 `json:"pipelined_writes_per_sec"`
	// PipelinedSpeedup is PipelinedWritesPerSec over
	// SteadyWritesPerSec from the same run.
	PipelinedSpeedup float64 `json:"pipelined_speedup_vs_serial"`
	// CertsChecked certificates were fetched through the verifying
	// client after the steady-state measurements (half from the
	// primary's writes, half from the pipelined batch) and re-proved;
	// CertsRejected must be zero.
	CertsChecked  int `json:"certs_checked"`
	CertsRejected int `json:"certs_rejected"`
	// Anti-entropy catch-up: follower returns after downtime and
	// re-certifies the missed suffix.
	CatchupEntries       int     `json:"catchup_entries"`
	CatchupNS            int64   `json:"catchup_ns"`
	CatchupEntriesPerSec float64 `json:"catchup_entries_per_sec"`
	// Failover: abrupt primary kill -> election -> first certified
	// answer (relation + verified certificate) from the new primary.
	FailoverNS int64  `json:"failover_to_first_answer_ns"`
	Note       string `json:"note"`
}

// benchNode is one cluster member serving on a real loopback listener.
type benchNode struct {
	srv     *server.Server
	hs      *http.Server
	ln      net.Listener
	url     string
	handler atomic.Value // http.Handler: swapped to bring a "down" node up
}

// newBenchListener reserves a loopback port before the servers exist,
// so each node can name the other as a peer.
func newBenchListener() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// handlerBox gives atomic.Value a single concrete type to hold.
type handlerBox struct{ h http.Handler }

// serveDown starts the node's HTTP server answering plain 503s — the
// shipper sees a transiently unavailable peer — until swapUp installs
// the real handler.
func (n *benchNode) serveDown() {
	n.handler.Store(handlerBox{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	})})
	n.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.handler.Load().(handlerBox).h.ServeHTTP(w, r)
	})}
	go n.hs.Serve(n.ln)
}

// swapUp atomically replaces the 503 handler with the server's own.
func (n *benchNode) swapUp() { n.handler.Store(handlerBox{n.srv.Handler()}) }

func (n *benchNode) close() {
	if n.hs != nil {
		n.hs.Close()
	}
	if n.srv != nil {
		_ = n.srv.Drain(context.Background())
	}
}

// startPair builds a primary/follower pair under root, each on its own
// loopback listener, with the follower initially up or down.
func startPair(root string, cfg ReplicationConfig, sync, followerUp bool) (p, f *benchNode, err error) {
	pln, pURL, err := newBenchListener()
	if err != nil {
		return nil, nil, err
	}
	fln, fURL, err := newBenchListener()
	if err != nil {
		pln.Close()
		return nil, nil, err
	}
	p = &benchNode{ln: pln, url: pURL}
	f = &benchNode{ln: fln, url: fURL}
	mk := func(role, name, adv string, peers []replica.Peer, dir string) (*server.Server, error) {
		s, _, err := server.New(server.Config{
			Dir: dir, Role: role, NodeName: name, Advertise: adv,
			Peers: peers, ShipInterval: cfg.ShipInterval,
			SyncReplication: sync && role == server.RolePrimary,
			LeaseTTL:        30 * time.Second,
		})
		return s, err
	}
	p.srv, err = mk(server.RolePrimary, "p", pURL, []replica.Peer{{Name: "f", URL: fURL}}, filepath.Join(root, "p"))
	if err != nil {
		pln.Close()
		fln.Close()
		return nil, nil, err
	}
	f.srv, err = mk(server.RoleFollower, "f", fURL, []replica.Peer{{Name: "p", URL: pURL}}, filepath.Join(root, "f"))
	if err != nil {
		p.close()
		fln.Close()
		return nil, nil, err
	}
	p.serveDown()
	p.swapUp()
	f.serveDown()
	if followerUp {
		f.swapUp()
	}
	return p, f, nil
}

// waitFor polls cond until it holds or the deadline passes.
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

// RunReplication executes the replication benchmark in a temporary
// directory.
func RunReplication(cfg ReplicationConfig) (*ReplicationResult, error) {
	if cfg.Entries <= 0 {
		cfg.Entries = 300
	}
	if cfg.Catchup <= 0 {
		cfg.Catchup = 2000
	}
	if cfg.Writers <= 0 {
		cfg.Writers = 24
	}
	if cfg.PipelinedEntries <= 0 {
		cfg.PipelinedEntries = 8 * cfg.Entries
	}
	if cfg.CertSample <= 0 {
		cfg.CertSample = 100
	}
	if cfg.ShipInterval <= 0 {
		cfg.ShipInterval = 2 * time.Millisecond
	}
	root, err := os.MkdirTemp("", "luf-replication-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res := &ReplicationResult{
		Note: "steady state gates every acknowledgement on follower durability " +
			"(sync replication): the serial row is one client awaiting each ack, " +
			"the pipelined row offers writes from concurrent clients so group " +
			"commit, streamed batches and cumulative watermark acks amortize the " +
			"ship-fsync round-trip; the certificate sweep re-proves sampled " +
			"answers with the independent checker; catch-up re-certifies every " +
			"shipped record on the follower; failover is primary kill -> " +
			"deterministic election -> first relation answered with a verified " +
			"certificate.",
	}
	ctx := context.Background()

	// Steady-state synchronous shipping, then failover off the same
	// pair: the follower is fully caught up when the primary dies.
	p, f, err := startPair(filepath.Join(root, "steady"), cfg, true, true)
	if err != nil {
		return nil, err
	}
	defer p.close()
	defer f.close()
	entries := recoveryEntries(cfg.Entries, cfg.Seed)
	pc := client.New(p.url)
	// A fresh primary refuses writes (503, Retry-After: 1) until a
	// follower acknowledgement grants its lease; timing from before
	// that would measure the client's back-off, not shipping.
	if err := waitFor(10*time.Second, func() bool {
		st, err := pc.Stats(ctx)
		return err == nil && st.LeaseValid
	}); err != nil {
		return nil, fmt.Errorf("primary lease: %w", err)
	}
	t0 := time.Now()
	for _, e := range entries {
		if _, err := pc.Assert(ctx, e.N, e.M, e.Label, e.Reason); err != nil {
			return nil, fmt.Errorf("steady-state assert: %w", err)
		}
	}
	steady := time.Since(t0)
	res.SteadyEntries = cfg.Entries
	res.SteadyNS = steady.Nanoseconds()
	res.SteadyPerWriteNS = steady.Nanoseconds() / int64(cfg.Entries)
	res.SteadyWritesPerSec = float64(cfg.Entries) / steady.Seconds()

	// Pipelined steady state: the same durable-on-a-follower gate, but
	// Writers clients offering writes concurrently. Group commit batches
	// their fsyncs, the shipper streams frames without waiting per
	// batch, and the follower's cumulative durable watermark resolves
	// every write in a shipped batch with a single acknowledgement. The
	// corpus lives under its own node-name prefix so it cannot conflict
	// with the serial corpus already on the pair.
	pentries := entryCorpus(cfg.PipelinedEntries, cfg.Seed+2, "w")
	var wg sync.WaitGroup
	werrs := make(chan error, cfg.Writers)
	t0 = time.Now()
	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := client.New(p.url)
			for i := w; i < len(pentries); i += cfg.Writers {
				e := pentries[i]
				if _, err := wc.Assert(ctx, e.N, e.M, e.Label, e.Reason); err != nil {
					werrs <- fmt.Errorf("pipelined assert: %w", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	pipelined := time.Since(t0)
	close(werrs)
	if err := <-werrs; err != nil {
		return nil, err
	}
	res.PipelinedWriters = cfg.Writers
	res.PipelinedEntries = cfg.PipelinedEntries
	res.PipelinedNS = pipelined.Nanoseconds()
	res.PipelinedWritesPerSec = float64(cfg.PipelinedEntries) / pipelined.Seconds()
	res.PipelinedSpeedup = res.PipelinedWritesPerSec / res.SteadyWritesPerSec

	// Certificate sweep: re-fetch a sample of the written relations
	// through the verifying client, which re-proves each certificate
	// with the independent checker before returning it. Half the sample
	// comes from the serial corpus, half from the pipelined one.
	sweep := func(corpus []cert.Entry[string, int64], want int) {
		if want > len(corpus) {
			want = len(corpus)
		}
		if want <= 0 {
			return
		}
		stride := len(corpus) / want
		if stride == 0 {
			stride = 1
		}
		for i := 0; want > 0 && i < len(corpus); i += stride {
			e := corpus[i]
			res.CertsChecked++
			if _, err := pc.Explain(ctx, e.N, e.M); err != nil {
				res.CertsRejected++
			}
			want--
		}
	}
	sweep(entries, cfg.CertSample/2)
	sweep(pentries, cfg.CertSample-cfg.CertSample/2)
	if res.CertsRejected > 0 {
		return nil, fmt.Errorf("certificate sweep: %d of %d certificates failed verification", res.CertsRejected, res.CertsChecked)
	}

	// Failover: kill the primary abruptly (no drain), elect the
	// follower, and time the first certified answer.
	cl := client.NewCluster(p.url, f.url)
	kill := time.Now()
	p.hs.Close()
	if _, err := cl.Promote(ctx); err != nil {
		return nil, fmt.Errorf("election: %w", err)
	}
	fc := client.New(f.url)
	probe := entries[0]
	if _, _, err := fc.Relation(ctx, probe.N, probe.M); err != nil {
		return nil, fmt.Errorf("post-failover relation: %w", err)
	}
	if _, err := fc.Explain(ctx, probe.N, probe.M); err != nil {
		return nil, fmt.Errorf("post-failover certificate: %w", err)
	}
	res.FailoverNS = time.Since(kill).Nanoseconds()

	// Anti-entropy catch-up: a primary-side journal accumulated while
	// the follower was away, then shipped in batches to a fresh
	// follower that re-certifies every record before holding it.
	pst, _, err := wal.Open(filepath.Join(root, "catchup-p"), group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer pst.Close()
	centries := recoveryEntries(cfg.Catchup, cfg.Seed+1)
	var lastSeq uint64
	for i, e := range centries {
		seq, err := pst.Append(e)
		if err != nil {
			return nil, fmt.Errorf("catch-up preload: %w", err)
		}
		if seq > 0 {
			lastSeq = seq
		}
		if (i+1)%128 == 0 {
			if err := pst.Commit(lastSeq); err != nil {
				return nil, err
			}
		}
	}
	if err := pst.Commit(lastSeq); err != nil {
		return nil, err
	}

	fln, fURL, err := newBenchListener()
	if err != nil {
		return nil, err
	}
	f2 := &benchNode{ln: fln, url: fURL}
	f2.srv, _, err = server.New(server.Config{
		Dir: filepath.Join(root, "catchup-f"), Role: server.RoleFollower, NodeName: "f2",
	})
	if err != nil {
		fln.Close()
		return nil, err
	}
	f2.serveDown()
	f2.swapUp()
	defer f2.close()

	sh := replica.NewShipper(replica.Config[string, int64]{
		Store: pst, Self: "bench-p", Advertise: "",
		Peers:    []replica.Peer{{Name: "f2", URL: fURL}},
		Interval: cfg.ShipInterval,
	})
	t1 := time.Now()
	sh.Start()
	err = waitFor(2*time.Minute, func() bool { return f2.srv.Store().LastSeq() >= lastSeq })
	catchup := time.Since(t1)
	sh.Stop()
	if err != nil {
		return nil, fmt.Errorf("catch-up: %w", err)
	}
	res.CatchupEntries = int(lastSeq)
	res.CatchupNS = catchup.Nanoseconds()
	res.CatchupEntriesPerSec = float64(lastSeq) / catchup.Seconds()
	return res, nil
}

// WriteJSON writes the result to path, pretty-printed.
func (r *ReplicationResult) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Format renders the replication benchmark for humans.
func (r *ReplicationResult) Format() string {
	var sb strings.Builder
	sb.WriteString("Certified replication (primary/follower over loopback HTTP)\n\n")
	fmt.Fprintf(&sb, "steady-state sync shipping: %d writes in %v (%v/write, %.0f writes/s, serial client)\n",
		r.SteadyEntries, time.Duration(r.SteadyNS).Round(time.Millisecond),
		time.Duration(r.SteadyPerWriteNS).Round(time.Microsecond), r.SteadyWritesPerSec)
	fmt.Fprintf(&sb, "pipelined sync shipping:    %d writes, %d writers in %v (%.0f writes/s, %.1fx serial)\n",
		r.PipelinedEntries, r.PipelinedWriters, time.Duration(r.PipelinedNS).Round(time.Millisecond),
		r.PipelinedWritesPerSec, r.PipelinedSpeedup)
	fmt.Fprintf(&sb, "certificate sweep:          %d checked, %d rejected\n", r.CertsChecked, r.CertsRejected)
	fmt.Fprintf(&sb, "anti-entropy catch-up:      %d entries in %v (%.0f entries/s, each re-certified)\n",
		r.CatchupEntries, time.Duration(r.CatchupNS).Round(time.Millisecond), r.CatchupEntriesPerSec)
	fmt.Fprintf(&sb, "failover to first answer:   %v (kill -> election -> certified relation)\n",
		time.Duration(r.FailoverNS).Round(time.Millisecond))
	sb.WriteString("\nEvery shipped record is re-proved by the follower's independent certificate checker before it is applied.\n")
	return sb.String()
}
