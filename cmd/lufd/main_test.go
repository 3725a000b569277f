package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"errors"
	"net/http"

	"luf/internal/client"
	"luf/internal/replica"
	"luf/internal/wal"
)

// syncBuffer is a concurrency-safe bytes.Buffer: the daemon goroutine
// writes while the test polls.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// daemon is one in-process lufd run.
type daemon struct {
	addr string
	out  *syncBuffer
	stop func() int // cancel (SIGTERM equivalent) and wait for exit
}

// startDaemon launches run() with the given extra args on a free port
// and waits for the listening line.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	out := &syncBuffer{}
	done := make(chan int, 1)
	full := append([]string{"-addr", "127.0.0.1:0"}, args...)
	go func() { done <- run(ctx, full, out, out) }()

	deadline := time.Now().Add(5 * time.Second)
	var addr string
	for time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "listening on ") {
			line := s[strings.Index(s, "listening on ")+len("listening on "):]
			addr = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
			break
		}
		select {
		case code := <-done:
			t.Fatalf("daemon exited with code %d before listening:\n%s", code, out.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	if addr == "" {
		cancel()
		t.Fatalf("daemon never reported its address:\n%s", out.String())
	}
	stopped := false
	d := &daemon{addr: addr, out: out, stop: func() int {
		if stopped {
			return 0
		}
		stopped = true
		cancel()
		select {
		case code := <-done:
			return code
		case <-time.After(10 * time.Second):
			t.Fatalf("daemon did not exit after cancel:\n%s", out.String())
			return 1
		}
	}}
	t.Cleanup(func() { d.stop() })
	return d
}

func TestLufdRestartPreservesCertifiedState(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-dir", dir)
	c := client.New("http://" + d.addr)
	ctx := context.Background()

	if _, err := c.Assert(ctx, "x", "y", 3, "session-1-fact-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Assert(ctx, "y", "z", 4, "session-1-fact-2"); err != nil {
		t.Fatal(err)
	}
	if code := d.stop(); code != 0 {
		t.Fatalf("drain exit code %d:\n%s", code, d.out.String())
	}
	if !strings.Contains(d.out.String(), "draining") || !strings.Contains(d.out.String(), "stopped") {
		t.Fatalf("shutdown output lacks drain markers:\n%s", d.out.String())
	}

	d2 := startDaemon(t, "-dir", dir)
	if !strings.Contains(d2.out.String(), "recovered 2 assertions") {
		t.Fatalf("restart output lacks recovery line:\n%s", d2.out.String())
	}
	c2 := client.New("http://" + d2.addr)
	l, ok, err := c2.Relation(ctx, "x", "z")
	if err != nil || !ok || l != 7 {
		t.Fatalf("restarted relation(x,z) = (%d,%v,%v), want (7,true,nil)", l, ok, err)
	}
	// Explain re-verifies the certificate locally; its reasons must be
	// the pre-restart facts, proving provenance survived the journal.
	cc, err := c2.Explain(ctx, "x", "z")
	if err != nil {
		t.Fatal(err)
	}
	reasons := strings.Join(cc.Reasons(), ",")
	if !strings.Contains(reasons, "session-1-fact-1") || !strings.Contains(reasons, "session-1-fact-2") {
		t.Fatalf("recovered certificate reasons %q lost provenance", reasons)
	}
	if code := d2.stop(); code != 0 {
		t.Fatalf("second drain exit code %d", code)
	}
}

func TestLufdTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	d := startDaemon(t, "-dir", dir)
	c := client.New("http://" + d.addr)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := c.Assert(ctx, fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), int64(i+1), ""); err != nil {
			t.Fatal(err)
		}
	}
	d.stop()

	// A crash mid-append leaves a torn frame at the journal tail.
	jpath := filepath.Join(dir, "journal.wal")
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x2a, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	d2 := startDaemon(t, "-dir", dir)
	out := d2.out.String()
	if !strings.Contains(out, "recovered 3 assertions") {
		t.Fatalf("torn-tail restart lacks recovery line:\n%s", out)
	}
	if !strings.Contains(out, "torn bytes repaired") || strings.Contains(out, "0 torn bytes repaired") {
		t.Fatalf("torn-tail restart did not report the repair:\n%s", out)
	}
	c2 := client.New("http://" + d2.addr)
	l, ok, err := c2.Relation(context.Background(), "n0", "n3")
	if err != nil || !ok || l != 6 {
		t.Fatalf("relation after torn-tail repair = (%d,%v,%v), want (6,true,nil)", l, ok, err)
	}
}

// TestLufdCrashPointMatrix is the end-to-end acceptance matrix: a
// journal produced through the real daemon is truncated at every byte
// offset (every possible crash point), and a fresh daemon must come up
// serving exactly the relations of the surviving record prefix — the
// next asserted-but-torn fact must be gone, not half-applied. Zero
// silent divergences, demonstrated through cmd/lufd restart.
func TestLufdCrashPointMatrix(t *testing.T) {
	// Build the reference journal through the daemon itself.
	seedDir := t.TempDir()
	d := startDaemon(t, "-dir", seedDir)
	c := client.New("http://" + d.addr)
	ctx := context.Background()
	const facts = 4
	for i := 0; i < facts; i++ {
		if _, err := c.Assert(ctx, fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), int64(i+1), fmt.Sprintf("fact-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	d.stop()
	image, err := os.ReadFile(filepath.Join(seedDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	full, err := wal.DecodeAll(image, wal.DeltaCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Records) != facts {
		t.Fatalf("journal has %d records, want %d", len(full.Records), facts)
	}

	scratch := t.TempDir()
	for cut := 0; cut <= len(image); cut++ {
		survivors := 0
		for _, r := range full.Records {
			if r.Off+r.Len <= cut {
				survivors++
			}
		}
		dir := filepath.Join(scratch, "cut")
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "journal.wal"), image[:cut], 0o644); err != nil {
			t.Fatal(err)
		}

		dc := startDaemon(t, "-dir", dir)
		cc := client.New("http://" + dc.addr)
		// Every surviving fact answers with its exact composed label...
		sum := int64(0)
		for i := 0; i < survivors; i++ {
			sum += int64(i + 1)
			l, ok, err := cc.Relation(ctx, "n0", fmt.Sprintf("n%d", i+1))
			if err != nil || !ok || l != sum {
				t.Fatalf("cut %d: relation(n0,n%d) = (%d,%v,%v), want (%d,true,nil)", cut, i+1, l, ok, err, sum)
			}
		}
		// ...and the first torn-away fact is fully gone.
		if survivors < facts {
			_, ok, err := cc.Relation(ctx, "n0", fmt.Sprintf("n%d", survivors+1))
			if err != nil || ok {
				t.Fatalf("cut %d: torn-away fact leaked: related=%v err=%v", cut, ok, err)
			}
		}
		if code := dc.stop(); code != 0 {
			t.Fatalf("cut %d: exit code %d:\n%s", cut, code, dc.out.String())
		}
	}
}

// TestLufdSelfHealFlags verifies the flag wiring of the self-healing
// stack: a durable follower self-heals by default (healer status in
// /v1/stats, background scrubber on), `-resync-max-attempts 0` turns
// the healer off, and a primary never gets one — it only scrubs.
func TestLufdSelfHealFlags(t *testing.T) {
	ctx := context.Background()

	f := startDaemon(t, "-dir", t.TempDir(), "-role", "follower", "-node-name", "f",
		"-resync-max-attempts", "3", "-scrub-interval", "30s")
	if !strings.Contains(f.out.String(), "self-healing enabled (max 3 resync attempts per episode)") {
		t.Fatalf("follower startup lacks the self-healing line:\n%s", f.out.String())
	}
	st, err := client.New("http://" + f.addr).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Heal == nil || st.Heal.State != replica.HealHealthy {
		t.Fatalf("follower stats heal = %+v, want healthy healer status", st.Heal)
	}
	if st.Scrub == nil {
		t.Fatal("follower stats lack scrubber counters")
	}

	off := startDaemon(t, "-dir", t.TempDir(), "-role", "follower", "-node-name", "off",
		"-resync-max-attempts", "0")
	if strings.Contains(off.out.String(), "self-healing enabled") {
		t.Fatalf("-resync-max-attempts 0 still enabled self-healing:\n%s", off.out.String())
	}
	st, err = client.New("http://" + off.addr).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Heal != nil {
		t.Fatalf("disabled follower still reports a healer: %+v", st.Heal)
	}

	p := startDaemon(t, "-dir", t.TempDir(), "-role", "primary", "-node-name", "p")
	st, err = client.New("http://" + p.addr).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Heal != nil {
		t.Fatalf("primary reports a healer: %+v", st.Heal)
	}
	if st.Scrub == nil {
		t.Fatal("primary stats lack scrubber counters")
	}
}

// waitFirstAck holds a failover test's kill until its load has one
// acknowledged write, for at most 10 s: a fixed sleep could fire before
// a slow machine acknowledged anything. On timeout the kill goes ahead
// and the test's own "no write was acknowledged" check reports it.
func waitFirstAck(acked *atomic.Bool) {
	deadline := time.Now().Add(10 * time.Second)
	for !acked.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// TestLufdFailoverNoCertifiedAnswerLost is the end-to-end failover
// acceptance test: a primary replicating synchronously to a follower
// is killed mid-load; the follower is promoted under a fencing token;
// every acknowledged answer must still be served — certified — by the
// new primary; and the revived stale primary must be provably fenced
// out (its stream refused, itself demoted, its client writes
// redirected).
func TestLufdFailoverNoCertifiedAnswerLost(t *testing.T) {
	fdir, pdir := t.TempDir(), t.TempDir()
	f := startDaemon(t, "-dir", fdir, "-role", "follower", "-node-name", "f")
	p := startDaemon(t, "-dir", pdir, "-role", "primary", "-node-name", "p",
		"-peers", "f=http://"+f.addr, "-sync-replication", "-lease-ttl", "10s")
	ctx := context.Background()
	pc := client.New("http://" + p.addr)

	// Load the primary from a writer goroutine. With -sync-replication
	// every acknowledged write is already durable on the follower, so
	// the kill can only lose writes that were never acknowledged —
	// exactly what the durability contract permits.
	type fact struct {
		n, m  string
		label int64
	}
	var acked []fact // goroutine-owned until loadDone closes
	loadDone := make(chan struct{})
	var firstAck atomic.Bool
	go func() {
		defer close(loadDone)
		for i := 0; ; i++ {
			ft := fact{fmt.Sprintf("k%d", i), fmt.Sprintf("k%d", i+1), int64(i%7 + 1)}
			if _, err := pc.Assert(ctx, ft.n, ft.m, ft.label, fmt.Sprintf("load-%d", i)); err != nil {
				return // the primary died mid-load
			}
			acked = append(acked, ft)
			firstAck.Store(true)
		}
	}()
	waitFirstAck(&firstAck)
	p.stop() // the primary goes away under load
	<-loadDone
	if len(acked) == 0 {
		t.Fatal("no write was acknowledged before the kill; the load premise failed")
	}

	// Promote the follower under fencing token 1.
	resp, err := http.Post("http://"+f.addr+"/v1/promote", "application/json", strings.NewReader(`{"fence":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}

	// Zero certified answers lost or wrong: every acknowledged fact is
	// served by the new primary with its exact label, and certificates
	// re-verify locally in the client.
	fc := client.New("http://" + f.addr)
	for _, ft := range acked {
		l, ok, err := fc.Relation(ctx, ft.n, ft.m)
		if err != nil || !ok || l != ft.label {
			t.Fatalf("acked fact %s->%s lost or wrong after failover: (%d,%v,%v), want (%d,true,nil)",
				ft.n, ft.m, l, ok, err, ft.label)
		}
	}
	if _, err := fc.Explain(ctx, acked[0].n, acked[0].m); err != nil {
		t.Fatalf("certificate after failover: %v", err)
	}
	// The promoted node serves new writes.
	if _, err := fc.Assert(ctx, "after", "failover", 9, "post-failover"); err != nil {
		t.Fatalf("write to the promoted primary: %v", err)
	}

	// Revive the stale primary from its old directory, still configured
	// as primary. Its first replication probe carries the stale token,
	// the follower-turned-primary refuses it with 403, and the revived
	// node steps down.
	p2 := startDaemon(t, "-dir", pdir, "-role", "primary", "-node-name", "p",
		"-peers", "f=http://"+f.addr)
	hc := client.New("http://" + p2.addr)
	deadline := time.Now().Add(5 * time.Second)
	for {
		h, err := hc.Health(ctx)
		if err == nil && h.Role == "follower" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("revived stale primary never demoted itself:\n%s", p2.out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Its client writes are provably rejected with a redirect.
	_, err = hc.Assert(ctx, "stale", "write", 1, "split-brain-attempt")
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusMisdirectedRequest || ae.Body.Error.Kind != "not-primary" {
		t.Fatalf("stale primary write: %v, want 421 not-primary", err)
	}
	// And a replication batch carrying its stale token is refused with
	// the accepted token in the response header.
	req, _ := http.NewRequest(http.MethodPost, "http://"+f.addr+replica.ReplicatePath, nil)
	req.Header.Set(replica.HeaderFence, "0")
	req.Header.Set(replica.HeaderPrevSeq, "0")
	req.Header.Set(replica.HeaderPrevCRC, "0")
	req.Header.Set(replica.HeaderCount, "0")
	rres, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rres.Body.Close()
	if rres.StatusCode != http.StatusForbidden || rres.Header.Get(replica.HeaderFence) != "1" {
		t.Fatalf("stale replicate: status %d fence header %q, want 403 with token 1",
			rres.StatusCode, rres.Header.Get(replica.HeaderFence))
	}
}

// TestLufdPipelinedFailoverNoCertifiedAnswerLost repeats the failover
// acceptance test under the pipelined write path: several concurrent
// writers keep the shipper's send window full (explicit
// -pipeline-depth 4) so the primary dies with multiple batches in
// flight. Acknowledged writes resolve against the follower's
// cumulative durable watermark, so even a kill mid-window may only
// lose unacknowledged writes — every acked fact must survive
// promotion with its exact label and a checking certificate.
func TestLufdPipelinedFailoverNoCertifiedAnswerLost(t *testing.T) {
	fdir, pdir := t.TempDir(), t.TempDir()
	f := startDaemon(t, "-dir", fdir, "-role", "follower", "-node-name", "f")
	p := startDaemon(t, "-dir", pdir, "-role", "primary", "-node-name", "p",
		"-peers", "f=http://"+f.addr, "-sync-replication", "-pipeline-depth", "4", "-lease-ttl", "10s")
	ctx := context.Background()

	type fact struct {
		n, m  string
		label int64
	}
	const writers = 4
	ackedBy := make([][]fact, writers) // slice w is goroutine-owned until wg.Wait
	var wg sync.WaitGroup
	var firstAck atomic.Bool
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := client.New("http://" + p.addr)
			for i := 0; ; i++ {
				// Disjoint node namespaces per writer: no cross-writer
				// conflicts, so every assert is expected to succeed.
				ft := fact{fmt.Sprintf("w%dk%d", w, i), fmt.Sprintf("w%dk%d", w, i+1), int64((w+i)%7 + 1)}
				if _, err := wc.Assert(ctx, ft.n, ft.m, ft.label, fmt.Sprintf("load-%d-%d", w, i)); err != nil {
					return // the primary died mid-load
				}
				ackedBy[w] = append(ackedBy[w], ft)
				firstAck.Store(true)
			}
		}(w)
	}
	waitFirstAck(&firstAck)
	p.stop() // the primary goes away with the pipeline full
	wg.Wait()
	var acked []fact
	for _, part := range ackedBy {
		acked = append(acked, part...)
	}
	if len(acked) == 0 {
		t.Fatal("no write was acknowledged before the kill; the load premise failed")
	}

	resp, err := http.Post("http://"+f.addr+"/v1/promote", "application/json", strings.NewReader(`{"fence":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote: status %d", resp.StatusCode)
	}

	// Zero certified answers lost across every writer's stream, and
	// certificates still re-verify locally in the client.
	fc := client.New("http://" + f.addr)
	for _, ft := range acked {
		l, ok, err := fc.Relation(ctx, ft.n, ft.m)
		if err != nil || !ok || l != ft.label {
			t.Fatalf("acked fact %s->%s lost or wrong after pipelined failover: (%d,%v,%v), want (%d,true,nil)",
				ft.n, ft.m, l, ok, err, ft.label)
		}
	}
	for i := 0; i < len(acked); i += len(acked)/8 + 1 {
		if _, err := fc.Explain(ctx, acked[i].n, acked[i].m); err != nil {
			t.Fatalf("certificate for %s->%s after pipelined failover: %v", acked[i].n, acked[i].m, err)
		}
	}
	if _, err := fc.Assert(ctx, "after", "pipelined-failover", 9, "post-failover"); err != nil {
		t.Fatalf("write to the promoted primary: %v", err)
	}
}
