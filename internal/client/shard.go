package client

import (
	"context"
	"errors"
	"net/http"
	"net/url"

	"luf/internal/cert"
	"luf/internal/fault"
	"luf/internal/group"
	"luf/internal/server"
	"luf/internal/shard"
)

// DialGroup opens a failover-aware Cluster to one shard-map replica
// group — the Dial function a shard.Coordinator is configured with.
func DialGroup(g shard.Group) shard.Conn {
	return NewCluster(g.Nodes...)
}

// ShardCluster routes operations across a sharded deployment: ops whose
// nodes share one owner group go straight to that group's
// failover-aware cluster client, everything spanning two groups goes
// through the coordinator. Certificates fetched through the coordinator
// are re-verified locally with the independent checker, exactly like
// single-group answers — the extra hop earns no extra trust.
type ShardCluster struct {
	m      shard.Map
	vm     *shard.VersionedMap
	groups []*Cluster
	coord  *Client
}

// NewShardCluster returns a shard-map-aware client: one failover
// cluster per replica group plus a client to the coordinator at
// coordinatorURL. Routing consults a versioned map view (hash
// ownership plus migration overrides) that refreshes itself from the
// coordinator whenever a write is fenced with a stale-map 403.
func NewShardCluster(m shard.Map, coordinatorURL string) (*ShardCluster, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	sc := &ShardCluster{m: m, vm: shard.NewVersionedMap(m), coord: New(coordinatorURL)}
	sc.coord.StaleOK = true // the coordinator has no session semantics
	for _, g := range m.Groups {
		sc.groups = append(sc.groups, NewCluster(g.Nodes...))
	}
	return sc, nil
}

// Map returns the static shard map this client routes by.
func (sc *ShardCluster) Map() shard.Map { return sc.m }

// MapEpoch returns the epoch of the client's current map view.
func (sc *ShardCluster) MapEpoch() uint64 { return sc.vm.Epoch() }

// RefreshMap fetches the coordinator's versioned shard map and installs
// it (no-op when the fetched epoch is not newer than the held one).
func (sc *ShardCluster) RefreshMap(ctx context.Context) error {
	var view shard.MapView
	if err := sc.coord.do(ctx, http.MethodGet, shard.MapPath, nil, &view); err != nil {
		return err
	}
	sc.vm.Install(view)
	return nil
}

// staleMap reports whether err is a migration fence telling this client
// its map view is stale: a 403 carrying a new-owner hint (the node's
// class migrated away), or a map-epoch hint above the held view.
func (sc *ShardCluster) staleMap(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	d := ae.Detail()
	if ae.Status == http.StatusForbidden && d.NewOwner != "" {
		return true
	}
	return d.MapEpoch > sc.vm.Epoch()
}

// Assert asserts m - n = label: direct to the owner group when both
// nodes share one, through the coordinator's two-phase union when they
// do not. A stale-map fence (403 with a new-owner hint from a group
// the class migrated off) refreshes the versioned map from the
// coordinator and re-routes once.
func (sc *ShardCluster) Assert(ctx context.Context, n, m string, label int64, reason string) (shard.UnionResult, error) {
	out, err := sc.assertOnce(ctx, n, m, label, reason)
	if err != nil && sc.staleMap(err) {
		if rerr := sc.RefreshMap(ctx); rerr == nil {
			return sc.assertOnce(ctx, n, m, label, reason)
		}
	}
	return out, err
}

func (sc *ShardCluster) assertOnce(ctx context.Context, n, m string, label int64, reason string) (shard.UnionResult, error) {
	ga, gb := sc.vm.Owner(n), sc.vm.Owner(m)
	if ga == gb {
		if _, err := sc.groups[ga].Assert(ctx, n, m, label, reason); err != nil {
			return shard.UnionResult{}, err
		}
		return shard.UnionResult{OK: true, SameShard: true, Groups: []string{sc.m.Groups[ga].Name}}, nil
	}
	var out shard.UnionResult
	err := sc.coord.do(ctx, http.MethodPost, shard.UnionPath,
		shard.UnionRequest{N: n, M: m, Label: label, Reason: reason}, &out)
	return out, err
}

// Relation answers n ~ m. Same-owner pairs try their group directly (no
// coordinator hop); a "not related" from the group alone is not final —
// two nodes of one shard can be related through a path that leaves the
// shard and comes back — so it falls through to the coordinator's
// bridge router, which every cross-owner pair uses from the start.
func (sc *ShardCluster) Relation(ctx context.Context, n, m string) (int64, bool, error) {
	ga, gb := sc.vm.Owner(n), sc.vm.Owner(m)
	if ga == gb {
		if label, related, err := sc.groups[ga].Relation(ctx, n, m); err != nil || related {
			return label, related, err
		}
	}
	var out server.RelationResponse
	err := sc.coord.do(ctx, http.MethodGet, "/v1/relation?"+url.Values{"n": {n}, "m": {m}}.Encode(), nil, &out)
	return out.Label, out.Related, err
}

// Explain fetches the certificate for n ~ m — the coordinator's
// stitched cross-shard chain when the nodes live on different shards —
// and re-verifies it locally with the unmodified independent checker
// before returning it.
func (sc *ShardCluster) Explain(ctx context.Context, n, m string) (cert.Certificate[string, int64], error) {
	ga, gb := sc.vm.Owner(n), sc.vm.Owner(m)
	if ga == gb {
		// Serve the in-group certificate when the group itself relates the
		// pair; otherwise the path (if any) crosses shards and only the
		// coordinator can stitch it.
		if _, related, err := sc.groups[ga].Relation(ctx, n, m); err == nil && related {
			return sc.groups[ga].Explain(ctx, n, m)
		}
	}
	var out server.ExplainResponse
	if err := sc.coord.do(ctx, http.MethodGet, "/v1/explain?"+url.Values{"n": {n}, "m": {m}}.Encode(), nil, &out); err != nil {
		return cert.Certificate[string, int64]{}, err
	}
	if err := cert.Check(out.Cert, group.Delta{}); err != nil {
		return out.Cert, fault.Invariantf("stitched certificate failed local verification: %v", err)
	}
	return out.Cert, nil
}

// Stats fetches the coordinator's per-shard stats.
func (sc *ShardCluster) Stats(ctx context.Context) (shard.Stats, error) {
	var out shard.Stats
	err := sc.coord.do(ctx, http.MethodGet, "/v1/stats", nil, &out)
	return out, err
}
