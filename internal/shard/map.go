// Package shard partitions the labeled-union-find node space across
// replica groups and keeps the paper's invariants intact when a union
// spans two of them.
//
// A static shard Map assigns every node id to one replica group (each
// group is the existing primary/follower stack, unchanged) by hashing
// the node id. Single-shard operations route directly to the owner
// group. A cross-shard union runs as a crash-safe two-phase certified
// operation driven by the Coordinator:
//
//  1. the coordinator durably records a fenced intent (its intents.luf
//     wal.DecisionLog, presumed abort) before any participant hears
//     about it;
//  2. both owner groups vote on /v1/2pc/prepare — a yes vote reserves
//     the prepare window against conflicting client writes;
//  3. the commit decision is fsynced, then the bridge edge
//     n --label--> m is asserted on *both* groups through the ordinary
//     idempotent assert path, its reason carrying the intent seq and
//     coordinator epoch;
//  4. a done record retires the intent.
//
// Every partial state is recoverable: a coordinator crash before the
// commit record rolls the intent back on restart (presumed abort); a
// crash after it re-drives the idempotent bridge asserts until both
// shards hold the edge; participants whose reservation TTL lapses
// re-probe the coordinator with backoff; a restarted coordinator runs
// under a higher fencing epoch, so participants reject its
// predecessor's leftovers.
//
// Cross-shard queries answer from the composition of per-shard
// segments: the router walks committed bridge edges between groups,
// fetches one certificate chain per shard, and concatenates them into
// a single certificate the unmodified independent checker (cert.Check)
// verifies end-to-end before it is served.
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"

	"luf/internal/fault"
)

// Group is one replica group of the shard map: a name and the base
// URLs of its member nodes (primary first by convention; the cluster
// client re-discovers the real primary through 421 hints).
type Group struct {
	// Name is the group's unique shard-map name.
	Name string `json:"name"`
	// Nodes are the group members' client-facing base URLs.
	Nodes []string `json:"nodes"`
}

// Map is a static shard map: an ordered list of replica groups. A node
// id is owned by exactly one group, chosen by hash; every router and
// client working against the same Map file agrees on ownership.
type Map struct {
	// Groups are the replica groups in ownership order. The order is
	// part of the map's identity: reordering groups reassigns nodes.
	Groups []Group `json:"groups"`
}

// ParseMap decodes and validates a shard map from its JSON form:
//
//	{"groups": [{"name": "alpha", "nodes": ["http://a1:8080", ...]}, ...]}
func ParseMap(data []byte) (Map, error) {
	var m Map
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fault.Invalidf("shard map: %v", err)
	}
	if err := m.Validate(); err != nil {
		return m, err
	}
	return m, nil
}

// LoadMap reads and validates a shard map file.
func LoadMap(path string) (Map, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Map{}, fault.IOf("shard map %s: %v", path, err)
	}
	m, err := ParseMap(data)
	if err != nil {
		return m, fmt.Errorf("shard map %s: %w", path, err)
	}
	return m, nil
}

// Validate checks the structural invariants: at least one group, every
// group named uniquely and holding at least one node URL.
func (m Map) Validate() error {
	if len(m.Groups) == 0 {
		return fault.Invalidf("shard map has no groups")
	}
	seen := map[string]bool{}
	for i, g := range m.Groups {
		if g.Name == "" {
			return fault.Invalidf("shard map group %d has no name", i)
		}
		if seen[g.Name] {
			return fault.Invalidf("shard map group name %q is duplicated", g.Name)
		}
		seen[g.Name] = true
		if len(g.Nodes) == 0 {
			return fault.Invalidf("shard map group %q has no nodes", g.Name)
		}
		for j, u := range g.Nodes {
			if u == "" {
				return fault.Invalidf("shard map group %q node %d is empty", g.Name, j)
			}
		}
	}
	return nil
}

// Owner returns the index of the group owning node id — FNV-1a over
// the id modulo the group count, so every participant with the same
// Map file computes the same owner with no coordination.
func (m Map) Owner(node string) int {
	h := fnv.New64a()
	_, _ = h.Write([]byte(node))
	return int(h.Sum64() % uint64(len(m.Groups)))
}

// OwnerGroup returns the group owning node id.
func (m Map) OwnerGroup(node string) Group { return m.Groups[m.Owner(node)] }

// Index returns the position of the named group, or -1.
func (m Map) Index(name string) int {
	for i, g := range m.Groups {
		if g.Name == name {
			return i
		}
	}
	return -1
}

// Names returns the group names in ownership order.
func (m Map) Names() []string {
	out := make([]string, len(m.Groups))
	for i, g := range m.Groups {
		out[i] = g.Name
	}
	return out
}

// SampleOwned returns up to want node ids of the form prefix-K owned by
// group gi — the deterministic helper benches and tests use to build
// single-shard and cross-shard workloads without guessing at the hash.
func (m Map) SampleOwned(gi, want int, prefix string) []string {
	var out []string
	for k := 0; len(out) < want && k < want*len(m.Groups)*64; k++ {
		id := fmt.Sprintf("%s-%d", prefix, k)
		if m.Owner(id) == gi {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}
