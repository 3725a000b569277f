package replica

import (
	"sync"
	"time"
)

// Lease is the time bound on a primary's right to accept writes. It is
// renewed every time a follower acknowledges shipped records (the
// acknowledgement proves the follower still recognizes this primary's
// fencing token), and it starts expired: a freshly started or revived
// primary must first be acknowledged by a follower before it may
// accept a single write. A primary whose lease lapses — partitioned
// from every follower, paused, or fenced off — refuses writes until
// renewed, so two nodes can never both accept writes long enough to
// matter: the stale one's shipped records are fenced, its lease never
// renews, and it steps down.
type Lease struct {
	mu      sync.Mutex
	ttl     time.Duration
	now     func() time.Time
	expires time.Time
}

// NewLease returns a lease with the given TTL, starting expired.
func NewLease(ttl time.Duration) *Lease {
	return &Lease{ttl: ttl, now: time.Now}
}

// Renew extends the lease by its TTL from now.
func (l *Lease) Renew() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expires = l.now().Add(l.ttl)
}

// Valid reports whether the lease is currently held.
func (l *Lease) Valid() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.now().Before(l.expires)
}

// Expire forces the lease to lapse immediately (demotion).
func (l *Lease) Expire() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.expires = time.Time{}
}
