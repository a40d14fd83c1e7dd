// Package cache provides the serving layer's content-addressed result
// cache: a bounded LRU keyed by source hash, with singleflight
// deduplication so that N concurrent requests for the same key trigger
// exactly one computation while the other N-1 wait for its result.
//
// The cache is value-agnostic (the server stores analysis results, but
// nothing here knows what an analysis is) and safe for concurrent use.
// Failed computations are never cached: the error is delivered to the
// leader and every waiter of that flight, and the next request retries.
// A computation that panics fails its flight the same way, so no key
// is left waiting on a flight that will never finish.
package cache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"sideeffect/internal/batch"
)

// Key returns the content address of a source text: the hex SHA-256 of
// its bytes. Two requests carrying the same program text — whitespace
// and all — share one cache entry.
func Key(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:])
}

// Outcome classifies how a Do call was served.
type Outcome int

// Do outcomes.
const (
	// Miss: the value was absent and this call computed it.
	Miss Outcome = iota
	// Hit: the value was served from the cache.
	Hit
	// Dedup: another call was already computing the value; this call
	// waited for it instead of recomputing.
	Dedup
)

// String renders the outcome.
func (o Outcome) String() string {
	switch o {
	case Hit:
		return "hit"
	case Dedup:
		return "dedup"
	default:
		return "miss"
	}
}

// Stats is a snapshot of the cache counters. Hits counts Do calls
// served from the map, Misses counts calls that had to compute, Dedups
// counts calls collapsed into another flight, and Evictions counts LRU
// removals.
type Stats struct {
	Hits, Misses, Dedups, Evictions int64
	// Corruptions counts entries the validation hook rejected: each was
	// evicted on lookup and the access degraded to a miss, so a corrupt
	// entry is recomputed rather than served.
	Corruptions int64
	Entries     int
}

// Cache is a bounded LRU of computed values keyed by content address.
type Cache[V any] struct {
	// Validate, when non-nil, is consulted on every lookup that would
	// serve a stored value: if it reports false the entry is evicted,
	// counted in Stats.Corruptions, and Do recomputes it as a miss. It
	// guards the serving layer against corrupted cached results —
	// detection is cheap (an integrity hash check) next to serving a
	// wrong answer. Set it before the cache is shared between
	// goroutines; it is called with the cache lock held and must not
	// call back into the cache.
	Validate func(key string, val V) bool

	mu       sync.Mutex
	max      int
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*flight[V]
	stats    Stats
}

type entry[V any] struct {
	key string
	val V
}

type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New creates a cache holding at most maxEntries values. Requests for
// maxEntries < 1 are clamped to 1 — a cache that cannot hold anything
// would turn every Do into a miss while still paying for bookkeeping.
func New[V any](maxEntries int) *Cache[V] {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache[V]{
		max:      maxEntries,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*flight[V]),
	}
}

// valid checks el against the validation hook under c.mu, evicting it
// on rejection.
func (c *Cache[V]) valid(el *list.Element) bool {
	e := el.Value.(*entry[V])
	if c.Validate == nil || c.Validate(e.key, e.val) {
		return true
	}
	c.stats.Corruptions++
	c.ll.Remove(el)
	delete(c.entries, e.key)
	return false
}

// Put stores a value, evicting the least recently used entry if the
// cache is full. Storing an existing key refreshes its value and
// recency. Put does not touch the hit/miss counters (the caller
// already accounted for the lookup that preceded it).
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(key, val)
}

// put inserts under c.mu.
func (c *Cache[V]) put(key string, val V) {
	if el, ok := c.entries[key]; ok {
		el.Value.(*entry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		e := oldest.Value.(*entry[V])
		delete(c.entries, e.key)
		c.stats.Evictions++
	}
}

// Do returns the value for key, computing it with compute on a miss.
// Concurrent Do calls for the same key are collapsed: one caller (the
// leader) runs compute, the rest wait for it to finish and share its
// value or error. A waiter whose ctx ends first returns ctx.Err(); the
// flight goes on for the others. Errors are not cached, so a later Do
// retries. A compute that panics fails its flight with an error
// wrapping *batch.PanicError, delivered to the leader and every waiter.
// compute runs without the cache lock held, so unrelated keys proceed
// in parallel.
func (c *Cache[V]) Do(ctx context.Context, key string, compute func() (V, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok && c.valid(el) {
		c.stats.Hits++
		c.ll.MoveToFront(el)
		val := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return val, Hit, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.stats.Dedups++
		c.mu.Unlock()
		select {
		case <-fl.done:
			return fl.val, Dedup, fl.err
		case <-ctx.Done():
			var zero V
			return zero, Dedup, ctx.Err()
		}
	}
	fl := &flight[V]{done: make(chan struct{})}
	c.inflight[key] = fl
	c.stats.Misses++
	c.mu.Unlock()

	fl.val, fl.err = run(compute)

	c.mu.Lock()
	delete(c.inflight, key)
	if fl.err == nil {
		c.put(key, fl.val)
	}
	c.mu.Unlock()
	close(fl.done)
	return fl.val, Miss, fl.err
}

// run calls compute, returning a panic in it as an error.
func run[V any](compute func() (V, error)) (val V, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			var zero V
			val, err = zero, fmt.Errorf("cache: compute failed: %w", batch.Capture(rec))
		}
	}()
	return compute()
}

// KV pairs one stored key with its value, as returned by Snapshot.
type KV[V any] struct {
	Key string
	Val V
}

// Snapshot returns every cached entry in recency order (most recently
// used first), without touching the hit/miss counters or recency. The
// checkpoint exporter renders from it outside the lock; an entry
// evicted mid-export stays readable through the returned slice.
func (c *Cache[V]) Snapshot() []KV[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]KV[V], 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry[V])
		out = append(out, KV[V]{Key: e.key, Val: e.val})
	}
	return out
}

// Contains reports whether key is currently stored, without counting
// the lookup, bumping recency, or validating. The watch-mode indexer
// uses it to classify already-known content (renames, restarts) as
// warm without disturbing the LRU.
func (c *Cache[V]) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = c.ll.Len()
	return s
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
