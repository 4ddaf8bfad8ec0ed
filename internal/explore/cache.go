package explore

import (
	"container/list"
	"context"
	"encoding/binary"
	"sync"

	"repro/internal/bitvec"
	"repro/internal/fault"
)

// DefaultCacheCapacity bounds a CachedOracle's memo table. Each entry is
// one pattern (a few dozen bytes) plus a float64, so the default is cheap;
// converged policies typically replay far fewer distinct patterns.
const DefaultCacheCapacity = 4096

// CacheConfig tunes oracle memoization in a session.
type CacheConfig struct {
	// Disable turns memoization off (ablation fidelity: every episode
	// pays the full simulation cost, as in the paper's timing runs).
	Disable bool
	// Capacity bounds the per-oracle LRU (default DefaultCacheCapacity).
	Capacity int
}

// CacheStats counts memoization traffic.
type CacheStats struct {
	Hits, Misses, Evictions uint64
}

// Add accumulates another oracle's counters.
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
}

// HitRate returns the fraction of lookups served from the cache.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Rounder is implemented by oracles whose leakage depends on an injection
// round (AssessorOracle, countermeasure.Oracle); CachedOracle folds the
// round into its keys so one cache never conflates rounds.
type Rounder interface {
	InjectionRound() int
}

type cacheEntry struct {
	key string
	t   float64
}

// CachedOracle memoizes an Oracle's Evaluate results in a bounded LRU
// keyed by pattern bytes (plus the injection round when the inner oracle
// implements Rounder). Memoization is exact because engine-backed oracles
// are pure functions of (seed, pattern, round): a converged policy that
// replays its terminal pattern pays zero simulation cost.
//
// Sessions construct one CachedOracle per environment (see NewSession),
// so the normal training path is contention-free; the mutex exists so
// that a cache shared across goroutines — vectorized envs handed one
// oracle instance, or an external caller probing Stats mid-run — is a
// performance decision, not a data race. Note the lock is held across the
// inner Evaluate: concurrent lookups of the same missing key serialize
// rather than duplicating a multi-second campaign.
type CachedOracle struct {
	inner    Oracle
	capacity int

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recent; values are *cacheEntry
	stats   CacheStats
}

var _ Oracle = (*CachedOracle)(nil)

// NewCachedOracle wraps inner with a memo table of the given capacity
// (0 selects DefaultCacheCapacity).
func NewCachedOracle(inner Oracle, capacity int) *CachedOracle {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &CachedOracle{
		inner:    inner,
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		lru:      list.New(),
	}
}

// Stats returns the current memoization counters.
func (c *CachedOracle) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

func (c *CachedOracle) key(pattern *bitvec.Vector, model fault.Model) string {
	b := pattern.Bytes()
	k := make([]byte, 5+len(b))
	round := 0
	if r, ok := c.inner.(Rounder); ok {
		round = r.InjectionRound()
	}
	binary.LittleEndian.PutUint32(k, uint32(round))
	k[4] = byte(model)
	copy(k[5:], b)
	return string(k)
}

// Evaluate implements Oracle, serving repeated (pattern, model) pairs from
// the cache.
func (c *CachedOracle) Evaluate(ctx context.Context, pattern *bitvec.Vector, model fault.Model) (float64, error) {
	k := c.key(pattern, model)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.stats.Hits++
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).t, nil
	}
	c.stats.Misses++
	t, err := c.inner.Evaluate(ctx, pattern, model)
	if err != nil {
		return 0, err
	}
	c.entries[k] = c.lru.PushFront(&cacheEntry{key: k, t: t})
	if c.lru.Len() > c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.stats.Evictions++
	}
	return t, nil
}

// StateBits implements Oracle.
func (c *CachedOracle) StateBits() int { return c.inner.StateBits() }

// Threshold implements Oracle.
func (c *CachedOracle) Threshold() float64 { return c.inner.Threshold() }

// InjectionRound forwards the inner oracle's round when it has one, so
// stacking wrappers keeps keys intact.
func (c *CachedOracle) InjectionRound() int {
	if r, ok := c.inner.(Rounder); ok {
		return r.InjectionRound()
	}
	return 0
}
