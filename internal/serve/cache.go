package serve

import (
	"container/list"
	"context"
	"errors"
	"hash/fnv"
	"sync"
	"sync/atomic"
)

// Cache is a sharded LRU over solved scenarios with singleflight
// collapsing: concurrent callers of Do with the same key share one
// execution of the solve function, and completed results are retained
// up to the configured capacity. Sharding keeps the LRU bookkeeping off
// the hot path's single lock under concurrent load; the flight table is
// separate and only touched on misses.
type Cache struct {
	shards [cacheShards]*cacheShard

	fmu    sync.Mutex
	flight map[string]*flightCall

	hits      atomic.Int64 // served from the LRU
	shared    atomic.Int64 // collapsed onto another caller's solve
	misses    atomic.Int64 // cold executions of the solve function
	evictions atomic.Int64
}

// cacheShards is the shard count; a power of two so the hash maps onto
// a shard with a mask.
const cacheShards = 16

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	val any
}

type flightCall struct {
	done chan struct{}
	val  any
	err  error
}

// NewCache builds a cache holding about capacity entries across all
// shards (at least one per shard; capacity <= 0 gets a minimal cache
// that still collapses concurrent identical solves).
func NewCache(capacity int) *Cache {
	perShard := (capacity + cacheShards - 1) / cacheShards
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{flight: map[string]*flightCall{}}
	for i := range c.shards {
		c.shards[i] = &cacheShard{
			cap:   perShard,
			ll:    list.New(),
			items: map[string]*list.Element{},
		}
	}
	return c
}

func (c *Cache) shardFor(key string) *cacheShard {
	h := fnv.New32a()
	h.Write([]byte(key))
	return c.shards[h.Sum32()&(cacheShards-1)]
}

// get returns the cached value and bumps its recency.
func (c *Cache) get(key string) (any, bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.items[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).val, true
}

// put inserts a value, evicting from the tail past capacity.
func (c *Cache) put(key string, val any) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[key]; ok {
		el.Value.(*cacheEntry).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.items[key] = s.ll.PushFront(&cacheEntry{key: key, val: val})
	for s.ll.Len() > s.cap {
		tail := s.ll.Back()
		s.ll.Remove(tail)
		delete(s.items, tail.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
}

// Do returns the value for key, either from the LRU, by joining an
// in-flight solve of the same key, or by running fn itself and caching
// the result. The bool reports whether the caller was spared a cold
// solve (LRU hit or collapsed flight). Followers joining a flight
// inherit the leader's result — including its error — unless their own
// ctx ends first; errors are never cached.
func (c *Cache) Do(ctx context.Context, key string, fn func() (any, error)) (any, bool, error) {
	if v, ok := c.get(key); ok {
		c.hits.Add(1)
		return v, true, nil
	}
	c.fmu.Lock()
	if call, ok := c.flight[key]; ok {
		c.fmu.Unlock()
		select {
		case <-call.done:
			if call.err != nil {
				return nil, false, call.err
			}
			c.shared.Add(1)
			return call.val, true, nil
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	// Re-check the LRU under the flight lock: a leader that finished
	// between our first lookup and here has already published its value
	// (put precedes the flight entry's deletion), so this guarantees a
	// key is cold-solved exactly once.
	if v, ok := c.get(key); ok {
		c.fmu.Unlock()
		c.hits.Add(1)
		return v, true, nil
	}
	call := &flightCall{done: make(chan struct{})}
	c.flight[key] = call
	c.fmu.Unlock()

	c.misses.Add(1)
	// Release the flight even if fn panics, so the key is not left
	// claimed by a solve that will never finish: followers then get
	// errSolvePanicked, which fn's own result replaces when it returns,
	// and the panic propagates to the caller.
	call.err = errSolvePanicked
	defer func() {
		c.fmu.Lock()
		delete(c.flight, key)
		c.fmu.Unlock()
		close(call.done)
	}()
	call.val, call.err = fn()
	if call.err == nil {
		c.put(key, call.val)
	}
	return call.val, false, call.err
}

// errSolvePanicked is what followers of a flight whose solve panicked
// receive.
var errSolvePanicked = errors.New("serve: solve panicked")

// CacheStats is a point-in-time copy of the cache counters.
type CacheStats struct {
	Hits      int64 // LRU hits
	Shared    int64 // singleflight-collapsed requests
	Misses    int64 // cold solves executed
	Evictions int64
	Size      int // entries currently held
}

// HitRatio is (hits + shared) / total lookups, the fraction of requests
// spared a cold solve.
func (s CacheStats) HitRatio() float64 {
	total := s.Hits + s.Shared + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits+s.Shared) / float64(total)
}

// Stats snapshots the counters and current size.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Shared:    c.shared.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
	for _, s := range c.shards {
		s.mu.Lock()
		st.Size += s.ll.Len()
		s.mu.Unlock()
	}
	return st
}
