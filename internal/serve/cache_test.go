package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCacheHitMissCounters(t *testing.T) {
	c := NewCache(64)
	ctx := context.Background()
	calls := 0
	fn := func() (any, error) { calls++; return 42, nil }

	v, cached, err := c.Do(ctx, "k", fn)
	if err != nil || cached || v != 42 {
		t.Fatalf("cold Do = (%v, %v, %v), want (42, false, nil)", v, cached, err)
	}
	v, cached, err = c.Do(ctx, "k", fn)
	if err != nil || !cached || v != 42 {
		t.Fatalf("warm Do = (%v, %v, %v), want (42, true, nil)", v, cached, err)
	}
	if calls != 1 {
		t.Errorf("fn ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, size 1", st)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := NewCache(64)
	ctx := context.Background()
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, error) { calls++; return nil, boom }
	if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if _, _, err := c.Do(ctx, "k", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom on retry", err)
	}
	if calls != 2 {
		t.Errorf("fn ran %d times, want 2 (errors must not stick)", calls)
	}
	if st := c.Stats(); st.Size != 0 {
		t.Errorf("size = %d, want 0", st.Size)
	}
}

// TestCachePanicReleasesFlight: when the leader's fn panics, the panic
// reaches the leader, the flight a follower would wait on is closed
// with errSolvePanicked, and the key is free for the next caller.
func TestCachePanicReleasesFlight(t *testing.T) {
	c := NewCache(64)
	ctx := context.Background()
	inFn, gate := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do(ctx, "k", func() (any, error) {
			close(inFn)
			<-gate
			panic("boom")
		})
	}()
	<-inFn
	c.fmu.Lock()
	call := c.flight["k"]
	c.fmu.Unlock()
	close(gate)
	if r := <-recovered; r == nil {
		t.Error("leader must see fn's panic")
	}
	<-call.done
	if !errors.Is(call.err, errSolvePanicked) {
		t.Errorf("flight err = %v, want errSolvePanicked", call.err)
	}
	v, cached, err := c.Do(ctx, "k", func() (any, error) { return 2, nil })
	if err != nil || cached || v != 2 {
		t.Fatalf("Do after the panic = (%v, %v, %v), want (2, false, nil)", v, cached, err)
	}
}

func TestCacheEviction(t *testing.T) {
	// Capacity 16 = one entry per shard, so a second distinct key on a
	// shard evicts the first.
	c := NewCache(16)
	ctx := context.Background()
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, _, err := c.Do(ctx, key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Size > 16 {
		t.Errorf("size = %d, want <= 16", st.Size)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions past capacity")
	}
	if st.Evictions != st.Misses-int64(st.Size) {
		t.Errorf("evictions = %d, want misses-size = %d", st.Evictions, st.Misses-int64(st.Size))
	}
}

func TestCacheLRUOrder(t *testing.T) {
	c := NewCache(1) // one entry per shard
	// Find two keys on the same shard.
	var a, b string
	shard := c.shardFor("probe")
	for i := 0; a == "" || b == ""; i++ {
		k := fmt.Sprintf("k%d", i)
		if c.shardFor(k) != shard {
			continue
		}
		if a == "" {
			a = k
		} else {
			b = k
		}
	}
	c.put(a, 1)
	c.put(b, 2) // evicts a (cap 1)
	if _, ok := c.get(a); ok {
		t.Error("a should have been evicted")
	}
	if v, ok := c.get(b); !ok || v != 2 {
		t.Errorf("b = (%v, %v), want (2, true)", v, ok)
	}
}

func TestCacheSingleflightCollapse(t *testing.T) {
	c := NewCache(64)
	ctx := context.Background()
	const n = 32

	gate := make(chan struct{})
	leaderStarted := make(chan struct{})
	var startOnce sync.Once
	var execs atomic.Int64
	var wg sync.WaitGroup
	var spared atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, cached, err := c.Do(ctx, "shared", func() (any, error) {
				execs.Add(1)
				startOnce.Do(func() { close(leaderStarted) })
				<-gate
				return "solved", nil
			})
			if err != nil || v != "solved" {
				t.Errorf("Do = (%v, %v)", v, err)
			}
			if cached {
				spared.Add(1)
			}
		}()
	}
	// Let the leader start, then release everyone.
	<-leaderStarted
	close(gate)
	wg.Wait()

	if execs.Load() != 1 {
		t.Errorf("fn executed %d times, want 1 (singleflight)", execs.Load())
	}
	if spared.Load() != n-1 {
		t.Errorf("spared = %d, want %d", spared.Load(), n-1)
	}
}

func TestCacheFollowerHonorsOwnContext(t *testing.T) {
	c := NewCache(64)
	gate := make(chan struct{})
	defer close(gate)
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "k", func() (any, error) {
			close(started)
			<-gate
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Do(ctx, "k", func() (any, error) { return 2, nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("follower err = %v, want context.Canceled", err)
	}
}
