package cache

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sideeffect/internal/batch"
)

var errAbsent = errors.New("absent")

// lookup serves key through Do with a compute that fails, so it
// reports a stored value as a hit and counts an absent key as a miss
// without inserting anything.
func lookup[V any](c *Cache[V], key string) (V, bool) {
	v, out, err := c.Do(context.Background(), key, func() (V, error) {
		var zero V
		return zero, errAbsent
	})
	return v, err == nil && out == Hit
}

// waitDedups waits until n Do calls have joined another flight.
func waitDedups[V any](t *testing.T, c *Cache[V], n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Dedups < n {
		if time.Now().After(deadline) {
			t.Fatalf("no waiter joined the flight: %+v", c.Stats())
		}
		runtime.Gosched()
	}
}

func TestKeyIsContentAddressed(t *testing.T) {
	if Key("a") == Key("b") {
		t.Error("different content, same key")
	}
	if Key("same") != Key("same") {
		t.Error("same content, different key")
	}
	if len(Key("")) != 64 {
		t.Errorf("key length %d, want 64 hex chars", len(Key("")))
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := lookup(c, "a"); !ok { // refresh a: b becomes the oldest
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := lookup(c, "b"); ok {
		t.Error("b survived: eviction is not least-recently-used")
	}
	if _, ok := lookup(c, "a"); !ok {
		t.Error("recently used a was evicted")
	}
	if _, ok := lookup(c, "c"); !ok {
		t.Error("newest entry c was evicted")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	// Filling far past capacity keeps exactly max entries and counts
	// every removal.
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprint("k", i), i)
	}
	if c.Len() != 2 {
		t.Errorf("len = %d, want 2", c.Len())
	}
	if s := c.Stats(); s.Evictions != 1+10 {
		t.Errorf("evictions = %d, want 11", s.Evictions)
	}
}

func TestHitMissAccounting(t *testing.T) {
	c := New[string](4)
	compute := func() (string, error) { return "v", nil }
	if _, out, _ := c.Do(context.Background(), "k", compute); out != Miss {
		t.Errorf("first Do = %v, want miss", out)
	}
	for i := 0; i < 3; i++ {
		if _, out, _ := c.Do(context.Background(), "k", compute); out != Hit {
			t.Errorf("repeat Do = %v, want hit", out)
		}
	}
	if _, ok := lookup(c, "absent"); ok { // an absent key counts a miss
		t.Error("absent key found")
	}
	s := c.Stats()
	if s.Hits != 3 || s.Misses != 2 || s.Dedups != 0 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 3 hits / 2 misses / 0 dedups / 1 entry", s)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New[int](4)
	calls := 0
	boom := errors.New("boom")
	fail := func() (int, error) { calls++; return 0, boom }
	if _, _, err := c.Do(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.Do(context.Background(), "k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Errorf("failed compute ran %d times, want 2 (errors must not be cached)", calls)
	}
	if c.Len() != 0 {
		t.Error("error value was cached")
	}
}

// TestSingleflightCollapses is the satellite's race-enabled guarantee:
// N concurrent Do calls for one key run the computation exactly once.
func TestSingleflightCollapses(t *testing.T) {
	const n = 32
	c := New[int](4)
	var computes atomic.Int64
	var entered atomic.Int64
	compute := func() (int, error) {
		computes.Add(1)
		// Hold the flight open until every goroutine has at least
		// reached Do, so most of them dedup against this flight.
		for entered.Load() < n {
		}
		return 42, nil
	}
	var wg sync.WaitGroup
	outcomes := make([]Outcome, n)
	vals := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entered.Add(1)
			v, out, err := c.Do(context.Background(), "k", compute)
			if err != nil {
				t.Error(err)
			}
			vals[i], outcomes[i] = v, out
		}(i)
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("computation ran %d times for %d concurrent requests, want 1", got, n)
	}
	misses := 0
	for i, out := range outcomes {
		if vals[i] != 42 {
			t.Errorf("request %d got %d", i, vals[i])
		}
		if out == Miss {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d leaders, want exactly 1", misses)
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits+s.Dedups != n-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits+dedups", s, n-1)
	}
}

// Unrelated keys must not serialize behind one key's computation.
func TestDoUnrelatedKeysProceed(t *testing.T) {
	c := New[int](4)
	release := make(chan struct{})
	slowStarted := make(chan struct{})
	go func() {
		c.Do(context.Background(), "slow", func() (int, error) {
			close(slowStarted)
			<-release
			return 1, nil
		})
	}()
	<-slowStarted
	done := make(chan struct{})
	go func() {
		if _, out, _ := c.Do(context.Background(), "fast", func() (int, error) { return 2, nil }); out != Miss {
			t.Errorf("fast Do = %v, want miss", out)
		}
		close(done)
	}()
	<-done // completes while "slow" still holds its flight
	close(release)
}

func TestValidateEvictsCorruptEntries(t *testing.T) {
	corrupt := map[string]bool{}
	c := New[int](8)
	c.Validate = func(key string, val int) bool { return !corrupt[key] }

	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := lookup(c, "a"); !ok || v != 1 {
		t.Fatalf("lookup(a) = %d, %v before corruption", v, ok)
	}
	corrupt["a"] = true
	if _, ok := lookup(c, "a"); ok {
		t.Fatal("corrupt entry served")
	}
	if s := c.Stats(); s.Corruptions != 1 || s.Entries != 1 {
		t.Fatalf("after corrupt lookup: %+v", s)
	}
	// Do must recompute a corrupt entry, not serve it.
	corrupt["b"] = true
	v, out, err := c.Do(context.Background(), "b", func() (int, error) { return 20, nil })
	if err != nil || v != 20 || out != Miss {
		t.Fatalf("Do over corrupt entry = %d, %v, %v", v, out, err)
	}
	corrupt["b"] = false
	if v, ok := lookup(c, "b"); !ok || v != 20 {
		t.Fatalf("recomputed entry not cached: %d, %v", v, ok)
	}
	if s := c.Stats(); s.Corruptions != 2 {
		t.Fatalf("Corruptions = %d, want 2", s.Corruptions)
	}
	// A nil validator (the default) never rejects.
	c.Validate = nil
	corrupt["b"] = true
	if _, ok := lookup(c, "b"); !ok {
		t.Fatal("nil validator rejected an entry")
	}
}

// TestPanickingComputeFailsItsFlight: a compute that panics still
// closes its flight. The leader and a waiter each get an error wrapping
// *batch.PanicError, and the next Do for the key computes again.
func TestPanickingComputeFailsItsFlight(t *testing.T) {
	c := New[int](4)
	ctx := context.Background()
	entered, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (int, error) {
			close(entered)
			<-release
			panic("compute bug")
		})
		errs <- err
	}()
	<-entered
	go func() {
		_, _, err := c.Do(ctx, "k", func() (int, error) { return 0, errors.New("waiter computed") })
		errs <- err
	}()
	waitDedups(t, c, 1)
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			var pe *batch.PanicError
			if !errors.As(err, &pe) || pe.Value != "compute bug" {
				t.Errorf("Do after a panicking compute = %v, want a *batch.PanicError", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Do is still blocked on the panicked flight")
		}
	}
	next := make(chan error, 1)
	go func() {
		v, out, err := c.Do(ctx, "k", func() (int, error) { return 7, nil })
		if err == nil && (v != 7 || out != Miss) {
			err = fmt.Errorf("got %d, %v; want 7, miss", v, out)
		}
		next <- err
	}()
	select {
	case err := <-next:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the next Do is blocked on the panicked flight")
	}
	if s := c.Stats(); s.Misses != 2 || s.Dedups != 1 || s.Entries != 1 {
		t.Errorf("stats = %+v, want 2 misses, 1 dedup, 1 entry", s)
	}
}

// TestWaiterContextEnds: a waiter whose context ends returns ctx.Err()
// while the leader is still computing, and the flight finishes for the
// leader and lands in the cache.
func TestWaiterContextEnds(t *testing.T) {
	c := New[int](4)
	entered, release := make(chan struct{}), make(chan struct{})
	leader := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "k", func() (int, error) {
			close(entered)
			<-release
			return 1, nil
		})
		leader <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.Do(ctx, "k", func() (int, error) { return 0, errors.New("waiter computed") })
		waiter <- err
	}()
	waitDedups(t, c, 1)
	cancel()
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled waiter = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter still blocked behind the leader")
	}
	close(release)
	if err := <-leader; err != nil {
		t.Fatal(err)
	}
	if v, ok := lookup(c, "k"); !ok || v != 1 {
		t.Errorf("leader's value not cached: %d, %v", v, ok)
	}
}
