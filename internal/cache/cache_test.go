package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

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
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes the oldest
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived: eviction is not least-recently-used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("recently used a was evicted")
	}
	if _, ok := c.Get("c"); !ok {
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
	if _, out, _ := c.Do("k", compute); out != Miss {
		t.Errorf("first Do = %v, want miss", out)
	}
	for i := 0; i < 3; i++ {
		if _, out, _ := c.Do("k", compute); out != Hit {
			t.Errorf("repeat Do = %v, want hit", out)
		}
	}
	if _, ok := c.Get("absent"); ok {
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
	if _, _, err := c.Do("k", fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := c.Do("k", fail); !errors.Is(err, boom) {
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
			v, out, err := c.Do("k", compute)
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
		c.Do("slow", func() (int, error) {
			close(slowStarted)
			<-release
			return 1, nil
		})
	}()
	<-slowStarted
	done := make(chan struct{})
	go func() {
		if _, out, _ := c.Do("fast", func() (int, error) { return 2, nil }); out != Miss {
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
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v before corruption", v, ok)
	}
	corrupt["a"] = true
	if _, ok := c.Get("a"); ok {
		t.Fatal("corrupt entry served by Get")
	}
	if s := c.Stats(); s.Corruptions != 1 || s.Entries != 1 {
		t.Fatalf("after corrupt Get: %+v", s)
	}
	// Do must recompute a corrupt entry, not serve it.
	corrupt["b"] = true
	v, out, err := c.Do("b", func() (int, error) { return 20, nil })
	if err != nil || v != 20 || out != Miss {
		t.Fatalf("Do over corrupt entry = %d, %v, %v", v, out, err)
	}
	corrupt["b"] = false
	if v, ok := c.Get("b"); !ok || v != 20 {
		t.Fatalf("recomputed entry not cached: %d, %v", v, ok)
	}
	if s := c.Stats(); s.Corruptions != 2 {
		t.Fatalf("Corruptions = %d, want 2", s.Corruptions)
	}
	// A nil validator (the default) never rejects.
	c.Validate = nil
	corrupt["b"] = true
	if _, ok := c.Get("b"); !ok {
		t.Fatal("nil validator rejected an entry")
	}
}
