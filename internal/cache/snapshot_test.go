package cache

import (
	"reflect"
	"testing"
)

// TestSnapshotRecencyOrderAndRefs pins the checkpoint exporter's
// contract: Snapshot returns every entry most-recently-used first, as
// references to the stored values rather than copies, and disturbs
// neither the counters nor the eviction order.
func TestSnapshotRecencyOrderAndRefs(t *testing.T) {
	c := New[*int](8)
	a, b, cv := new(int), new(int), new(int)
	c.Put("a", a)
	c.Put("b", b)
	c.Put("c", cv)
	lookup(c, "a") // a becomes most recently used

	before := c.Stats()
	snap := c.Snapshot()
	var keys []string
	for _, kv := range snap {
		keys = append(keys, kv.Key)
	}
	if want := []string{"a", "c", "b"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("Snapshot order = %v, want %v", keys, want)
	}
	for i, want := range []*int{a, cv, b} {
		if snap[i].Val != want {
			t.Errorf("Snapshot[%d] (%s) is not the stored value", i, snap[i].Key)
		}
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Errorf("Snapshot moved counters: %+v → %+v", before, after)
	}

	// Recency untouched: the next eviction removes b (oldest), not a.
	c2 := New[int](3)
	c2.Put("a", 1)
	c2.Put("b", 2)
	c2.Put("c", 3)
	lookup(c2, "a")
	c2.Snapshot()
	c2.Put("d", 4)
	if _, ok := lookup(c2, "b"); ok {
		t.Error("LRU victim after Snapshot was not b")
	}
	if _, ok := lookup(c2, "a"); !ok {
		t.Error("Snapshot disturbed recency of a")
	}
}

// TestContainsIsInert pins Contains: membership only — no counters, no
// recency bump, no validation.
func TestContainsIsInert(t *testing.T) {
	c := New[int](2)
	validated := 0
	c.Validate = func(string, int) bool { validated++; return true }

	c.Put("a", 1)
	c.Put("b", 2)
	before := c.Stats()

	if !c.Contains("a") || !c.Contains("b") || c.Contains("nope") {
		t.Error("Contains membership wrong")
	}
	if validated != 0 {
		t.Error("Contains ran validation")
	}
	after := c.Stats()
	if after != before {
		t.Errorf("Contains moved stats: %+v → %+v", before, after)
	}

	// No recency bump: a is still the LRU victim even after Contains(a).
	c.Contains("a")
	c.Put("c", 3)
	if c.Contains("a") {
		t.Error("Contains bumped recency; a survived eviction")
	}
}
