package dbapi

import (
	"reflect"
	"slices"
	"testing"
)

// TestStatNamesPinned pins the STATS_OK name list: the names and their
// order are wire protocol, so a change here is a protocol change.
func TestStatNamesPinned(t *testing.T) {
	want := []string{
		"generations", "queries_run", "writes_applied", "folded_queries",
		"in_flight_generations", "queue_depth", "shed", "rejected",
		"breaker_trips", "subscriptions_active", "subscription_updates",
	}
	if !slices.Equal(StatNames, want) {
		t.Fatalf("StatNames = %q, want %q", StatNames, want)
	}
}

// distinctStats sets field i of a Stats to base+i.
func distinctStats(base int) Stats {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.CanUint() {
			f.SetUint(uint64(base + i))
		} else {
			f.SetInt(int64(base + i))
		}
	}
	return s
}

// TestStatsValuesSetRoundTrip: every field, set to a distinct value, comes
// back through Values and Set by name.
func TestStatsValuesSetRoundTrip(t *testing.T) {
	s := distinctStats(1)
	var got Stats
	for i, v := range s.Values() {
		if !got.Set(StatNames[i], v) {
			t.Fatalf("Set(%q) found no counter", StatNames[i])
		}
	}
	if got != s {
		t.Fatalf("round trip = %+v, want %+v", got, s)
	}
	if got.Set("no_such_counter", 7) || got != s {
		t.Fatal("Set of an unknown name must report false and change nothing")
	}
}

// TestStatsAddSub: Add and Sub work field by field and undo each other.
func TestStatsAddSub(t *testing.T) {
	a, b := distinctStats(100), distinctStats(1)
	sum := a.Add(b)
	for i, v := range sum.Values() {
		if want := uint64(100+i) + uint64(1+i); v != want {
			t.Fatalf("%s: Add = %d, want %d", StatNames[i], v, want)
		}
	}
	if got := sum.Sub(b); got != a {
		t.Fatalf("Add then Sub = %+v, want %+v", got, a)
	}
	if got := (Stats{QueriesRun: 3, FoldedQueries: 1}).FoldHitRate(); got != 0.25 {
		t.Fatalf("FoldHitRate = %v, want 0.25", got)
	}
}
