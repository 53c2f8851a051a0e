package main

import (
	"io"
	"testing"
)

// rounds builds k head/base report pairs of one record, "scan", at 1000
// ns/op on the base side and 1000*(1+slowdown[i]) on the head side.
func rounds(slowdown ...float64) (base, cur []*benchReport) {
	for _, s := range slowdown {
		b := &benchReport{Go: "go1", Procs: 1, Results: []benchRecord{{Name: "scan", NsPerOp: 1000, AllocsPerOp: 10}}}
		c := &benchReport{Go: "go1", Procs: 1, Results: []benchRecord{{Name: "scan", NsPerOp: 1000 * (1 + s), AllocsPerOp: 10}}}
		base, cur = append(base, b), append(cur, c)
	}
	return base, cur
}

// TestGateMedianOfRounds: one +35 % round out of five is noise and passes;
// +30 % in every round is a regression and fails.
func TestGateMedianOfRounds(t *testing.T) {
	for _, tc := range []struct {
		name     string
		slowdown []float64
		want     int
	}{
		{"one slow round", []float64{0, 0.35, -0.02, 0.03, 0.01}, 0},
		{"every round slow", []float64{0.3, 0.3, 0.3, 0.3, 0.3}, 1},
		{"one round, slow", []float64{0.3}, 1},
	} {
		base, cur := rounds(tc.slowdown...)
		got, err := gate(io.Discard, base, cur, nil, 25, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s: %d failures, want %d", tc.name, got, tc.want)
		}
	}
}

// TestGateAllocsFromZero: growth from zero allocations fails when most
// rounds show it, however small.
func TestGateAllocsFromZero(t *testing.T) {
	base, cur := rounds(0, 0, 0)
	for i := range base {
		base[i].Results[0].AllocsPerOp = 0
		if i > 0 {
			cur[i].Results[0].AllocsPerOp = 1
		} else {
			cur[i].Results[0].AllocsPerOp = 0
		}
	}
	if got, err := gate(io.Discard, base, cur, nil, 25, 1); err != nil || got != 1 {
		t.Fatalf("0 -> 1 allocs in 2 of 3 rounds: %d failures (%v), want 1", got, err)
	}
}
