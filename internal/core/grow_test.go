package core

import (
	"context"
	"errors"
	"testing"

	"influcomm/internal/gen"
)

// TestGrowAccessesPrefixOnly checks the loop's contract with its band: the
// first round starts from prefix 0, every later round is handed the
// previous round's prefix, prefixes strictly grow, and a top-2 query on a
// graph of planted communities stops well inside the graph, with Stats
// that account exactly the rounds run.
func TestGrowAccessesPrefixOnly(t *testing.T) {
	g, err := gen.PlantedCommunities(20, 12, 0.8, 0.5, 11)
	if err != nil {
		t.Fatal(err)
	}
	var calls [][2]int
	eng := NewEngine(g, 4)
	st, err := Grow(context.Background(), g, 2, 4, Options{}, func(p, prev int) (int, error) {
		calls = append(calls, [2]int{p, prev})
		return eng.Run(p, prev, 0).Count(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.FinalPrefix >= g.NumVertices() {
		t.Errorf("loop scanned the whole graph (%d vertices) for a top-2 query", st.FinalPrefix)
	}
	if st.FinalSize != g.PrefixSize(st.FinalPrefix) {
		t.Errorf("FinalSize %d, want size of prefix %d = %d", st.FinalSize, st.FinalPrefix, g.PrefixSize(st.FinalPrefix))
	}
	if len(calls) != st.Rounds || calls[len(calls)-1][0] != st.FinalPrefix {
		t.Fatalf("band calls %v disagree with %+v", calls, st)
	}
	var work int64
	prev := 0
	for _, c := range calls {
		if c[1] != prev || c[0] <= prev {
			t.Fatalf("band calls %v: round (p=%d, prev=%d) after prefix %d", calls, c[0], c[1], prev)
		}
		work += g.PrefixSize(c[0])
		prev = c[0]
	}
	if st.TotalWork != work {
		t.Errorf("TotalWork %d, want %d", st.TotalWork, work)
	}
	res, err := TopK(g, 2, 4, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats != st {
		t.Errorf("TopK stats %+v, Grow with a counting band %+v", res.Stats, st)
	}
}

// TestGrowValidation rejects bad queries before any band runs.
func TestGrowValidation(t *testing.T) {
	g := gen.Random(20, 3, 1)
	ctx := context.Background()
	band := func(int, int) (int, error) {
		t.Fatal("band ran for an invalid query")
		return 0, nil
	}
	for name, run := range map[string]func() error{
		"nil graph": func() error { _, err := Grow(ctx, nil, 1, 2, Options{}, band); return err },
		"k=0":       func() error { _, err := Grow(ctx, g, 0, 2, Options{}, band); return err },
		"gamma=0":   func() error { _, err := Grow(ctx, g, 1, 0, Options{}, band); return err },
		"delta=1":   func() error { _, err := Grow(ctx, g, 1, 2, Options{Delta: 1}, band); return err },
		"topk k=-1": func() error { _, err := TopKOver(ctx, GraphSource(g), -1, 2, Options{}); return err },
		"nil src":   func() error { _, err := TopKOver(ctx, nil, 1, 2, Options{}); return err },
	} {
		if run() == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestGrowStops covers the loop's exits other than the count rule: a band
// returning ErrStopGrowth ends a progressive run after accounting its
// round, any other band error is returned with the rounds before it, and
// a cancelled context stops the loop before the next band.
func TestGrowStops(t *testing.T) {
	g := gen.Random(400, 4, 3)
	boom := errors.New("boom")
	rounds, first := 0, 0
	st, err := Grow(context.Background(), g, -1, 2, Options{}, func(p, prev int) (int, error) {
		if rounds++; rounds == 1 {
			first = p
		} else {
			return 5, ErrStopGrowth
		}
		return 1, nil
	})
	if err != nil || st.Rounds != 2 || st.Communities != 6 {
		t.Fatalf("stopped run: %+v, %v; want 2 rounds, 6 communities, no error", st, err)
	}
	if first != 3 {
		t.Errorf("progressive run must start from the one-community prefix 1+γ = 3, started at %d", first)
	}
	rounds = 0
	st, err = Grow(context.Background(), g, 100, 2, Options{}, func(p, prev int) (int, error) {
		if rounds++; rounds == 3 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) || st.Rounds != 2 {
		t.Fatalf("failed run: %+v, %v; want 2 rounds and the band's error", st, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Grow(ctx, g, 1, 2, Options{}, func(int, int) (int, error) {
		t.Fatal("band ran under a cancelled context")
		return 0, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v, want Canceled", err)
	}
}
