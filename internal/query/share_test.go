package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCSESharerComputesOnce(t *testing.T) {
	s := NewSharer(DefaultMemoSize)
	var builds atomic.Int64
	s.SetExecHook(func(string) { builds.Add(1) })

	const callers = 32
	var wg sync.WaitGroup
	release := make(chan struct{})
	vals := make([]any, callers)
	sharedCount := atomic.Int64{}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, shared, err := s.Do(context.Background(), 1, "topk(k=3, gamma=2, semantics=core)", func() (any, error) {
				<-release // hold the call open so every goroutine joins it
				return "result", nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if shared {
				sharedCount.Add(1)
			}
			vals[i] = v
		}(i)
	}
	close(release)
	wg.Wait()

	if got := builds.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want exactly 1", got)
	}
	if got := s.Execs(); got != 1 {
		t.Fatalf("Execs = %d, want 1", got)
	}
	if got := s.Hits(); got != callers-1 {
		t.Fatalf("Hits = %d, want %d", got, callers-1)
	}
	if got := sharedCount.Load(); got != callers-1 {
		t.Fatalf("shared reported by %d callers, want %d", got, callers-1)
	}
	for i, v := range vals {
		if v != "result" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
}

func TestCSESharerMemoHit(t *testing.T) {
	s := NewSharer(4)
	exec := func() (any, error) { return 42, nil }
	if _, shared, _ := s.Do(context.Background(), 7, "n", exec); shared {
		t.Fatal("first call reported shared")
	}
	v, shared, err := s.Do(context.Background(), 7, "n", exec)
	if err != nil || !shared || v != 42 {
		t.Fatalf("memo hit: v=%v shared=%v err=%v", v, shared, err)
	}
	if s.Execs() != 1 || s.Hits() != 1 {
		t.Fatalf("execs=%d hits=%d", s.Execs(), s.Hits())
	}
}

func TestCSESharerNeverCrossesEpochs(t *testing.T) {
	s := NewSharer(DefaultMemoSize)
	var builds atomic.Int64
	fn := func() (any, error) { return builds.Add(1), nil }
	if _, shared, _ := s.Do(context.Background(), 1, "n", fn); shared {
		t.Fatal("epoch 1 first call shared")
	}
	// Same key, newer epoch: must execute again, never reuse epoch 1's answer.
	v, shared, err := s.Do(context.Background(), 2, "n", fn)
	if err != nil || shared {
		t.Fatalf("epoch 2: shared=%v err=%v", shared, err)
	}
	if v != int64(2) || builds.Load() != 2 {
		t.Fatalf("epoch 2 got %v after %d builds", v, builds.Load())
	}
	// Epoch 1 is still memoized independently.
	v, shared, _ = s.Do(context.Background(), 1, "n", fn)
	if !shared || v != int64(1) {
		t.Fatalf("epoch 1 re-read: v=%v shared=%v", v, shared)
	}
}

func TestCSESharerErrorsNotMemoized(t *testing.T) {
	s := NewSharer(DefaultMemoSize)
	boom := errors.New("boom")
	calls := 0
	fn := func() (any, error) { calls++; return nil, boom }
	if _, _, err := s.Do(context.Background(), 1, "n", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := s.Do(context.Background(), 1, "n", fn); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2 {
		t.Fatalf("failing computation ran %d times, want 2 (errors must not be memoized)", calls)
	}
}

func TestCSESharerFollowerRetriesCancelledLeader(t *testing.T) {
	s := NewSharer(DefaultMemoSize)
	leaderStarted := make(chan struct{})
	leaderRelease := make(chan struct{})
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()

	var leaderErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, leaderErr = s.Do(leaderCtx, 1, "n", func() (any, error) {
			close(leaderStarted)
			<-leaderRelease
			return nil, leaderCtx.Err() // leader was cancelled mid-flight
		})
	}()
	<-leaderStarted

	followerDone := make(chan struct{})
	var fv any
	var ferr error
	go func() {
		defer close(followerDone)
		fv, _, ferr = s.Do(context.Background(), 1, "n", func() (any, error) {
			return "fresh", nil
		})
	}()

	cancelLeader()
	close(leaderRelease)
	<-done
	<-followerDone

	if !errors.Is(leaderErr, context.Canceled) {
		t.Fatalf("leader err = %v", leaderErr)
	}
	if ferr != nil || fv != "fresh" {
		t.Fatalf("follower after cancelled leader: v=%v err=%v (should have retaken the computation)", fv, ferr)
	}
}

func TestCSESharerMemoBounded(t *testing.T) {
	s := NewSharer(2)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("n%d", i)
		if _, _, err := s.Do(context.Background(), 1, key, func() (any, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	s.mu.Lock()
	n := len(s.memo)
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("memo holds %d entries, want 2", n)
	}
	// The two newest keys survive; the oldest were evicted.
	if _, shared, _ := s.Do(context.Background(), 1, "n4", func() (any, error) { return -1, nil }); !shared {
		t.Fatal("newest key evicted")
	}
	if _, shared, _ := s.Do(context.Background(), 1, "n0", func() (any, error) { return -1, nil }); shared {
		t.Fatal("oldest key unexpectedly retained")
	}
}

func TestCSESharerZeroCapacityKeepsNoMemo(t *testing.T) {
	s := NewSharer(0)
	var builds atomic.Int64
	fn := func() (any, error) { return builds.Add(1), nil }
	for i := 0; i < 3; i++ {
		if _, shared, err := s.Do(context.Background(), 1, "n", fn); err != nil || shared {
			t.Fatalf("call %d: shared=%v err=%v, want a fresh execution", i, shared, err)
		}
	}
	if builds.Load() != 3 || s.Len() != 0 {
		t.Fatalf("builds=%d memo len=%d, want 3 and 0", builds.Load(), s.Len())
	}
}
