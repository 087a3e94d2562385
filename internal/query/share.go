package query

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
)

// DefaultMemoSize is the memo capacity the serving tier gives each
// dataset's Sharer unless configured otherwise.
const DefaultMemoSize = 256

// Sharer computes identical plan nodes exactly once across concurrent
// queries. It combines singleflight (concurrent requests for one key join
// the in-flight computation) with a small bounded memo (a request arriving
// just after completion reuses the result), both keyed on the node's
// canonical Key *and* the snapshot epoch it executes against — sharing
// never crosses epochs, so an answer computed before an update is never
// served for a plan node that must see the update.
//
// Errors are never memoized; a leader cancelled by its own caller is
// retried by any follower whose context is still live.
type Sharer struct {
	mu    sync.Mutex
	calls map[string]*sharedCall
	memo  map[string]any
	order []string // memo keys, oldest first
	cap   int

	hits  atomic.Int64
	execs atomic.Int64
	// onExec, when set, observes every real execution (the CSE tests'
	// build-count hook).
	onExec atomic.Pointer[func(key string)]
}

type sharedCall struct {
	done chan struct{}
	val  any
	err  error
}

// NewSharer returns a Sharer whose memo keeps at most capacity completed
// results, evicting the oldest first. A capacity of zero or less keeps
// none: only callers that overlap an in-flight computation share it.
func NewSharer(capacity int) *Sharer {
	return &Sharer{
		calls: make(map[string]*sharedCall),
		memo:  make(map[string]any),
		cap:   max(capacity, 0),
	}
}

// Do returns the result of fn for (epoch, key), computing it at most once
// across all concurrent and recent callers of the same pair. shared
// reports whether the caller reused work (memo hit or joined an in-flight
// computation) rather than executing fn itself.
func (s *Sharer) Do(ctx context.Context, epoch uint64, key string, fn func() (any, error)) (val any, shared bool, err error) {
	full := strconv.FormatUint(epoch, 10) + "|" + key
	for {
		s.mu.Lock()
		if v, ok := s.memo[full]; ok {
			s.mu.Unlock()
			s.hits.Add(1)
			return v, true, nil
		}
		if c, ok := s.calls[full]; ok {
			s.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
			if c.err == nil {
				s.hits.Add(1)
				return c.val, true, nil
			}
			// The leader failed. If it was merely cancelled, its failure
			// says nothing about the computation — take over as leader
			// (we know our own context is live). Real errors propagate.
			if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
				continue
			}
			return nil, false, c.err
		}
		c := &sharedCall{done: make(chan struct{})}
		s.calls[full] = c
		s.mu.Unlock()

		s.execs.Add(1)
		if hook := s.onExec.Load(); hook != nil {
			(*hook)(key)
		}
		c.val, c.err = fn()

		s.mu.Lock()
		delete(s.calls, full)
		if c.err == nil && s.cap > 0 {
			if len(s.memo) >= s.cap {
				oldest := s.order[0]
				s.order = s.order[1:]
				delete(s.memo, oldest)
			}
			s.memo[full] = c.val
			s.order = append(s.order, full)
		}
		s.mu.Unlock()
		close(c.done)
		return c.val, false, c.err
	}
}

// Hits returns how many Do calls reused shared work instead of executing.
func (s *Sharer) Hits() int64 { return s.hits.Load() }

// Execs returns how many times Do actually executed a computation.
func (s *Sharer) Execs() int64 { return s.execs.Load() }

// Len returns how many completed results the memo holds.
func (s *Sharer) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo)
}

// SetExecHook installs (or, with nil, removes) a function observing every
// real execution's key. It exists for tests that assert exactly how many
// decompositions a batch performed.
func (s *Sharer) SetExecHook(hook func(key string)) {
	if hook == nil {
		s.onExec.Store(nil)
		return
	}
	s.onExec.Store(&hook)
}
