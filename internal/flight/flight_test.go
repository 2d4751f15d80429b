package flight

import (
	"context"
	"errors"
	"testing"
	"time"

	"syncsim/internal/engine"
)

// waitWaiters blocks until key's call has n interested callers.
func waitWaiters[V any](t *testing.T, g *Group[V], key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		c := g.calls[key]
		g.mu.Unlock()
		if c != nil {
			c.mu.Lock()
			w := c.waiters
			c.mu.Unlock()
			if w == n {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("key %q never reached %d waiters", key, n)
}

type outcome struct {
	val    int
	shared bool
	err    error
}

// do runs g.Do on its own goroutine and delivers the outcome.
func do(g *Group[int], ctx context.Context, fn func(context.Context) (int, error)) <-chan outcome {
	ch := make(chan outcome, 1)
	go func() {
		v, shared, err := g.Do(ctx, context.Background(), "k", fn)
		ch <- outcome{v, shared, err}
	}()
	return ch
}

// TestCoalesces: concurrent callers of one key share one run.
func TestCoalesces(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	calls := 0
	fn := func(context.Context) (int, error) {
		calls++
		<-release
		return 42, nil
	}
	const n = 5
	var outs []<-chan outcome
	outs = append(outs, do(&g, context.Background(), fn))
	waitWaiters(t, &g, "k", 1)
	for i := 1; i < n; i++ {
		outs = append(outs, do(&g, context.Background(), fn))
	}
	waitWaiters(t, &g, "k", n)
	close(release)
	shared := 0
	for _, ch := range outs {
		o := <-ch
		if o.err != nil || o.val != 42 {
			t.Fatalf("outcome = %+v, want 42", o)
		}
		if o.shared {
			shared++
		}
	}
	if calls != 1 || shared != n-1 {
		t.Errorf("runs = %d, shared = %d; want 1 run and %d shared", calls, shared, n-1)
	}
}

// TestLeaderPanic: a panicking job reaches every waiter as a
// *engine.PanicError naming the key, and vacates the key so the next Do
// runs afresh.
func TestLeaderPanic(t *testing.T) {
	var g Group[int]
	release := make(chan struct{})
	leader := do(&g, context.Background(), func(context.Context) (int, error) {
		<-release
		panic("job exploded")
	})
	waitWaiters(t, &g, "k", 1)
	follower := do(&g, context.Background(), func(context.Context) (int, error) {
		t.Error("follower ran its own job")
		return 0, nil
	})
	waitWaiters(t, &g, "k", 2)
	close(release)
	for _, ch := range []<-chan outcome{leader, follower} {
		o := <-ch
		var pe *engine.PanicError
		if !errors.As(o.err, &pe) {
			t.Fatalf("err = %v (%T), want *engine.PanicError", o.err, o.err)
		}
		if pe.Job != "k" || pe.Value != "job exploded" {
			t.Errorf("panic error = %q/%v, want job k, value %q", pe.Job, pe.Value, "job exploded")
		}
	}
	v, shared, err := g.Do(context.Background(), context.Background(), "k",
		func(context.Context) (int, error) { return 7, nil })
	if v != 7 || shared || err != nil {
		t.Errorf("Do after panic = %d, %t, %v; want a fresh run returning 7", v, shared, err)
	}
}

// TestLeaderDisconnect: the leader's caller going away does not cancel a
// job a follower still waits for; the follower gets the answer.
func TestLeaderDisconnect(t *testing.T) {
	var g Group[int]
	leaderCtx, dropLeader := context.WithCancel(context.Background())
	release := make(chan struct{})
	leader := do(&g, leaderCtx, func(ctx context.Context) (int, error) {
		<-release
		return 9, ctx.Err()
	})
	waitWaiters(t, &g, "k", 1)
	follower := do(&g, context.Background(), nil)
	waitWaiters(t, &g, "k", 2)
	dropLeader()
	waitWaiters(t, &g, "k", 1)
	close(release)
	if o := <-follower; o.err != nil || o.val != 9 || !o.shared {
		t.Errorf("follower = %+v, want the shared answer 9", o)
	}
	<-leader
}

// TestLastWaiterCancels: once every caller has left, the job context is
// cancelled.
func TestLastWaiterCancels(t *testing.T) {
	var g Group[int]
	leaderCtx, dropLeader := context.WithCancel(context.Background())
	followerCtx, dropFollower := context.WithCancel(context.Background())
	leader := do(&g, leaderCtx, func(ctx context.Context) (int, error) {
		<-ctx.Done()
		return 0, ctx.Err()
	})
	waitWaiters(t, &g, "k", 1)
	follower := do(&g, followerCtx, nil)
	waitWaiters(t, &g, "k", 2)
	dropFollower()
	if o := <-follower; !errors.Is(o.err, context.Canceled) || !o.shared {
		t.Errorf("follower = %+v, want its own context.Canceled", o)
	}
	dropLeader()
	select {
	case o := <-leader:
		if !errors.Is(o.err, context.Canceled) {
			t.Errorf("job err = %v, want context.Canceled", o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("job context not cancelled after the last waiter left")
	}
}
