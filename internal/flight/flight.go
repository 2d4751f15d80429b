// Package flight is the repository's one single-flight: concurrent
// callers that ask for the same key share one execution of the job. The
// server coalesces identical /v1 jobs through it and the coordinator
// coalesces identical sweep cells.
package flight

import (
	"context"
	"sync"

	"syncsim/internal/engine"
)

// Group runs at most one job per key at a time. The zero value is ready
// to use.
//
// A job runs under its own context, not its leader's: it stays alive
// while any caller still wants the answer and is cancelled only when the
// last interested caller has left, so a leader's dropped connection
// cannot abort a result that its followers are waiting for.
type Group[V any] struct {
	mu    sync.Mutex
	calls map[string]*call[V]
}

// call is one in-progress job. The leader runs it; followers park on done.
type call[V any] struct {
	done chan struct{} // closed once val and err are final
	val  V
	err  error

	mu      sync.Mutex
	waiters int // callers still interested; 0 → cancel the job
	cancel  context.CancelFunc
}

func (c *call[V]) join() {
	c.mu.Lock()
	c.waiters++
	c.mu.Unlock()
}

// leave records a departing waiter; the last one out cancels the job.
func (c *call[V]) leave() {
	c.mu.Lock()
	c.waiters--
	last := c.waiters == 0
	c.mu.Unlock()
	if last {
		c.cancel()
	}
}

// Do executes fn once per key among concurrent callers. The first caller
// leads: it runs fn inline under a cancellable child of jobCtx, the job
// context its caller built (lifetime, deadline, request-scoped values).
// Later callers with the same key join the leader's call instead and get
// its result with shared set. callerCtx governs only this caller's wait:
// when it is done the caller leaves, cancelling the job if it was the
// last one interested, and gets callerCtx's error.
//
// The panic barrier is part of the contract: a panicking fn still ends
// its call, vacating the key, and every waiter gets the panic as an
// *engine.PanicError naming the key. Otherwise followers would hang and
// the key would be poisoned for good.
func (g *Group[V]) Do(callerCtx, jobCtx context.Context, key string, fn func(context.Context) (V, error)) (val V, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok {
		c.join()
		g.mu.Unlock()
		select {
		case <-c.done:
			return c.val, true, c.err
		case <-callerCtx.Done():
			c.leave()
			return val, true, callerCtx.Err()
		}
	}
	if g.calls == nil {
		g.calls = make(map[string]*call[V])
	}
	ctx, cancel := context.WithCancel(jobCtx)
	c := &call[V]{done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.calls[key] = c
	g.mu.Unlock()

	// A leader whose caller goes away counts itself out; the job keeps
	// running while any follower still waits.
	stop := context.AfterFunc(callerCtx, c.leave)
	c.val, c.err = runRecovered(ctx, key, fn)
	stop()
	cancel() // the job is over; release its context whoever still waits

	g.mu.Lock()
	delete(g.calls, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}

// runRecovered runs fn behind a recover barrier, turning a panic into an
// *engine.PanicError for the job named key.
func runRecovered[V any](ctx context.Context, key string, fn func(context.Context) (V, error)) (val V, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = engine.Recovered(key, v)
		}
	}()
	return fn(ctx)
}
