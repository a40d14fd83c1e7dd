// Package batch provides the bounded worker pool behind the root
// package's batch entry points and its parallel-stage analysis engine.
// It is a small generic utility with no knowledge of the analysis
// itself, so the root package, the server and the command-line tools
// share one scheduling policy.
//
// The pool is panic-isolating: a task that panics never crashes the
// process from a worker goroutine. RunCtx converts each panic into a
// *PanicError and keeps running the remaining (independent) tasks, so
// a caller gets every failure back as an error. RunCtx also honors
// context cancellation: undispatched tasks are skipped once the
// context is done, which is what lets a cancelled HTTP request free
// its worker slots instead of grinding through an abandoned batch.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// PanicError wraps a panic recovered from a task, preserving the
// original panic value and the stack of the panicking goroutine.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("batch: task panicked: %v", e.Value) }

// Workers normalizes a worker-count request: n if positive, otherwise
// GOMAXPROCS — the number of OS threads Go will actually run
// concurrently, which is the right default for the CPU-bound
// bit-vector work this pool carries.
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Capture turns a recovered panic value into a *PanicError. A
// re-panicked *PanicError passes through unchanged, so nested recovers
// keep the stack of the goroutine that panicked first; any other value
// is wrapped with the current stack. Call it from the deferred function
// that recovered.
func Capture(rec any) *PanicError {
	if pe, ok := rec.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: rec, Stack: debug.Stack()}
}

// protect runs t, converting a panic into *PanicError.
func protect(t func()) (err *PanicError) {
	defer func() {
		if rec := recover(); rec != nil {
			err = Capture(rec)
		}
	}()
	t()
	return nil
}

// RunCtx executes every task, at most Workers(workers) at a time,
// and returns when all dispatched tasks have finished. Panics are
// captured per task (the remaining tasks still run — tasks handed to
// one Run layer are independent by contract) and joined into the
// returned error as *PanicError values. Once ctx is done, tasks not
// yet dispatched are skipped and ctx.Err() joins the result; tasks
// already running are left to finish, so the pool always drains.
//
// With one worker the tasks run sequentially on the calling goroutine
// in order — no goroutines, no nondeterministic interleaving — which
// keeps a one-worker schedule truly sequential for debugging and
// differential testing.
func RunCtx(ctx context.Context, workers int, tasks []func()) error {
	if ctx == nil {
		ctx = context.Background()
	}
	w := Workers(workers)
	if w == 1 || len(tasks) == 1 {
		var errs []error
		for _, t := range tasks {
			if err := ctx.Err(); err != nil {
				errs = append(errs, err)
				break
			}
			if pe := protect(t); pe != nil {
				errs = append(errs, pe)
			}
		}
		return errors.Join(errs...)
	}
	if w > len(tasks) {
		w = len(tasks)
	}
	var (
		mu   sync.Mutex
		errs []error
	)
	next := make(chan func())
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for t := range next {
				if pe := protect(t); pe != nil {
					mu.Lock()
					errs = append(errs, pe)
					mu.Unlock()
				}
			}
		}()
	}
	done := ctx.Done()
	for _, t := range tasks {
		// select picks at random among ready cases, so ctx is checked
		// first: once it is done, no task goes even to an idle worker.
		if ctx.Err() == nil {
			select {
			case <-done:
			case next <- t:
				continue
			}
		}
		mu.Lock()
		errs = append(errs, ctx.Err())
		mu.Unlock()
		break
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// MapCtx applies f to every item, at most Workers(workers) at a time,
// and returns the results in input order; the index passed to f is the
// item's position in items. It runs the tasks as RunCtx does: the zero
// value stays at every index whose task was skipped (context done) or
// panicked, and the joined error reports why. A nil error means every
// slot is populated.
func MapCtx[T, R any](ctx context.Context, workers int, items []T, f func(int, T) R) ([]R, error) {
	out := make([]R, len(items))
	tasks := make([]func(), len(items))
	for i := range items {
		i := i
		tasks[i] = func() { out[i] = f(i, items[i]) }
	}
	err := RunCtx(ctx, workers, tasks)
	return out, err
}
