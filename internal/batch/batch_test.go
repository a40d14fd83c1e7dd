package batch

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersDefault(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS = %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(7); got != 7 {
		t.Errorf("Workers(7) = %d", got)
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	for _, w := range []int{1, 2, 4, 16} {
		var n atomic.Int64
		tasks := make([]func(), 100)
		for i := range tasks {
			tasks[i] = func() { n.Add(1) }
		}
		if err := RunCtx(context.Background(), w, tasks); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if n.Load() != 100 {
			t.Errorf("workers=%d: ran %d of 100 tasks", w, n.Load())
		}
	}
	if err := RunCtx(context.Background(), 4, nil); err != nil { // empty task list must not hang
		t.Fatal(err)
	}
}

func TestRunSequentialOrder(t *testing.T) {
	// One worker runs in order on the calling goroutine.
	var order []int
	tasks := make([]func(), 20)
	for i := range tasks {
		i := i
		tasks[i] = func() { order = append(order, i) }
	}
	if err := RunCtx(context.Background(), 1, tasks); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential RunCtx out of order: %v", order)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const w = 3
	var cur, peak atomic.Int64
	tasks := make([]func(), 50)
	for i := range tasks {
		tasks[i] = func() {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			runtime.Gosched()
			cur.Add(-1)
		}
	}
	if err := RunCtx(context.Background(), w, tasks); err != nil {
		t.Fatal(err)
	}
	if peak.Load() > w {
		t.Errorf("observed %d concurrent tasks, want ≤ %d", peak.Load(), w)
	}
}

func TestRunCtxCapturesPanics(t *testing.T) {
	for _, w := range []int{1, 4} {
		var ran atomic.Int64
		tasks := []func(){
			func() { ran.Add(1) },
			func() { panic("boom") },
			func() { ran.Add(1) },
			func() { panic(errors.New("second")) },
			func() { ran.Add(1) },
		}
		err := RunCtx(context.Background(), w, tasks)
		if err == nil {
			t.Fatalf("workers=%d: panics not reported", w)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %v is not a PanicError", w, err)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: PanicError without stack", w)
		}
		if ran.Load() != 3 {
			t.Errorf("workers=%d: independent tasks did not continue after panic: ran %d of 3", w, ran.Load())
		}
	}
}

// TestCaptureKeepsFirstStack: a *PanicError re-panicked through a
// second recover keeps the first goroutine's stack, and any other value
// is wrapped with one.
func TestCaptureKeepsFirstStack(t *testing.T) {
	first := &PanicError{Value: "worker bug", Stack: []byte("first")}
	if got := Capture(first); got != first {
		t.Fatalf("Capture re-wrapped a *PanicError: %+v", got)
	}
	pe := Capture("raw")
	if pe.Value != "raw" || len(pe.Stack) == 0 {
		t.Fatalf("Capture(raw) = %+v, want the value with a stack", pe)
	}
}

func TestRunCtxCancellationSkipsUndispatched(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var ran atomic.Int64
	tasks := make([]func(), 40)
	tasks[0] = func() {
		close(started)
		<-ctx.Done() // hold a worker until cancellation
		ran.Add(1)
	}
	for i := 1; i < len(tasks); i++ {
		tasks[i] = func() { ran.Add(1); time.Sleep(time.Millisecond) }
	}
	go func() {
		<-started
		cancel()
	}()
	err := RunCtx(ctx, 2, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran.Load() == int64(len(tasks)) {
		t.Fatal("cancellation did not skip any task")
	}
	// Sequential mode: already-cancelled context runs nothing.
	cancelled, stop := context.WithCancel(context.Background())
	stop()
	var n atomic.Int64
	err = RunCtx(cancelled, 1, []func(){func() { n.Add(1) }})
	if !errors.Is(err, context.Canceled) || n.Load() != 0 {
		t.Fatalf("sequential cancelled run: err=%v ran=%d", err, n.Load())
	}
}

func TestMapCtxZeroesSkippedSlots(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 3, []int{1, 2, 3}, func(i, v int) int { return v * 10 })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	for i, v := range out {
		if v != 0 {
			t.Fatalf("out[%d] = %d, want zero for skipped slot", i, v)
		}
	}
	out, err = MapCtx(context.Background(), 3, []int{1, 2, 3}, func(i, v int) int { return v * 10 })
	if err != nil || out[0] != 10 || out[2] != 30 {
		t.Fatalf("MapCtx = %v, %v", out, err)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	in := make([]int, 64)
	for i := range in {
		in[i] = i
	}
	for _, w := range []int{1, 5, 0} {
		out, err := MapCtx(context.Background(), w, in, func(i, v int) int { return v * v })
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
	if got, err := MapCtx(context.Background(), 3, []string(nil), func(i int, s string) int { return 0 }); len(got) != 0 || err != nil {
		t.Errorf("MapCtx over nil = %v, %v", got, err)
	}
}
