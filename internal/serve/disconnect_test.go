package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// blockingRunner holds every batch in Run until release is closed, and
// reports each batch it starts on started.
type blockingRunner struct {
	started chan int
	release chan struct{}
}

func (r *blockingRunner) Run(b *Batch) *BatchOutcome {
	r.started <- len(b.Reqs)
	<-r.release
	return stubRunner{}.Run(b)
}

func (r *blockingRunner) InShape() []int { return []int{1, 28, 28} }
func (r *blockingRunner) InputLen() int  { return 28 * 28 }

// selectSpy is a request context that closes waiting the first time its
// Done is asked for: handleInfer asks only when it enters the select that
// waits for the response or the client.
type selectSpy struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *selectSpy) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestHTTPClientDisconnect drives both branches of handleInfer's client
// disconnect. A request whose client goes away while it is queued is
// canceled: it counts once in serve.canceled and never runs. One whose
// client goes away after dispatch completes and counts in serve.completed.
// Either way the handler returns, accepted = completed + canceled, and a
// drain drops nothing.
func TestHTTPClientDisconnect(t *testing.T) {
	for _, tc := range []struct {
		name                string
		batchN              int
		canceled, completed int64
	}{
		// A batch of 8 with a minute's formation deadline: the request
		// waits in the queue.
		{"queued", 8, 1, 0},
		// A batch of 1 is full at once: the request is dispatched.
		{"dispatched", 1, 0, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runner := &blockingRunner{started: make(chan int, 1), release: make(chan struct{})}
			s, err := NewServerWithRunner(Config{Net: "lenet5", Workers: 1, BatchN: tc.batchN, DeadlineUS: 60e6}, runner, nil)
			if err != nil {
				t.Fatal(err)
			}
			spy := &selectSpy{waiting: make(chan struct{})}
			serverCtx := make(chan context.Context, 1)
			returned := make(chan struct{})
			h := s.handler()
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				spy.Context = r.Context()
				serverCtx <- r.Context()
				h.ServeHTTP(w, r.WithContext(spy))
				close(returned)
			}))
			defer ts.Close()

			clientCtx, disconnect := context.WithCancel(context.Background())
			defer disconnect()
			req, err := http.NewRequestWithContext(clientCtx, http.MethodPost, ts.URL+"/v1/infer",
				strings.NewReader(`{"tenant":"alpha","digit":3}`))
			if err != nil {
				t.Fatal(err)
			}
			posted := make(chan error, 1)
			go func() {
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					resp.Body.Close()
				}
				posted <- err
			}()

			timeout := time.After(30 * time.Second)
			wait := func(ch <-chan struct{}, what string) {
				t.Helper()
				select {
				case <-ch:
				case <-timeout:
					t.Fatalf("timed out waiting for %s", what)
				}
			}
			wait(spy.waiting, "the handler to wait for its response")
			if tc.completed > 0 {
				select {
				case <-runner.started:
				case <-timeout:
					t.Fatal("timed out waiting for the batch to start")
				}
			}
			disconnect()
			if err := <-posted; err == nil {
				t.Fatal("the client's request succeeded after it disconnected")
			}
			wait((<-serverCtx).Done(), "the server to see the disconnect")
			if tc.completed > 0 {
				// The handler has taken the disconnect branch and waits for
				// the dispatched batch; let it finish.
				select {
				case <-returned:
					t.Fatal("handler returned before its dispatched batch completed")
				default:
				}
				close(runner.release)
			}
			wait(returned, "the handler to return")
			if tc.completed == 0 {
				close(runner.release) // nothing should run, but a drain must not hang if it does
			}

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := s.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			m := s.tc.Metrics()
			accepted, canceled, completed := m.Counter("serve.accepted").Value(), m.Counter("serve.canceled").Value(), m.Counter("serve.completed").Value()
			if accepted != 1 || canceled != tc.canceled || completed != tc.completed {
				t.Fatalf("accepted %d, canceled %d, completed %d; want 1, %d, %d", accepted, canceled, completed, tc.canceled, tc.completed)
			}
			if accepted != completed+canceled {
				t.Fatalf("accepted %d != completed %d + canceled %d", accepted, completed, canceled)
			}
			if got := m.Gauge("serve.drain.dropped").Value(); got != 0 {
				t.Fatalf("serve.drain.dropped = %v, want 0", got)
			}
		})
	}
}
