package serve

// Wall-clock server tests, run under -race by the Makefile's race target:
// concurrent tenants racing for the last admission slot, and a graceful
// drain with a request still queued. These go through the real LeNet-5
// deployment, so they double as an end-to-end check of the ladder runner.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/nn"
)

// Two tenants fire bursts at a server with one slot per tenant and two
// global slots: admission must never exceed either bound, every accepted
// request must complete, and the ledger offered = accepted + shed must hold.
func TestConcurrentTenantsRaceForLastSlot(t *testing.T) {
	cfg := Config{
		Net: "lenet5", Board: "S10SX", Workers: 1,
		BatchN: 100, DeadlineUS: 60e6, // nothing dispatches until the drain
		TenantQueue: 1, MaxPending: 2,
	}
	s, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const perTenant = 6
	var wg sync.WaitGroup
	var mu sync.Mutex
	accepted := map[string]int{}
	shed := map[ShedReason]int{}
	var chans []<-chan Response
	for _, tenant := range []string{"alpha", "beta"} {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, i int) {
				defer wg.Done()
				ch, reason := s.Submit(&Request{Tenant: tenant, Input: nn.Digit(i % 10)})
				mu.Lock()
				defer mu.Unlock()
				if reason == ShedNone {
					accepted[tenant]++
					chans = append(chans, ch)
				} else {
					shed[reason]++
				}
			}(tenant, i)
		}
	}
	wg.Wait()
	total := accepted["alpha"] + accepted["beta"]
	if accepted["alpha"] > 1 || accepted["beta"] > 1 || total > cfg.MaxPending {
		t.Fatalf("admission over bounds: %v (max pending %d)", accepted, cfg.MaxPending)
	}
	if total+shed[ShedTenantQueue]+shed[ShedOverload] != 2*perTenant {
		t.Fatalf("ledger broken: accepted %d shed %v, offered %d", total, shed, 2*perTenant)
	}
	// Drain flushes the queued partial batch; every accepted request responds.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for _, ch := range chans {
		select {
		case resp := <-ch:
			if resp.Err != nil {
				t.Fatalf("accepted request failed: %v", resp.Err)
			}
		default:
			t.Fatal("accepted request dropped by drain (no response)")
		}
	}
	if got := s.tc.Metrics().Gauge("serve.drain.dropped").Value(); got != 0 {
		t.Fatalf("serve.drain.dropped = %v, want 0", got)
	}
}

// A request queued behind a long formation deadline must survive a drain
// that begins while it waits, and the server must refuse work afterwards.
func TestHTTPDrainWithQueuedRequest(t *testing.T) {
	cfg := Config{
		Net: "lenet5", Board: "S10SX", Workers: 2,
		BatchN: 8, DeadlineUS: 60e6,
	}
	s, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	done := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
			strings.NewReader(`{"tenant":"alpha","digit":3}`))
		if err != nil {
			done <- err
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- &http.ProtocolError{ErrorString: "status " + resp.Status}
			return
		}
		done <- nil
	}()
	// Wait until the request is actually queued before draining.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s.tc.Metrics().Counter("serve.accepted").Value() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("queued request did not survive the drain: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
		strings.NewReader(`{"tenant":"alpha","digit":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain POST: %s, want 503", resp.Status)
	}
}

// getHealth fetches /healthz and checks its code, status and per-runner
// entries.
func getHealth(t *testing.T, url string, wantCode int, wantStatus string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthReply
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("GET /healthz: not JSON: %v", err)
	}
	if resp.StatusCode != wantCode || h.Status != wantStatus {
		t.Fatalf("GET /healthz: %s, status %q; want %d, %q", resp.Status, h.Status, wantCode, wantStatus)
	}
	if len(h.Runners) == 0 {
		t.Fatal("GET /healthz: no per-runner health entries")
	}
	for _, r := range h.Runners {
		if r.Name == "" || r.State == "" {
			t.Fatalf("GET /healthz: malformed runner entry %+v", r)
		}
	}
}

// Concurrent posts from two tenants are all served on the batch rung; then
// /metrics carries the request ledger and /healthz reports ok with its
// runner entries, and after a drain /healthz answers 503 "draining" with
// nothing dropped.
func TestHTTPMetricsAndHealthAcrossDrain(t *testing.T) {
	cfg := Config{Net: "lenet5", Board: "S10SX", BatchN: 4, DeadlineUS: 20_000, Workers: 2}
	s, err := NewServer(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tenant := [2]string{"alpha", "beta"}[i%2]
			resp, err := http.Post(ts.URL+"/v1/infer", "application/json",
				strings.NewReader(fmt.Sprintf(`{"tenant":%q,"digit":%d}`, tenant, i)))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var reply inferReply
			if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil || resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("POST /v1/infer: %s, %v", resp.Status, err)
				return
			}
			if reply.Rung != RungBatch {
				errs <- fmt.Errorf("request %d served on rung %q, want %q", reply.ID, reply.Rung, RungBatch)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "serve.requests") {
		t.Fatalf("GET /metrics: %s, err %v, serve.requests present: %v",
			resp.Status, err, strings.Contains(string(body), "serve.requests"))
	}
	getHealth(t, ts.URL, http.StatusOK, "ok")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := s.tc.Metrics().Gauge("serve.drain.dropped").Value(); got != 0 {
		t.Fatalf("serve.drain.dropped = %v, want 0", got)
	}
	getHealth(t, ts.URL, http.StatusServiceUnavailable, "draining")
}

// Serve's server cuts off a client that sends half a request header and
// stalls (slow loris) once readHeaderTimeout passes, while a keep-alive
// client's requests still succeed on one reused connection.
func TestServeDisconnectsStalledHeader(t *testing.T) {
	s, err := NewServer(Config{Net: "lenet5", Board: "S10SX", BatchN: 1, Workers: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	defer func() {
		stop()
		if err := <-served; err != nil && err != http.ErrServerClosed {
			t.Errorf("Serve: %v", err)
		}
	}()
	url := "http://" + ln.Addr().String()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	for i := 0; i < 3; i++ {
		reused := false
		trace := &httptrace.ClientTrace{GotConn: func(c httptrace.GotConnInfo) { reused = c.Reused }}
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost,
			url+"/v1/infer", strings.NewReader(fmt.Sprintf(`{"digit":%d}`, i)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("keep-alive request %d: %s", i, resp.Status)
		}
		if i > 0 && !reused {
			t.Fatalf("keep-alive request %d opened a new connection", i)
		}
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	if _, err := io.WriteString(conn, "POST /v1/infer HTTP/1.1\r\nHost: x\r\nContent-"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	_, err = io.ReadAll(conn) // returns at EOF: the server hung up (after a 400)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("stalled client still connected after %v (header bound %v): %v", elapsed, readHeaderTimeout, err)
	}
	if elapsed < readHeaderTimeout-time.Second {
		t.Fatalf("stalled client cut off after %v, before the %v header bound", elapsed, readHeaderTimeout)
	}
}

// Malformed bodies are refused before admission: a body over the 8 MiB cap
// answers 413 "body_too_large"; one truncated mid-JSON, one with bytes after
// its object and one with a null pixel answer 400 "bad_request" naming the
// fault. None reaches the queue.
func TestHTTPRejectsOversizedAndTruncatedBodies(t *testing.T) {
	s, err := NewServer(Config{Net: "lenet5", Board: "S10SX", Workers: 1, BatchN: 1, DeadlineUS: 1000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	for _, c := range []struct {
		name, body string
		status     int
		reason     string
		errPart    string
	}{
		{"oversized", `{"tenant":"` + strings.Repeat("a", maxInferBody) + `"}`,
			http.StatusRequestEntityTooLarge, "body_too_large", "request body over 8388608 bytes"},
		{"truncated", `{"tenant":"alpha","digit":`,
			http.StatusBadRequest, "bad_request", "unexpected EOF"},
		{"second value", `{"tenant":"a","digit":3}{"x":1}`,
			http.StatusBadRequest, "bad_request", "after the object"},
		{"trailing garbage", `{"tenant":"a","digit":3} garbage`,
			http.StatusBadRequest, "bad_request", "after the object"},
		{"null pixel", `{"tenant":"a","image":[null` + strings.Repeat(",0.5", 28*28-1) + `]}`,
			http.StatusBadRequest, "bad_request", "image[0] is null"},
	} {
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var reply errorReply
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s: reply not JSON: %v", c.name, err)
		}
		if resp.StatusCode != c.status || reply.Reason != c.reason || !strings.Contains(reply.Error, c.errPart) {
			t.Errorf("%s body: %s, reason %q, error %q; want %d, %q, error naming %q",
				c.name, resp.Status, reply.Reason, reply.Error, c.status, c.reason, c.errPart)
		}
	}
	if got := s.tc.Metrics().Counter("serve.accepted").Value(); got != 0 {
		t.Errorf("serve.accepted = %v after refused bodies only, want 0", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}
