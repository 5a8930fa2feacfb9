package main

import (
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A stub server that stalls once: every request after the stall begins
// waits for it to end, as requests queued behind a stalled server would.
// Requests that fell due during the stall must carry the stall in their
// latency, because latency is timed from the due time; a generator that
// timed from its (delayed) send would report them as fast.
func TestStallChargedToRequestsDueDuringIt(t *testing.T) {
	const (
		rate    = 1000
		n       = 600
		stallAt = 200
		stall   = 150 * time.Millisecond
	)
	var mu sync.Mutex
	var seen atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if seen.Add(1) == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		w.Write([]byte("{}"))
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: h}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		hs.Close()
		<-served
	}()

	req := httpRequest("POST", "/v1/audit", "application/json", []byte(`{"code":"x"}`))
	ops := make([]op, n)
	for i := range ops {
		ops[i] = op{due: time.Duration(i) * time.Second / rate, kind: opAudit, req: req}
	}
	samples, err := runOpenLoop(ln.Addr().String(), clientConns, ops)
	if err != nil {
		t.Fatal(err)
	}
	// The stalled request is the one whose own service took the stall.
	stalled := -1
	for i, s := range samples {
		if s.status != http.StatusOK {
			t.Fatalf("request %d: status %d", i, s.status)
		}
		if s.done-s.sent >= stall && stalled < 0 {
			stalled = i
		}
	}
	if stalled < 0 {
		t.Fatal("no request observed the stall")
	}
	begin, end := samples[stalled].sent, samples[stalled].done
	charged, fastFromSend := 0, 0
	for i, o := range ops {
		if i == stalled || o.due <= begin || o.due >= end-5*time.Millisecond {
			continue
		}
		s := samples[i]
		if lat, owed := s.done-o.due, end-o.due; lat < owed-time.Millisecond {
			t.Errorf("request %d due %v into the stall reports %v, less than the %v it waited", i, o.due-begin, lat, owed)
		}
		charged++
		if s.done-s.sent < 10*time.Millisecond {
			fastFromSend++
		}
	}
	if charged < 100 {
		t.Fatalf("only %d requests fell due during the %v stall", charged, stall)
	}
	if fastFromSend < charged/2 {
		t.Errorf("only %d of %d stalled requests look fast when timed from send; the test no longer distinguishes the two", fastFromSend, charged)
	}
}
