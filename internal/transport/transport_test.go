package transport

import (
	"encoding/gob"
	"fmt"
	"sync"
	"testing"
	"time"
)

type payload struct {
	N  int
	Vs []float64
}

func init() { gob.Register(payload{}) }

// networks returns both backends so every behavioural test runs against
// each.
func networks(t *testing.T) map[string]Network {
	t.Helper()
	return map[string]Network{
		"chan": NewChanNetwork(),
		"tcp":  NewTCPNetwork(),
	}
}

func recvOne(t *testing.T, ep Endpoint) Message {
	t.Helper()
	select {
	case m, ok := <-ep.Recv():
		if !ok {
			t.Fatal("recv channel closed")
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	panic("unreachable")
}

func TestRoundtrip(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			a, err := nw.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := nw.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			want := payload{N: 7, Vs: []float64{1, 2, 3}}
			if err := a.Send("b", Message{Kind: "data", Payload: want, Size: 28}); err != nil {
				t.Fatal(err)
			}
			m := recvOne(t, b)
			if m.From != "a" || m.To != "b" || m.Kind != "data" {
				t.Fatalf("bad envelope: %+v", m)
			}
			got, ok := m.Payload.(payload)
			if !ok {
				t.Fatalf("payload type %T", m.Payload)
			}
			if got.N != want.N || len(got.Vs) != 3 || got.Vs[2] != 3 {
				t.Fatalf("payload mismatch: %+v", got)
			}
		})
	}
}

func TestOrderingPerSender(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			a, _ := nw.Endpoint("a")
			b, _ := nw.Endpoint("b")
			const n = 200
			for i := 0; i < n; i++ {
				if err := a.Send("b", Message{Kind: "seq", Payload: payload{N: i}}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < n; i++ {
				m := recvOne(t, b)
				if m.Payload.(payload).N != i {
					t.Fatalf("out of order: got %d at position %d", m.Payload.(payload).N, i)
				}
			}
		})
	}
}

func TestSenderNeverBlocks(t *testing.T) {
	// 10k sends with nobody receiving must complete promptly.
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			a, _ := nw.Endpoint("a")
			if _, err := nw.Endpoint("b"); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				for i := 0; i < 10000; i++ {
					_ = a.Send("b", Message{Kind: "flood", Payload: payload{N: i}})
				}
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("sender blocked")
			}
		})
	}
}

func TestUnknownEndpoint(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			a, _ := nw.Endpoint("a")
			if err := a.Send("ghost", Message{Kind: "x"}); err == nil {
				t.Fatal("expected error for unknown endpoint")
			}
		})
	}
}

func TestConcurrentSenders(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			dst, _ := nw.Endpoint("dst")
			const senders, per = 8, 100
			var wg sync.WaitGroup
			for s := 0; s < senders; s++ {
				ep, err := nw.Endpoint(fmt.Sprintf("s%d", s))
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(ep Endpoint) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if err := ep.Send("dst", Message{Kind: "c", Payload: payload{N: i}}); err != nil {
							t.Error(err)
							return
						}
					}
				}(ep)
			}
			wg.Wait()
			for i := 0; i < senders*per; i++ {
				recvOne(t, dst)
			}
			if got := nw.Messages(); got != senders*per {
				t.Fatalf("message count %d, want %d", got, senders*per)
			}
		})
	}
}

func TestBytesAccounting(t *testing.T) {
	nw := NewChanNetwork()
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	nw.Endpoint("b")
	a.Send("b", Message{Kind: "x", Size: 100})
	a.Send("b", Message{Kind: "x", Size: 50})
	if got := nw.BytesSent(); got != 150 {
		t.Fatalf("BytesSent = %d, want 150", got)
	}
}

func TestTCPBytesAreRealWireBytes(t *testing.T) {
	nw := NewTCPNetwork()
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	b, _ := nw.Endpoint("b")
	vs := make([]float64, 100)
	for i := range vs {
		vs[i] = 1.0 / float64(i+3)
	}
	a.Send("b", Message{Kind: "x", Payload: payload{N: 1, Vs: vs}})
	recvOne(t, b)
	if nw.BytesSent() < 800 {
		t.Fatalf("wire bytes %d implausibly small for 100 float64s", nw.BytesSent())
	}
}

func TestTCPConnectionsArePersistent(t *testing.T) {
	nw := NewTCPNetwork()
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	b, _ := nw.Endpoint("b")
	for i := 0; i < 50; i++ {
		if err := a.Send("b", Message{Kind: "x", Payload: payload{N: i}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		recvOne(t, b)
	}
	if got := nw.Dials(); got != 1 {
		t.Fatalf("dialed %d times for 50 sends, want 1 persistent connection", got)
	}
	// Reverse direction opens its own connection.
	if err := b.Send("a", Message{Kind: "y", Payload: payload{}}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, a)
	if got := nw.Dials(); got != 2 {
		t.Fatalf("dials = %d, want 2", got)
	}
}

func TestEndpointIdempotent(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			e1, _ := nw.Endpoint("same")
			e2, _ := nw.Endpoint("same")
			if e1 != e2 {
				t.Fatal("Endpoint not idempotent")
			}
		})
	}
}

func TestCloseDrainsAndStops(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := nw.Endpoint("a")
			b, _ := nw.Endpoint("b")
			a.Send("b", Message{Kind: "x", Payload: payload{N: 1}})
			recvOne(t, b)
			nw.Close()
			if err := a.Send("b", Message{Kind: "x"}); err == nil {
				t.Fatal("send after close should fail")
			}
			if _, err := nw.Endpoint("c"); err == nil {
				t.Fatal("endpoint creation after close should fail")
			}
			// Recv channel must eventually close.
			for range b.Recv() {
			}
		})
	}
}

func TestSendToClosedEndpoint(t *testing.T) {
	nw := NewChanNetwork()
	defer nw.Close()
	a, _ := nw.Endpoint("a")
	b, _ := nw.Endpoint("b")
	b.Close()
	if err := a.Send("b", Message{Kind: "x"}); err == nil {
		t.Fatal("expected error sending to closed endpoint")
	}
}

// TestSendFromClosedEndpoint: a closed endpoint cannot send, even after
// a fresh endpoint took over its address and its peer's — a straggler
// of a torn-down run must not reach the run that replaced it.
func TestSendFromClosedEndpoint(t *testing.T) {
	for name, nw := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer nw.Close()
			a, _ := nw.Endpoint("a")
			b, _ := nw.Endpoint("b")
			a.Close()
			b.Close()
			if _, err := nw.Endpoint("a"); err != nil {
				t.Fatal(err)
			}
			b2, err := nw.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Send("b", Message{Kind: "x", Payload: payload{N: 1}}); err == nil {
				t.Fatal("send from a closed endpoint succeeded")
			}
			select {
			case m := <-b2.Recv():
				t.Fatalf("fresh endpoint received %+v from a closed one", m)
			case <-time.After(50 * time.Millisecond):
			}
		})
	}
}

// TestDeliveryOrderUnderMixedPaths pins the inbox FIFO guarantee: the
// direct fast path (queue empty, pump idle) and the pump path mix
// freely as the receiver stalls and catches up, and messages from one
// sender must still arrive in send order.
func TestDeliveryOrderUnderMixedPaths(t *testing.T) {
	for name, n := range networks(t) {
		t.Run(name, func(t *testing.T) {
			defer n.Close()
			a, err := n.Endpoint("a")
			if err != nil {
				t.Fatal(err)
			}
			b, err := n.Endpoint("b")
			if err != nil {
				t.Fatal(err)
			}
			const total = 500
			go func() {
				for i := 0; i < total; i++ {
					if err := a.Send("b", Message{Kind: fmt.Sprint(i)}); err != nil {
						return
					}
				}
			}()
			for i := 0; i < total; i++ {
				m := recvOne(t, b)
				if m.Kind != fmt.Sprint(i) {
					t.Fatalf("message %d arrived as %q", i, m.Kind)
				}
				if i%97 == 0 {
					// Stall so the out channel fills and later sends take
					// the queued pump path.
					time.Sleep(2 * time.Millisecond)
				}
			}
		})
	}
}
