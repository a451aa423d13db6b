package chaos

import (
	"errors"
	"io"
	"net"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	faults, err := ParseSpec("sever@3; delay@4:500ms; partial@2:16; accept:1/sever-write@5; sever-read@1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Round: 3, Kind: Sever},
		{Round: 4, Kind: Delay, Delay: 500 * time.Millisecond},
		{Round: 2, Kind: PartialWrite, Bytes: 16},
		{Peer: "accept:1", Round: 5, Kind: Sever, Op: OnWrite},
		{Round: 1, Kind: Sever, Op: OnRead},
	}
	if !slices.Equal(faults, want) {
		t.Errorf("parsed %+v, want %+v", faults, want)
	}

	for _, bad := range []string{"", "sever", "sever@x", "sever@-1", "delay@3", "delay@3:xyz", "partial@3:-2", "flip@1", ";;", "sever@3:junk", "kill-server@2:5"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestSpecRoundTrip checks each spec string parses back to exactly the
// faults it spells out: the table covers every kind, both explicit
// anchors, peers, arguments, and a multi-fault script.
func TestSpecRoundTrip(t *testing.T) {
	cases := []struct {
		spec string
		want []Fault
	}{
		{"sever@3", []Fault{{Round: 3, Kind: Sever}}},
		{"sever-write@5", []Fault{{Round: 5, Kind: Sever, Op: OnWrite}}},
		{"sever-read@1", []Fault{{Round: 1, Kind: Sever, Op: OnRead}}},
		{"delay@4:500ms", []Fault{{Round: 4, Kind: Delay, Delay: 500 * time.Millisecond}}},
		{"partial@2:16", []Fault{{Round: 2, Kind: PartialWrite, Bytes: 16}}},
		{"partial@2", []Fault{{Round: 2, Kind: PartialWrite}}},
		{"kill-server@7", []Fault{{Round: 7, Kind: KillServer}}},
		{"accept:1/sever-write@5", []Fault{{Peer: "accept:1", Round: 5, Kind: Sever, Op: OnWrite}}},
		{"eq-0/sever@1;delay@3:20ms;kill-server@6", []Fault{
			{Peer: "eq-0", Round: 1, Kind: Sever},
			{Round: 3, Kind: Delay, Delay: 20 * time.Millisecond},
			{Round: 6, Kind: KillServer},
		}},
	}
	for _, tc := range cases {
		faults, err := ParseSpec(tc.spec)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if !slices.Equal(faults, tc.want) {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, faults, tc.want)
		}
	}
}

// TestParseSpecErrorsNamePosition checks a bad token in a long spec is
// reported with its 1-based position and its own text, so the operator
// can find it without bisecting the flag value.
func TestParseSpecErrorsNamePosition(t *testing.T) {
	cases := []struct {
		spec       string
		wantSubstr []string
	}{
		{"sever@3;delay@4:oops;partial@2", []string{"fault 2", `"delay@4:oops"`, "invalid delay"}},
		{"sever@3;sever@4;flip@1", []string{"fault 3", `"flip@1"`, "unknown fault kind"}},
		{"sever@nope", []string{"fault 1", `"sever@nope"`, "invalid round"}},
		{"sever@1; ;sever", []string{"fault 3", `"sever"`, "missing @round"}},
	}
	for _, tc := range cases {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Fatalf("ParseSpec(%q) accepted", tc.spec)
		}
		for _, sub := range tc.wantSubstr {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("ParseSpec(%q) error %q missing %q", tc.spec, err, sub)
			}
		}
	}
}

// TestKillServerFiresHook checks a kill-server fault invokes the OnKill
// hook exactly once, at the scripted round, and that firing without a
// hook panics (a mis-wired crash script must be loud).
func TestKillServerFiresHook(t *testing.T) {
	s := NewScript(1, Fault{Round: 4, Kind: KillServer})
	kills := 0
	s.SetOnKill(func() { kills++ })
	c, srv := pipePeer(s, "accept:0")
	defer srv.Close()

	c.MarkRound(3)
	if kills != 0 {
		t.Fatalf("hook fired before the scripted round")
	}
	c.MarkRound(4)
	if kills != 1 {
		t.Fatalf("kills = %d after the scripted round, want 1", kills)
	}
	c.MarkRound(4) // fault already consumed
	c2, srv2 := pipePeer(s, "accept:1")
	defer srv2.Close()
	c2.MarkRound(4)
	if kills != 1 {
		t.Fatalf("kills = %d, kill fault fired more than once", kills)
	}

	s2 := NewScript(1, Fault{Round: 0, Kind: KillServer})
	c3, srv3 := pipePeer(s2, "accept:0")
	defer srv3.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("KillServer with no OnKill hook did not panic")
		}
	}()
	c3.MarkRound(0)
}

// pipePeer returns a wrapped client end and the raw server end of a pipe.
func pipePeer(s *Script, peer string) (*Conn, net.Conn) {
	a, b := net.Pipe()
	return s.Wrap(peer, a), b
}

func TestSeverAtMark(t *testing.T) {
	s := NewScript(1, Fault{Peer: "c0", Round: 3, Kind: Sever})
	c, srv := pipePeer(s, "c0")
	defer srv.Close()

	c.MarkRound(2) // not scripted: no effect
	go func() { _, _ = srv.Read(make([]byte, 8)) }()
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("write before fault: %v", err)
	}

	c.MarkRound(3)
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("write after sever: err = %v, want ErrInjected", err)
	}
	if _, err := c.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Errorf("read after sever: err = %v, want ErrInjected", err)
	}
}

func TestFaultFiresOncePerScript(t *testing.T) {
	s := NewScript(1, Fault{Peer: "c0", Round: 3, Kind: Sever})
	c1, srv1 := pipePeer(s, "c0")
	defer srv1.Close()
	c1.MarkRound(3)
	if _, err := c1.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Fatal("first connection not severed")
	}

	// The reconnected peer marks the same round without re-triggering.
	c2, srv2 := pipePeer(s, "c0")
	defer srv2.Close()
	c2.MarkRound(3)
	go func() { _, _ = srv2.Read(make([]byte, 8)) }()
	if _, err := c2.Write([]byte("ok")); err != nil {
		t.Errorf("second connection severed again: %v", err)
	}
}

func TestDelayOnWrite(t *testing.T) {
	const d = 60 * time.Millisecond
	s := NewScript(1, Fault{Round: 1, Kind: Delay, Delay: d})
	c, srv := pipePeer(s, "any")
	defer srv.Close()
	go func() { _, _ = io.ReadFull(srv, make([]byte, 4)) }()

	c.MarkRound(1)
	start := time.Now()
	if _, err := c.Write([]byte("late")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took < d {
		t.Errorf("delayed write took %v, want >= %v", took, d)
	}
	// The delay is consumed: the next write is prompt.
	go func() { _, _ = io.ReadFull(srv, make([]byte, 4)) }()
	start = time.Now()
	if _, err := c.Write([]byte("fast")); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > d {
		t.Errorf("second write took %v, delay not consumed", took)
	}
}

func TestPartialWriteTearsMessage(t *testing.T) {
	s := NewScript(1, Fault{Round: 2, Kind: PartialWrite, Bytes: 4})
	c, srv := pipePeer(s, "c0")
	defer srv.Close()

	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 16)
		n, _ := srv.Read(buf)
		got <- buf[:n]
	}()

	c.MarkRound(2)
	n, err := c.Write([]byte("0123456789"))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("partial write err = %v, want ErrInjected", err)
	}
	if n != 4 {
		t.Errorf("partial write wrote %d bytes, want 4", n)
	}
	select {
	case b := <-got:
		if string(b) != "0123" {
			t.Errorf("peer read %q, want prefix \"0123\"", b)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer never saw the torn prefix")
	}
}

func TestPeerScoping(t *testing.T) {
	s := NewScript(1, Fault{Peer: "victim", Round: 0, Kind: Sever})
	bystander, srv := pipePeer(s, "bystander")
	defer srv.Close()
	bystander.MarkRound(0)
	go func() { _, _ = srv.Read(make([]byte, 8)) }()
	if _, err := bystander.Write([]byte("ok")); err != nil {
		t.Errorf("fault leaked to a different peer: %v", err)
	}
}

func TestListenerNamesByAcceptOrder(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewScript(1, Fault{Peer: "accept:1", Round: 0, Kind: Sever})
	ln := s.Listener(inner)
	defer ln.Close()

	accepted := make(chan net.Conn, 2)
	go func() {
		for i := 0; i < 2; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted <- conn
		}
	}()
	for i := 0; i < 2; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
	}
	first := (<-accepted).(*Conn)
	second := (<-accepted).(*Conn)
	first.MarkRound(0)
	second.MarkRound(0)
	if _, err := first.Write([]byte("x")); err != nil {
		t.Errorf("accept:0 severed, fault targeted accept:1: %v", err)
	}
	if _, err := second.Write([]byte("x")); !errors.Is(err, ErrInjected) {
		t.Errorf("accept:1 not severed: %v", err)
	}
}
