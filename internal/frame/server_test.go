package frame

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"
)

// listen starts a Server on a loopback port and closes it at cleanup.
func listen(t *testing.T, idle time.Duration, handle func(net.Conn)) *Server {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(ln, idle, handle)
	go s.Serve()
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func dial(t *testing.T, s *Server) net.Conn {
	t.Helper()
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

// within fails the test unless done is closed before d passes.
func within(t *testing.T, done <-chan struct{}, d time.Duration, what string) {
	t.Helper()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not happen within %s", what, d)
	}
}

// echo answers every frame with itself until the peer goes away.
func echo(conn net.Conn) {
	for {
		b, err := Read(conn)
		if err != nil {
			return
		}
		if err := Write(conn, b); err != nil {
			return
		}
	}
}

// TestServerCloseEndsIdleConn: Close returns although a handler sits in a
// read on a peer that sends nothing, and that handler exits.
func TestServerCloseEndsIdleConn(t *testing.T) {
	started, exited := make(chan struct{}), make(chan struct{})
	s := listen(t, 0, func(conn net.Conn) {
		defer close(exited)
		close(started)
		_, _ = Read(conn)
	})
	dial(t, s)
	within(t, started, 5*time.Second, "the handler start")
	closed := make(chan struct{})
	go func() {
		_ = s.Close()
		close(closed)
	}()
	within(t, closed, 5*time.Second, "Close")
	within(t, exited, time.Second, "the handler exit")
}

// TestServerShutdownWaitsForHandler: Shutdown waits for a handler still
// at work, leaves its connection open, and accepts nothing more.
func TestServerShutdownWaitsForHandler(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	s := listen(t, 0, func(conn net.Conn) {
		close(started)
		<-release
		_ = Write(conn, []byte("done"))
	})
	c := dial(t, s)
	within(t, started, 5*time.Second, "the handler start")

	shut := make(chan struct{})
	go func() {
		_ = s.Shutdown()
		close(shut)
	}()
	select {
	case <-shut:
		t.Fatal("Shutdown returned while a handler was still running")
	case <-time.After(100 * time.Millisecond):
	}
	if c2, err := net.DialTimeout("tcp", s.Addr(), time.Second); err == nil {
		_ = c2.Close()
		t.Fatal("Shutdown left the listener open")
	}
	close(release)
	got, err := Read(c)
	if err != nil || string(got) != "done" {
		t.Fatalf("handler reply after Shutdown = %q, %v: its connection was closed", got, err)
	}
	within(t, shut, 5*time.Second, "Shutdown")
}

// TestServerCloseConnsKeepsAccepting: CloseConns cuts every live
// connection, and the server goes on serving new ones.
func TestServerCloseConnsKeepsAccepting(t *testing.T) {
	s := listen(t, 0, echo)
	c1 := dial(t, s)
	if err := Write(c1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if got, err := Read(c1); err != nil || string(got) != "one" {
		t.Fatalf("echo = %q, %v", got, err)
	}
	s.CloseConns()
	_ = c1.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := Read(c1); err == nil {
		t.Fatal("a connection survived CloseConns")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("CloseConns left the connection open")
	}
	c2 := dial(t, s)
	if err := Write(c2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if got, err := Read(c2); err != nil || string(got) != "two" {
		t.Fatalf("echo after CloseConns = %q, %v", got, err)
	}
}

// TestServerIdleDeadline: a peer that trickles a frame with gaps under
// the idle window survives well past it, and a peer that stalls is cut
// off after it.
func TestServerIdleDeadline(t *testing.T) {
	const idle = 300 * time.Millisecond
	s := listen(t, idle, echo)

	slow := dial(t, s)
	payload := bytes.Repeat([]byte{0x5a}, 64)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := slow.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(payload); off += 16 {
		time.Sleep(200 * time.Millisecond) // < idle; four gaps ≈ 2.7× idle
		if _, err := slow.Write(payload[off : off+16]); err != nil {
			t.Fatalf("trickled write at offset %d: %v", off, err)
		}
	}
	_ = slow.SetReadDeadline(time.Now().Add(5 * time.Second))
	if got, err := Read(slow); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("a progressing peer was cut off: %d bytes, %v", len(got), err)
	}

	stalled := dial(t, s)
	_ = stalled.SetReadDeadline(time.Now().Add(5 * time.Second))
	var one [1]byte
	if _, err := stalled.Read(one[:]); err == nil {
		t.Fatal("read data from a server that should have dropped the peer")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatal("a stalled peer kept its connection past the idle window")
	}
}
