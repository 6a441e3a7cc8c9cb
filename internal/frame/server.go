package frame

import (
	"net"
	"sync"
	"time"
)

// Server is the one accept loop every TCP service in this repository
// runs on (the store server, the migration server, the serving daemon
// and the transport hub): it accepts connections, runs a handler per
// connection on its own goroutine, keeps a registry of the live
// connections and closes each one when its handler returns.
type Server struct {
	ln     net.Listener
	idle   time.Duration
	handle func(net.Conn)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // the accept loop and every handler
}

// NewServer wraps a listener; Serve starts accepting. When idle > 0 each
// handler's connection carries a rolling deadline: every Read and Write
// first pushes the deadline idle into the future, so a connection dies
// after idle without progress, however long a slow but steady transfer
// takes as a whole.
func NewServer(ln net.Listener, idle time.Duration, handle func(net.Conn)) *Server {
	return &Server{ln: ln, idle: idle, handle: handle, conns: make(map[net.Conn]struct{})}
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Serve accepts connections until the listener closes. It returns nil
// once Close or Shutdown stopped it, and the accept error otherwise.
func (s *Server) Serve() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.wg.Add(1)
	s.mu.Unlock()
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			if conn != nil {
				_ = conn.Close()
			}
			return nil
		}
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.run(conn)
	}
}

func (s *Server) run(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if s.idle > 0 {
		s.handle(idleConn{Conn: conn, idle: s.idle})
		return
	}
	s.handle(conn)
}

// CloseConns closes every live connection and keeps accepting new ones:
// a network blip, as every peer sees it.
func (s *Server) CloseConns() {
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
}

// Shutdown stops accepting and waits for the handlers to return on their
// own; it closes no connection.
func (s *Server) Shutdown() error {
	err := s.stop()
	s.wg.Wait()
	return err
}

// Close stops accepting, closes the live connections and waits for the
// handlers to return.
func (s *Server) Close() error {
	err := s.stop()
	s.CloseConns()
	s.wg.Wait()
	return err
}

func (s *Server) stop() error {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return nil
	}
	return s.ln.Close()
}

// idleConn refreshes a rolling deadline before every I/O operation.
type idleConn struct {
	net.Conn
	idle time.Duration
}

func (c idleConn) Read(p []byte) (int, error) {
	_ = c.Conn.SetDeadline(time.Now().Add(c.idle))
	return c.Conn.Read(p)
}

func (c idleConn) Write(p []byte) (int, error) {
	_ = c.Conn.SetDeadline(time.Now().Add(c.idle))
	return c.Conn.Write(p)
}
