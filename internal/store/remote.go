package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"

	"repro/internal/frame"
	"repro/internal/migrate"
)

// The store protocol: the one wire format a migrate.Store travels in,
// spoken by cmd/mojstored on its own TCP connection (Server/Remote) and
// carried verbatim inside the transport hub's id-tagged store frames —
// the paper's NFS mount generalized to a replica endpoint or a
// coordinator.
//
// Request:  op byte + u16 name length + name + payload
//
//	'P' put, 'G' get, 'L' list (empty name), 'D' delete
//
// Response: status byte + body
//
//	'+' ok (body: data for get, '\n'-joined names for list)
//	'0' not-exist (get only)
//	'-' error (body: message)
//
// AppendRequest encodes, Handle runs a request against a backing store,
// and DecodeResponse maps the status back to nil, os.ErrNotExist or an
// error, so every carrier keeps the migrate.Store contract unchanged.

// Request ops.
const (
	OpPut    = 'P'
	OpGet    = 'G'
	OpList   = 'L'
	OpDelete = 'D'
)

const (
	statusOK       = '+'
	statusNotExist = '0'
	statusError    = '-'
)

// Request is one decoded store request. Payload aliases the encoded
// bytes it was decoded from.
type Request struct {
	Op      byte
	Name    string
	Payload []byte
}

// AppendRequest appends the encoding of one request to dst — the one
// copy of the payload the sending side makes.
func AppendRequest(dst []byte, op byte, name string, payload []byte) ([]byte, error) {
	if len(name) > 1<<16-1 {
		return dst, fmt.Errorf("store: name of %d bytes too long for wire", len(name))
	}
	dst = slices.Grow(dst, 3+len(name)+len(payload))
	dst = append(dst, op, byte(len(name)>>8), byte(len(name)))
	dst = append(dst, name...)
	return append(dst, payload...), nil
}

func decodeRequest(req []byte) (Request, error) {
	if len(req) < 3 {
		return Request{}, errors.New("store: short request")
	}
	nameLen := int(binary.BigEndian.Uint16(req[1:3]))
	if len(req) < 3+nameLen {
		return Request{}, errors.New("store: truncated request name")
	}
	return Request{Op: req[0], Name: string(req[3 : 3+nameLen]), Payload: req[3+nameLen:]}, nil
}

// Handle decodes one request, runs it against s and appends the encoded
// response to dst. It also returns the decoded request and the outcome
// (nil on success), so a carrier can observe completed writes.
func Handle(dst []byte, s migrate.Store, req []byte) ([]byte, Request, error) {
	r, err := decodeRequest(req)
	if err != nil {
		return append(append(dst, statusError), err.Error()...), r, err
	}
	var body []byte
	switch r.Op {
	case OpPut:
		err = s.Put(r.Name, r.Payload)
	case OpGet:
		body, err = s.Get(r.Name)
		if errors.Is(err, os.ErrNotExist) {
			return append(dst, statusNotExist), r, err
		}
	case OpList:
		var names []string
		if names, err = s.List(); err == nil {
			body = []byte(strings.Join(names, "\n"))
		}
	case OpDelete:
		err = s.Delete(r.Name)
	default:
		err = fmt.Errorf("store: unknown op %q", r.Op)
	}
	if err != nil {
		return append(append(dst, statusError), err.Error()...), r, err
	}
	dst = slices.Grow(dst, 1+len(body))
	return append(append(dst, statusOK), body...), r, nil
}

// DecodeResponse returns a response's body on success, an error matching
// os.ErrNotExist for a missing name, and the remote error otherwise. The
// body aliases resp.
func DecodeResponse(resp []byte) ([]byte, error) {
	if len(resp) == 0 {
		return nil, errors.New("store: empty response")
	}
	switch resp[0] {
	case statusOK:
		return resp[1:], nil
	case statusNotExist:
		return nil, os.ErrNotExist
	case statusError:
		return nil, errors.New(string(resp[1:]))
	default:
		return nil, fmt.Errorf("store: bad response status %q", resp[0])
	}
}

// SplitNames decodes a list response body.
func SplitNames(body []byte) []string {
	if len(body) == 0 {
		return nil
	}
	return strings.Split(string(body), "\n")
}

// Server serves a migrate.Store over TCP (cmd/mojstored wraps it).
type Server struct {
	backing migrate.Store
	ln      net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]bool
	wg     sync.WaitGroup
}

// Serve listens on addr and serves backing until Close.
func Serve(addr string, backing migrate.Store) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{backing: backing, ln: ln, conns: make(map[net.Conn]bool)}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and open connections, then waits for the
// handler goroutines.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) handle(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	fc := frame.NewConn(conn)
	for {
		req, err := fc.ReadFrame()
		if err != nil {
			return
		}
		resp, _, _ := Handle(nil, s.backing, req)
		if err := fc.WriteFrame(resp); err != nil {
			return
		}
	}
}

// Remote is the client side: a migrate.Store proxying to a Server. It
// holds one connection, serializes requests, and redials a broken
// connection on the next call — a restarted store server is picked up
// transparently.
type Remote struct {
	addr string

	mu   sync.Mutex
	conn net.Conn
	fc   *frame.Conn
}

// DialRemote creates a client for addr. The connection is established
// lazily on first use, so constructing a replica set does not require
// every endpoint to be up yet.
func DialRemote(addr string) *Remote { return &Remote{addr: addr} }

// Close drops the connection (a later call redials).
func (r *Remote) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn != nil {
		err := r.conn.Close()
		r.conn, r.fc = nil, nil
		return err
	}
	return nil
}

// roundTrip sends one request and decodes the response, holding the
// connection lock. A transport error tears the connection down so the
// next call redials.
func (r *Remote) roundTrip(op byte, name string, payload []byte) ([]byte, error) {
	req, err := AppendRequest(nil, op, name, payload)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == nil {
		conn, err := net.Dial("tcp", r.addr)
		if err != nil {
			return nil, fmt.Errorf("store: dial %s: %w", r.addr, err)
		}
		r.conn, r.fc = conn, frame.NewConn(conn)
	}
	if err := r.fc.WriteFrame(req); err != nil {
		r.conn.Close()
		r.conn, r.fc = nil, nil
		return nil, fmt.Errorf("store: %s: %w", r.addr, err)
	}
	resp, err := r.fc.ReadFrame()
	if err != nil {
		r.conn.Close()
		r.conn, r.fc = nil, nil
		return nil, fmt.Errorf("store: %s: %w", r.addr, err)
	}
	body, err := DecodeResponse(resp)
	if err != nil {
		return nil, fmt.Errorf("store: %s: checkpoint %q: %w", r.addr, name, err)
	}
	return body, nil
}

func (r *Remote) Put(name string, data []byte) error {
	_, err := r.roundTrip(OpPut, name, data)
	return err
}

func (r *Remote) Get(name string) ([]byte, error) {
	return r.roundTrip(OpGet, name, nil)
}

func (r *Remote) List() ([]string, error) {
	body, err := r.roundTrip(OpList, "", nil)
	return SplitNames(body), err
}

func (r *Remote) Delete(name string) error {
	_, err := r.roundTrip(OpDelete, name, nil)
	return err
}
