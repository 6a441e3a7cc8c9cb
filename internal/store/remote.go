package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"

	"repro/internal/frame"
	"repro/internal/migrate"
)

// The store protocol: the one wire format a migrate.Store travels in,
// spoken between Server and Remote over their own TCP connection — by
// cmd/mojstored, and by the store every transport hub starts beside its
// message link (the paper's NFS mount generalized to a replica endpoint
// or a coordinator).
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
// encodeRequest, serveRequest and decodeResponse are the whole codec:
// decodeResponse maps the status back to nil, os.ErrNotExist or an
// error, so a Remote keeps the migrate.Store contract unchanged.

// Request ops.
const (
	opPut    = 'P'
	opGet    = 'G'
	opList   = 'L'
	opDelete = 'D'
)

const (
	statusOK       = '+'
	statusNotExist = '0'
	statusError    = '-'
)

// encodeRequest encodes one request: the one copy of the payload the
// client makes.
func encodeRequest(op byte, name string, payload []byte) ([]byte, error) {
	if len(name) > 1<<16-1 {
		return nil, fmt.Errorf("store: name of %d bytes too long for wire", len(name))
	}
	b := make([]byte, 0, 3+len(name)+len(payload))
	b = append(b, op, byte(len(name)>>8), byte(len(name)))
	b = append(b, name...)
	return append(b, payload...), nil
}

// decodeRequest splits a request; payload aliases req.
func decodeRequest(req []byte) (op byte, name string, payload []byte, err error) {
	if len(req) < 3 {
		return 0, "", nil, errors.New("store: short request")
	}
	n := int(binary.BigEndian.Uint16(req[1:3]))
	if len(req) < 3+n {
		return 0, "", nil, errors.New("store: truncated request name")
	}
	return req[0], string(req[3 : 3+n]), req[3+n:], nil
}

// serveRequest decodes one request, runs it against s and returns the
// encoded response.
func serveRequest(s migrate.Store, req []byte) []byte {
	op, name, payload, err := decodeRequest(req)
	var body []byte
	switch {
	case err != nil:
	case op == opPut:
		err = s.Put(name, payload)
	case op == opGet:
		body, err = s.Get(name)
		if errors.Is(err, os.ErrNotExist) {
			return []byte{statusNotExist}
		}
	case op == opList:
		var names []string
		if names, err = s.List(); err == nil {
			body = []byte(strings.Join(names, "\n"))
		}
	case op == opDelete:
		err = s.Delete(name)
	default:
		err = fmt.Errorf("store: unknown op %q", op)
	}
	if err != nil {
		return append([]byte{statusError}, err.Error()...)
	}
	return append(append(make([]byte, 0, 1+len(body)), statusOK), body...)
}

// decodeResponse returns a response's body on success, an error matching
// os.ErrNotExist for a missing name, and the remote error otherwise. The
// body aliases resp.
func decodeResponse(resp []byte) ([]byte, error) {
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

// Server serves a migrate.Store over TCP: cmd/mojstored, and the store
// every transport hub starts beside its message link.
type Server struct {
	backing migrate.Store
	fs      *frame.Server
}

// Serve listens on addr and serves backing until Close.
func Serve(addr string, backing migrate.Store) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{backing: backing}
	s.fs = frame.NewServer(ln, 0, s.handle)
	go s.fs.Serve()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.fs.Addr() }

// Close stops the listener and open connections, then waits for the
// handler goroutines.
func (s *Server) Close() error { return s.fs.Close() }

func (s *Server) handle(conn net.Conn) {
	for {
		req, err := frame.Read(conn)
		if err != nil || frame.Write(conn, serveRequest(s.backing, req)) != nil {
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
}

// DialRemote creates a client for addr. The connection is established
// lazily on first use, so constructing a replica set does not require
// every endpoint to be up yet.
func DialRemote(addr string) *Remote { return &Remote{addr: addr} }

// Close drops the connection (a later call redials).
func (r *Remote) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.conn == nil {
		return nil
	}
	err := r.conn.Close()
	r.conn = nil
	return err
}

// roundTrip sends one request and decodes the response, holding the
// connection lock. A transport error tears the connection down so the
// next call redials.
func (r *Remote) roundTrip(op byte, name string, payload []byte) ([]byte, error) {
	req, err := encodeRequest(op, name, payload)
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
		r.conn = conn
	}
	err = frame.Write(r.conn, req)
	var resp []byte
	if err == nil {
		resp, err = frame.Read(r.conn)
	}
	if err != nil {
		r.conn.Close()
		r.conn = nil
		return nil, fmt.Errorf("store: %s: %w", r.addr, err)
	}
	body, err := decodeResponse(resp)
	if err != nil {
		return nil, fmt.Errorf("store: %s: checkpoint %q: %w", r.addr, name, err)
	}
	return body, nil
}

func (r *Remote) Put(name string, data []byte) error {
	_, err := r.roundTrip(opPut, name, data)
	return err
}

func (r *Remote) Get(name string) ([]byte, error) {
	return r.roundTrip(opGet, name, nil)
}

func (r *Remote) List() ([]string, error) {
	body, err := r.roundTrip(opList, "", nil)
	if err != nil || len(body) == 0 {
		return nil, err
	}
	return strings.Split(string(body), "\n"), nil
}

func (r *Remote) Delete(name string) error {
	_, err := r.roundTrip(opDelete, name, nil)
	return err
}
