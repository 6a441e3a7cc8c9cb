package migrate

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/frame"
	"repro/internal/rt"
	"repro/internal/wire"
)

// The transmit protocol reproduces §4.2.2's two-phase shape: the source
// first sends the code part (FIR, sizes, migrate_env index, resume label);
// the server decodes, verifies and recompiles it, and only after a
// successful ack does the source send the heap contents. Frames are
// length-prefixed (the shared internal/frame codec, also spoken by the
// distributed cluster transport); the first byte of a session selects
// trusted ('B', binary protocol) or untrusted ('U') handling.

const (
	modeUntrusted = 'U'
	modeBinary    = 'B'
)

func sendStatus(w io.Writer, err error) error {
	if err != nil {
		msg := err.Error()
		if len(msg) > 4096 {
			msg = msg[:4096]
		}
		return frame.Write(w, append([]byte("ERR "), msg...))
	}
	return frame.Write(w, []byte("OK"))
}

func readStatus(r io.Reader) error {
	f, err := frame.Read(r)
	if err != nil {
		return err
	}
	if string(f) == "OK" {
		return nil
	}
	if len(f) >= 4 && string(f[:4]) == "ERR " {
		return fmt.Errorf("migrate: remote: %s", f[4:])
	}
	return fmt.Errorf("migrate: unexpected status frame %q", f)
}

// Dialer opens a connection to a migration server. The cluster layer
// supplies dialers that model network bandwidth.
type Dialer func(addr string) (net.Conn, error)

// Migrator is the client side of process migration: an rt.MigrateHandler
// that dispatches on the target protocol. Install it on every process that
// executes migrate pseudo-instructions.
type Migrator struct {
	// Store receives checkpoint and suspend images.
	Store Store
	// Dial opens connections for the migrate protocols. Defaults to
	// net.Dial("tcp", addr).
	Dial Dialer
	// Timeout bounds each network round trip (default 30s).
	Timeout time.Duration

	mu   sync.Mutex
	last ClientTimings
}

// ClientTimings breaks down where the source-side migration time went,
// reproducing §5's transfer-fraction measurements.
type ClientTimings struct {
	Pack     time.Duration // state capture (GC + snapshot + encode)
	Transfer time.Duration // network transmission incl. server acks
	Bytes    int           // bytes shipped
}

// LastTimings returns the breakdown of the most recent migration.
func (m *Migrator) LastTimings() ClientTimings {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.last
}

// Handle implements rt.MigrateHandler.
func (m *Migrator) Handle(req *rt.MigrationRequest) (rt.MigrateOutcome, error) {
	proto, addr, err := ParseTarget(req.Target)
	if err != nil {
		return rt.OutcomeContinueLocal, err
	}

	t0 := time.Now()
	img, err := Pack(req.Rt, req.Label, req.FnIndex, req.Args)
	if err != nil {
		return rt.OutcomeContinueLocal, err
	}
	pack := time.Since(t0)

	switch proto {
	case ProtoCheckpoint, ProtoSuspend:
		if m.Store == nil {
			return rt.OutcomeContinueLocal, errors.New("migrate: no checkpoint store configured")
		}
		data := wire.EncodeImage(img)
		if err := m.Store.Put(addr, data); err != nil {
			return rt.OutcomeContinueLocal, err
		}
		m.record(ClientTimings{Pack: pack, Bytes: len(data)})
		if proto == ProtoSuspend {
			return rt.OutcomeSuspended, nil
		}
		return rt.OutcomeContinueLocal, nil

	case ProtoMigrate, ProtoMigrateBinary:
		t1 := time.Now()
		if err := m.ship(proto, addr, img); err != nil {
			return rt.OutcomeContinueLocal, err
		}
		code := wire.EncodeCode(&img.Code)
		state := wire.EncodeState(&img.State)
		m.record(ClientTimings{Pack: pack, Transfer: time.Since(t1), Bytes: len(code) + len(state) + 1})
		return rt.OutcomeMigrated, nil

	default:
		return rt.OutcomeContinueLocal, fmt.Errorf("migrate: unhandled protocol %s", proto)
	}
}

func (m *Migrator) record(t ClientTimings) {
	m.mu.Lock()
	m.last = t
	m.mu.Unlock()
}

func (m *Migrator) ship(proto Proto, addr string, img *wire.Image) error {
	dial := m.Dial
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	timeout := m.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	conn, err := dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(timeout))

	mode := byte(modeUntrusted)
	if proto == ProtoMigrateBinary {
		mode = modeBinary
	}
	if _, err := conn.Write([]byte{mode}); err != nil {
		return err
	}
	// Phase 1: code. The server verifies and recompiles before acking.
	if err := frame.Write(conn, wire.EncodeCode(&img.Code)); err != nil {
		return err
	}
	if err := readStatus(conn); err != nil {
		return err
	}
	// Phase 2: state (pointer table + heap contents).
	if err := frame.Write(conn, wire.EncodeState(&img.State)); err != nil {
		return err
	}
	return readStatus(conn)
}

// ServerConfig configures a migration server ("a version of the compiler
// that will listen for incoming migration requests, recompile any inbound
// processes on the new machine, and reconstruct their state before
// executing them", §4.2.1).
type ServerConfig struct {
	// Engine names the execution engine (internal/engine registry)
	// resumed processes run on; empty selects the default.
	Engine string
	// Externs are additional externals available to resumed processes.
	Externs rt.Registry
	// Config carries process options applied to resumed processes; name
	// and arguments come from each image.
	Config rt.Config
	// OnResume, when set, takes ownership of the resumed process instead
	// of the default run-to-completion goroutine. The cluster layer uses
	// it to place processes on node schedulers.
	OnResume func(p rt.Proc)
	// AllowBinary permits the trusted binary protocol. A server exposed to
	// untrusted peers must leave it off, forcing verification.
	AllowBinary bool
	// Migrator, when set, is installed as the migrate handler on resumed
	// processes so they can migrate onward, checkpoint, or suspend from
	// this node.
	Migrator *Migrator
	// IdleTimeout bounds how long a session may go without transferring a
	// single byte (default 60s): frame.Server refreshes it on every read
	// and write, so a large transfer that keeps making progress never
	// trips it — only a genuinely stalled peer does.
	IdleTimeout time.Duration
}

// ServerStats counts server activity. LastUnpack is the most recent
// accepted unpack, whatever it found cached; LastMiss is the most recent
// one that met its program for the first time (Timings.Cached false) —
// the paper's migration cost, which LastUnpack stops showing once the
// same code arrives twice.
type ServerStats struct {
	Accepted   int
	Rejected   int
	LastUnpack Timings
	LastMiss   Timings
}

// Server is a migration daemon listening for inbound processes.
type Server struct {
	cfg ServerConfig
	fs  *frame.Server

	mu    sync.Mutex
	stats ServerStats
	procs sync.WaitGroup // resumed processes run to completion here
}

// NewServer wraps a listener; call Serve to accept.
func NewServer(l net.Listener, cfg ServerConfig) *Server {
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}
	s := &Server{cfg: cfg}
	s.fs = frame.NewServer(l, cfg.IdleTimeout, s.handle)
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.fs.Addr() }

// Stats returns a copy of the counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Serve accepts migration sessions until the listener closes.
func (s *Server) Serve() error { return s.fs.Serve() }

// Close stops accepting and waits for in-flight sessions and the
// processes they resumed.
func (s *Server) Close() error {
	err := s.fs.Shutdown()
	s.procs.Wait()
	return err
}

func (s *Server) handle(conn net.Conn) {
	var mode [1]byte
	if _, err := io.ReadFull(conn, mode[:]); err != nil {
		return
	}
	trusted := mode[0] == modeBinary
	if trusted && !s.cfg.AllowBinary {
		s.reject()
		_ = sendStatus(conn, errors.New("binary protocol not allowed"))
		return
	}

	codeBytes, err := frame.Read(conn)
	if err != nil {
		return
	}
	code, err := wire.DecodeCode(codeBytes)
	if err != nil {
		s.reject()
		_ = sendStatus(conn, err)
		return
	}
	// The unpack (verify + recompile) work happens once the state arrives;
	// phase 1 acks after a decode so a hopeless transfer stops early. The
	// full verification still occurs before anything executes.
	if err := sendStatus(conn, nil); err != nil {
		return
	}

	stateBytes, err := frame.Read(conn)
	if err != nil {
		return
	}
	state, err := wire.DecodeState(stateBytes)
	if err != nil {
		s.reject()
		_ = sendStatus(conn, err)
		return
	}

	img := &wire.Image{Code: *code, State: *state}
	proc, tm, err := Unpack(img, Options{
		Engine:  s.cfg.Engine,
		Trusted: trusted,
		Externs: s.cfg.Externs,
		Config:  s.cfg.Config,
	})
	if err != nil {
		s.reject()
		_ = sendStatus(conn, err)
		return
	}

	if s.cfg.Migrator != nil {
		proc.SetMigrateHandler(s.cfg.Migrator.Handle)
	}

	s.mu.Lock()
	s.stats.Accepted++
	s.stats.LastUnpack = tm
	if !tm.Cached {
		s.stats.LastMiss = tm
	}
	s.mu.Unlock()

	if s.cfg.OnResume != nil {
		s.cfg.OnResume(proc)
	} else {
		s.procs.Add(1)
		go func() {
			defer s.procs.Done()
			_, _ = proc.Run()
		}()
	}
	_ = sendStatus(conn, nil)
}

// reject counts a refused transfer. Callers count before they send the
// refusal, so a peer that has read it also finds it in Stats.
func (s *Server) reject() {
	s.mu.Lock()
	s.stats.Rejected++
	s.mu.Unlock()
}
