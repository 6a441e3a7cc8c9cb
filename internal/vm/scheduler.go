package vm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/rt"
)

// Scheduler multiplexes several processes on one OS thread with a fixed
// step quantum, round-robin. It is the footing for the paper's §5
// context-switch yardstick: speculation operation costs are compared
// against the cost of switching between two processes with resident heaps.
type Scheduler struct {
	procs   []*Process
	quantum uint64
	// switches is atomic: RunQuantum may be invoked for distinct
	// processes from concurrent goroutines.
	switches atomic.Uint64
}

// NewScheduler creates a scheduler with the given step quantum per turn
// (minimum 1).
func NewScheduler(quantum uint64) *Scheduler {
	if quantum == 0 {
		quantum = 1
	}
	return &Scheduler{quantum: quantum}
}

// Add registers a process. The process must already be started.
func (s *Scheduler) Add(p *Process) error {
	if p.Status() != rt.StatusRunning {
		return fmt.Errorf("vm: scheduler requires a running process, got %s", p.Status())
	}
	s.procs = append(s.procs, p)
	return nil
}

// Switches returns the number of context switches performed.
func (s *Scheduler) Switches() uint64 { return s.switches.Load() }

// Len returns the number of registered processes.
func (s *Scheduler) Len() int { return len(s.procs) }

// Proc returns the i-th registered process.
func (s *Scheduler) Proc(i int) *Process { return s.procs[i] }

// RunQuantum gives the i-th process one quantum (or less, if it yields or
// reaches a terminal state mid-quantum) and returns its resulting status.
// It is the scheduler's single dispatch point: Run and Turn are loops over
// it, and a concurrent execution engine may invoke it for distinct i from
// different goroutines — each process is only ever stepped through its own
// RunQuantum call, preserving the deterministic per-process step order.
func (s *Scheduler) RunQuantum(i int) (rt.Status, error) {
	p := s.procs[i]
	if p.Status() != rt.StatusRunning {
		return p.Status(), nil
	}
	st, err := p.RunSteps(s.quantum)
	s.switches.Add(1)
	return st, err
}

// Run executes all processes round-robin until every one reaches a
// terminal state. Individual process failures do not stop the scheduler;
// the first failure is returned after everything settles.
func (s *Scheduler) Run() error {
	var firstErr error
	for {
		running := 0
		for i, p := range s.procs {
			if p.Status() != rt.StatusRunning {
				continue
			}
			running++
			_, err := s.RunQuantum(i)
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		if running == 0 {
			return firstErr
		}
	}
}

// Turn gives every running process one quantum and reports whether any
// process is still running. Benchmarks drive Turn directly to time the
// switch path.
func (s *Scheduler) Turn() bool {
	any := false
	for i, p := range s.procs {
		if p.Status() != rt.StatusRunning {
			continue
		}
		_, _ = s.RunQuantum(i)
		if p.Status() == rt.StatusRunning {
			any = true
		}
	}
	return any
}

// ErrDeadlock is reserved for cooperative blocking externs (message
// receive) that can detect a cycle; the message layer returns it when
// every process is blocked on an empty channel.
var ErrDeadlock = errors.New("vm: all processes blocked")
