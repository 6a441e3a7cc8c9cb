package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/obs"
)

// FuzzConfig drives a fuzzing campaign.
type FuzzConfig struct {
	// Seeds is the number of scenarios to run, starting at StartSeed.
	// Ignored when Budget is set.
	Seeds int
	// StartSeed is the first seed (default 1).
	StartSeed int64
	// Budget, when set, runs scenarios until the wall-clock budget is
	// spent instead of a fixed count.
	Budget time.Duration
	// Gen bounds scenario generation (app/engine filters).
	Gen GenConfig
	// Exec tunes per-scenario execution.
	Exec ExecConfig
	// MaxFailures stops the campaign early after this many failures
	// (default 5 — each failure costs a shrinking pass).
	MaxFailures int
	// ShrinkAttempts budgets each failure's shrinking pass.
	ShrinkAttempts int
	// ReproDir, when set, receives one shrunk repro file per failure
	// (chaos-seed-<seed>.script).
	ReproDir string
	// Logf, when set, receives campaign progress.
	Logf func(format string, args ...any)
}

// Failure records one failing scenario and its shrunk form.
type Failure struct {
	Seed      int64
	Outcome   Outcome
	Err       error
	Shrunk    *Scenario
	ReproPath string
}

// FuzzResult summarizes a campaign.
type FuzzResult struct {
	Scenarios int
	OK        int
	Short     int
	Failures  []Failure
	Elapsed   time.Duration
}

// Fuzz runs the campaign: generate, execute, classify; shrink and dump a
// repro for every failure.
func Fuzz(cfg FuzzConfig) (*FuzzResult, error) {
	if cfg.Seeds == 0 {
		cfg.Seeds = 50
	}
	if cfg.StartSeed == 0 {
		cfg.StartSeed = 1
	}
	if cfg.MaxFailures == 0 {
		cfg.MaxFailures = 5
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	start := time.Now()
	res := &FuzzResult{}
	deadline := time.Time{}
	if cfg.Budget > 0 {
		deadline = start.Add(cfg.Budget)
	}

	for i := 0; ; i++ {
		if cfg.Budget > 0 {
			if !time.Now().Before(deadline) {
				break
			}
		} else if i >= cfg.Seeds {
			break
		}
		seed := cfg.StartSeed + int64(i)
		s, err := Generate(seed, cfg.Gen)
		if err != nil {
			return nil, fmt.Errorf("chaos: generating seed %d: %w", seed, err)
		}
		rep := Execute(s, cfg.Exec)
		res.Scenarios++
		switch {
		case rep.Outcome == OutcomeOK:
			res.OK++
		case rep.Outcome == OutcomeShort:
			res.Short++
			logf("seed %d short (%s): %v", seed, s.App, rep.Err)
		default:
			logf("seed %d FAILED (%s): %s: %v", seed, rep.Outcome, s.String(), rep.Err)
			fail := Failure{Seed: seed, Outcome: rep.Outcome, Err: rep.Err}
			shrunk, attempts := Shrink(s, cfg.Exec, cfg.ShrinkAttempts)
			fail.Shrunk = shrunk
			logf("seed %d shrunk after %d attempts: %s", seed, attempts, shrunk.String())
			if cfg.ReproDir != "" {
				path := filepath.Join(cfg.ReproDir, fmt.Sprintf("chaos-seed-%d.script", seed))
				if err := WriteRepro(path, shrunk); err != nil {
					logf("seed %d: writing repro: %v", seed, err)
				} else {
					fail.ReproPath = path
					logf("seed %d repro written to %s", seed, path)
				}
			}
			res.Failures = append(res.Failures, fail)
			if len(res.Failures) >= cfg.MaxFailures {
				logf("stopping after %d failures", len(res.Failures))
				res.Elapsed = time.Since(start)
				return res, nil
			}
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// Replay executes a scenario loaded from a repro file (or rebuilt from a
// seed) once and returns its report.
func Replay(s *Scenario, cfg ExecConfig) *Report {
	return Execute(s, cfg)
}

// ReplayCorpus executes every *.script repro in dir under each
// combination of execution engine and checkpoint mode it is replayed in
// (corpusVariants), and returns the reports keyed by file path plus the
// combination, e.g. "corpus/x.script engine=jit ckpt=async".
func ReplayCorpus(dir string, cfg ExecConfig) (map[string]*Report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.script"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	out := make(map[string]*Report, len(paths))
	for _, path := range paths {
		s, err := LoadRepro(path)
		if err != nil {
			return nil, err
		}
		for _, v := range corpusVariants(s) {
			key := fmt.Sprintf("%s engine=%s ckpt=%s", path, engineName(v.Params.Engine), ckptName(v.Params.Ckpt))
			out[key] = Execute(v, cfg)
		}
	}
	return out, nil
}

// corpusVariants returns the runs a corpus repro is replayed as: on every
// registered engine unless the repro names one, and both in its own
// checkpoint mode (full when it names none) and under write-behind
// commit (async). A fault schedule that is clean in one mode can wedge
// in another, since async moves commits off the node's goroutine.
func corpusVariants(s *Scenario) []*Scenario {
	engines := []string{s.Params.Engine}
	if s.Params.Engine == "" {
		engines = engineNames()
	}
	modes := []string{ckptName(s.Params.Ckpt)}
	if modes[0] != "async" {
		modes = append(modes, "async")
	}
	var out []*Scenario
	for _, eng := range engines {
		for _, mode := range modes {
			v := *s
			v.Params.Engine, v.Params.Ckpt = eng, mode
			out = append(out, &v)
		}
	}
	return out
}

// WriteBench writes the campaign's BENCH_chaos.json: throughput plus the
// event-mix and network coverage counters accumulated in reg.
func WriteBench(w io.Writer, res *FuzzResult, reg *obs.Registry) error {
	doc := map[string]any{
		"scenarios":   res.Scenarios,
		"ok":          res.OK,
		"short":       res.Short,
		"failures":    len(res.Failures),
		"elapsed_sec": res.Elapsed.Seconds(),
	}
	if res.Elapsed > 0 {
		doc["scenarios_per_sec"] = float64(res.Scenarios) / res.Elapsed.Seconds()
	}
	var seeds []int64
	for _, f := range res.Failures {
		seeds = append(seeds, f.Seed)
	}
	doc["failing_seeds"] = seeds
	if reg != nil {
		doc["coverage"] = reg.Snapshot()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteBenchFile is WriteBench to a path.
func WriteBenchFile(path string, res *FuzzResult, reg *obs.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return WriteBench(f, res, reg)
}
