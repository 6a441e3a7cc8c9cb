// Command mcc is the Mojave compiler driver: it compiles MojC source to
// FIR, optionally emits the FIR, and runs the program on either execution
// engine.
//
// Usage:
//
//	mcc [flags] file.mc
//
//	-run            execute after compiling (default true)
//	-engine NAME    execution engine (see -help for the registered ones)
//	-emit fir       also print the FIR the engines run (optimised)
//	-arg N          append a process argument (repeatable)
//	-fuel N         step budget (0 = unlimited)
//	-trap           roll back the innermost speculation on runtime errors
//	-store DIR      directory for checkpoint:// and suspend:// targets
//	-lang NAME      source language: mojc (default) or pascal
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/rt"
)

type intList []int64

func (l *intList) String() string { return fmt.Sprint(*l) }
func (l *intList) Set(s string) error {
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return err
	}
	*l = append(*l, v)
	return nil
}

func main() {
	var (
		run     = flag.Bool("run", true, "execute the program after compiling")
		engSel  = flag.String("engine", "", "execution engine: "+engine.Usage())
		emit    = flag.String("emit", "", "print intermediate form: fir (the optimised FIR the engines run)")
		fuel    = flag.Uint64("fuel", 0, "step budget (0 = unlimited)")
		trap    = flag.Bool("trap", false, "auto-rollback speculations on runtime errors")
		store   = flag.String("store", "", "checkpoint directory for migrate()/checkpoint:// targets")
		langSel = flag.String("lang", "", "source language: mojc or pascal (default: by extension, .pas = pascal)")
		args    intList
	)
	flag.Var(&args, "arg", "process argument (repeatable)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: mcc [flags] file.mc")
		flag.Usage()
		os.Exit(2)
	}

	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	language := *langSel
	if language == "" {
		if strings.HasSuffix(flag.Arg(0), ".pas") {
			language = "pascal"
		} else {
			language = "mojc"
		}
	}
	var prog *core.Program
	switch language {
	case "pascal":
		prog, err = core.CompilePascal(string(src), nil)
	case "mojc", "c":
		prog, err = core.Compile(string(src), nil)
	default:
		err = fmt.Errorf("unknown language %q", language)
	}
	if err != nil {
		fatal(err)
	}
	switch *emit {
	case "":
	case "fir":
		fmt.Print(fir.Format(prog.FIR))
	default:
		fatal(fmt.Errorf("unknown -emit kind %q", *emit))
	}
	if !*run {
		return
	}

	p, err := core.NewProcess(prog, *engSel, rt.Config{
		Stdout: os.Stdout, Fuel: *fuel,
		Args: args, TrapSpeculation: *trap, Name: flag.Arg(0),
	})
	if err != nil {
		fatal(err)
	}
	if *store != "" {
		ds, err := cluster.NewDirStore(*store)
		if err != nil {
			fatal(err)
		}
		p.UseMigrator(ds, nil)
	} else {
		p.UseMigrator(cluster.NewMemStore(), nil)
	}
	if err := p.Start(); err != nil {
		fatal(err)
	}
	st, err := p.Run()
	switch st {
	case rt.StatusHalted:
		os.Exit(int(p.HaltCode() & 0x7f))
	case rt.StatusMigrated:
		fmt.Fprintln(os.Stderr, "mcc: process migrated away")
	case rt.StatusSuspended:
		fmt.Fprintln(os.Stderr, "mcc: process suspended to checkpoint storage")
	default:
		fatal(fmt.Errorf("process %s: %v", st, err))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcc:", err)
	os.Exit(1)
}
