// Command mccd is the MCC migration daemon: "a version of the compiler
// that will listen for incoming migration requests, recompile any inbound
// processes on the new machine, and reconstruct their state before
// executing them" (§4.2.1).
//
// Usage:
//
//	mccd [flags]
//
//	-listen ADDR    TCP listen address (default 127.0.0.1:9333)
//	-engine NAME    execution engine for resumed processes (see -help)
//	-trust          accept the trusted binary protocol (skips verification)
//	-store DIR      checkpoint directory for onward migrations
//	-fuel N         step budget per resumed process
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/migrate"
	"repro/internal/rt"
)

func main() {
	var (
		listen = flag.String("listen", "127.0.0.1:9333", "listen address")
		engSel = flag.String("engine", "", "execution engine: "+engine.Usage())
		trust  = flag.Bool("trust", false, "allow the trusted binary protocol")
		store  = flag.String("store", "", "checkpoint directory for onward migrations")
		fuel   = flag.Uint64("fuel", 0, "step budget per resumed process")
	)
	flag.Parse()

	eng, err := engine.Get(*engSel)
	if err != nil {
		fatal(err)
	}

	mig := &migrate.Migrator{}
	if *store != "" {
		ds, err := cluster.NewDirStore(*store)
		if err != nil {
			fatal(err)
		}
		mig.Store = ds
	} else {
		mig.Store = cluster.NewMemStore()
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := migrate.NewServer(l, migrate.ServerConfig{
		Engine:      eng.Name(),
		AllowBinary: *trust,
		Migrator:    mig,
		Config:      rt.Config{Stdout: os.Stdout, Fuel: *fuel},
	})
	fmt.Fprintf(os.Stderr, "mccd: listening on %s (engine=%s, binary=%v)\n", srv.Addr(), eng.Name(), *trust)
	if err := srv.Serve(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mccd:", err)
	os.Exit(1)
}
