package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/fir"
	"repro/internal/frame"
	"repro/internal/heap"
	"repro/internal/migrate"
	"repro/internal/msg"
	"repro/internal/rt"
	"repro/internal/transport"
	"repro/internal/wire"
)

// usOf times fn reps times and returns the median in µs.
func usOf(reps int, fn func() error) (float64, error) {
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(ds), nil
}

// probeAll runs the direct probes: timed calls into single public
// functions of one layer each, on an artifact of this workload (the final
// checkpoint image of node 0, fetched from the last traced run's store)
// or on a small fixed input. Each probe is one probe.* span.
func (b *bench) probeAll(ms metricSet, v variant, last *iterOut, spans *spanRec, reps int) error {
	w, p := b.sh.w, v.p
	var (
		img     *wire.Image
		encoded []byte
	)
	// The externs a node of this workload runs with; the functions are
	// never called, the signatures feed the inbound type check.
	externs := msg.NewRouter().Externs(0)
	for n, x := range w.Externs(p, 0) {
		externs[n] = x
	}
	sigs := rt.StdExterns().Sigs()
	for n, s := range externs.Sigs() {
		sigs[n] = s
	}
	words := make([]heap.Value, 64)
	for i := range words {
		words[i] = heap.IntVal(int64(i))
	}

	// In order: later probes use the image and its encoding from earlier ones.
	probes := []struct {
		name string
		fn   func() error
	}{
		{"lang", func() error {
			us, err := usOf(reps, func() error { _, err := w.Program(p); return err })
			ms["lang.compile_ms"] = us / 1e3
			return err
		}},
		// migrate.FetchImage resolves the head ref and any delta chain.
		{"migrate.fetch", func() (err error) {
			ms["migrate.fetch_us"], err = usOf(reps, func() (err error) {
				img, err = migrate.FetchImage(last.store.inner, w.CheckpointName(0))
				return err
			})
			return err
		}},
		{"wire", func() (err error) {
			ms["wire.encode_us"], _ = usOf(reps, func() error {
				encoded = wire.AppendImage(encoded[:0], img)
				return nil
			})
			ms["wire.image_bytes"] = float64(len(encoded))
			ms["wire.encode_mb_per_s"] = ratio(float64(len(encoded)), ms["wire.encode_us"])
			ms["wire.decode_us"], err = usOf(reps, func() error { _, err := wire.DecodeImage(encoded); return err })
			return err
		}},
		{"heap", func() (err error) {
			var h *heap.Heap
			ms["heap.restore_us"], err = usOf(reps, func() (err error) {
				h, err = heap.Restore(img.State.Heap, heap.Config{})
				return err
			})
			if err != nil {
				return err
			}
			var snap *heap.Snapshot
			ms["heap.snapshot_us"], _ = usOf(reps, func() error { snap = h.Snapshot(); return nil })
			ms["heap.live_entries"] = float64(len(snap.Entries))
			return nil
		}},
		{"fir", func() error {
			prog, err := fir.DecodeProgram(img.Code.Program)
			if err != nil {
				return err
			}
			if ms["fir.check_us"], err = usOf(reps, func() error { return fir.Check(prog, sigs) }); err != nil {
				return err
			}
			ms["fir.encode_us"], _ = usOf(reps, func() error { fir.EncodeProgram(prog); return nil })
			ms["fir.program_bytes"] = float64(len(img.Code.Program))
			return nil
		}},
		{"engine.precompile", func() error {
			eng, err := engine.Get(engineName)
			if err != nil {
				return err
			}
			pc, ok := eng.(engine.Precompiler)
			if !ok {
				ms["engine.precompile_us"] = 0
				return nil
			}
			ms["engine.precompile_us"], err = usOf(reps, func() error {
				// A freshly decoded program: no artifact cache can know it.
				prog, err := fir.DecodeProgram(img.Code.Program)
				if err != nil {
					return err
				}
				_, err = pc.Precompile(prog)
				return err
			})
			return err
		}},
		{"migrate.unpack", func() error {
			var total, dec, chk, comp, rest []float64
			for i := 0; i < reps; i++ {
				fresh, err := wire.DecodeImage(encoded)
				if err != nil {
					return err
				}
				_, tm, err := migrate.Unpack(fresh, migrate.Options{Engine: engineName, Externs: externs})
				if err != nil {
					return err
				}
				us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
				total = append(total, us(tm.Total()))
				dec, chk = append(dec, us(tm.Decode)), append(chk, us(tm.Check))
				comp, rest = append(comp, us(tm.Compile)), append(rest, us(tm.Restore))
			}
			ms["migrate.unpack_us"] = median(total)
			ms["migrate.unpack_decode_us"] = median(dec)
			ms["migrate.unpack_check_us"] = median(chk)
			ms["migrate.unpack_compile_us"] = median(comp)
			ms["migrate.unpack_restore_us"] = median(rest)
			return nil
		}},
		{"msg", func() error {
			const n = 2000
			r := msg.NewRouter()
			defer r.Close()
			t0 := time.Now()
			for i := int64(0); i < n; i++ {
				if err := r.Send(0, 1, i, words); err != nil {
					return err
				}
				if _, st := r.Recv(1, 0, i); st != msg.StatusOK {
					return fmt.Errorf("recv status %d", st)
				}
				r.GC(1, i)
			}
			ms["msg.send_recv_ns"] = float64(time.Since(t0).Nanoseconds()) / n
			return nil
		}},
		{"frame", func() error {
			const n = 2000
			var buf bytes.Buffer
			payload := make([]byte, 512)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				if err := frame.Write(&buf, payload); err != nil {
					return err
				}
				if _, err := frame.Read(&buf); err != nil {
					return err
				}
			}
			ms["frame.roundtrip_ns"] = float64(time.Since(t0).Nanoseconds()) / n
			return nil
		}},
		{"transport.relay", func() error { return probeRelay(ms, words, 200*reps) }},
	}
	for _, pr := range probes {
		id := spans.start("probe."+pr.name, -1, b.iter)
		err := pr.fn()
		spans.end(id)
		if err != nil {
			return fmt.Errorf("bench: probe %s: %w", pr.name, err)
		}
	}
	return nil
}

// probeRelay ping-pongs one 64-word message between two transport.Clients
// through a loopback Hub: every round trip crosses the hub relay twice.
func probeRelay(ms metricSet, words []heap.Value, trips int) error {
	hub, err := transport.Listen("127.0.0.1:0", cluster.NewMemStore())
	if err != nil {
		return err
	}
	defer hub.Close()
	join := func(node int64) (*msg.Router, *transport.Client, error) {
		r := msg.NewRouter()
		r.SetLocal(node)
		c, err := transport.Dial(transport.ClientConfig{Addr: hub.Addr(), Node: node, Router: r})
		if err != nil {
			return nil, nil, err
		}
		r.SetUplink(c)
		return r, c, nil
	}
	r0, c0, err := join(0)
	if err != nil {
		return err
	}
	defer c0.Close()
	r1, c1, err := join(1)
	if err != nil {
		return err
	}
	defer c1.Close()

	// The ponger ends after its last echo, or when r1 closes under it; a
	// side that fails closes the other's router so neither parks forever.
	ponged := make(chan error, 1)
	go func() {
		for i := int64(0); i < int64(trips); i++ {
			got, st := r1.Recv(1, 0, i)
			var err error
			if st != msg.StatusOK {
				err = fmt.Errorf("pong recv status %d", st)
			} else {
				err = r1.Send(1, 0, i, got)
			}
			if err != nil {
				r0.Close() // unblocks the pinger's receive
				ponged <- err
				return
			}
		}
		ponged <- nil
	}()
	var rtts []float64
	t0 := time.Now()
	for i := int64(0); i < int64(trips); i++ {
		s := time.Now()
		err := r0.Send(0, 1, i, words)
		if err == nil {
			if _, st := r0.Recv(0, 1, i); st != msg.StatusOK {
				err = fmt.Errorf("ping recv status %d", st)
			}
		}
		if err != nil {
			r1.Close()
			return errors.Join(err, <-ponged)
		}
		rtts = append(rtts, float64(time.Since(s).Nanoseconds())/1e3)
	}
	total := time.Since(t0)
	if err := <-ponged; err != nil {
		return err
	}
	ms["transport.relay_rtt_us_p50"] = median(rtts)
	ms["transport.relay_msgs_per_s"] = float64(2*trips) / total.Seconds()
	return nil
}
