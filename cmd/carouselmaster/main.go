// Command carouselmaster runs the Carousel control plane: a daemon that
// tracks blockserver membership through heartbeats, owns the file→server
// placement map, detects failures through an Alive → Suspect → Dead state
// machine, and supervises automatic repair — scheduling RecoverServer
// passes onto newcomers when a member dies and periodic Scrub sweeps in
// between, through a checkpointed task queue that survives master
// restarts via a crash-safe journal under -data.
//
// A minimal self-healing cluster:
//
//	carouselmaster -addr 127.0.0.1:7060 -data /var/lib/carousel/master &
//	for i in $(seq 0 11); do
//	  blockserverd -addr 127.0.0.1:70$((70+i)) -master 127.0.0.1:7060 &
//	done
//	carouselctl cluster status -master 127.0.0.1:7060
//
// Kill any blockserver and watch the master walk it Alive → Suspect →
// Dead, then rebuild its blocks onto the least-loaded survivor — no
// operator repair call involved.
//
// -addr serves the control protocol, JSON over HTTP (the routes are in
// package master's documentation); -obs-addr serves /metrics with the
// cluster_* roll-up gauges.
//
// Usage:
//
//	carouselmaster [-addr 127.0.0.1:7060] [-data DIR] [-obs-addr 127.0.0.1:7061]
//	               [-n 12 -k 6 -d 10 -p 12]
//	               [-heartbeat 2s] [-miss 3] [-grace 12s] [-hold 12s]
//	               [-scrub-every 0] [-recover-bw 0] [-recover-cap 2] [-scrub-cap 1]
package main

import (
	"flag"
	"os"
	"os/signal"
	"syscall"
	"time"

	"carousel/internal/carousel"
	"carousel/internal/master"
	"carousel/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7060", "control-plane listen address")
	dataDir := flag.String("data", "", "journal + snapshot directory; empty runs in memory (no restart recovery)")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address; empty disables")
	verbose := flag.Bool("v", false, "debug-level logging")
	n := flag.Int("n", 12, "total blocks per stripe")
	k := flag.Int("k", 6, "data blocks' worth of content per stripe")
	d := flag.Int("d", 10, "repair helpers")
	p := flag.Int("p", 12, "data parallelism")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "heartbeat interval acked to daemons")
	miss := flag.Int("miss", 3, "missed intervals before Alive -> Suspect")
	grace := flag.Duration("grace", 0, "Suspect -> Dead grace window (default 2*miss*heartbeat)")
	hold := flag.Duration("hold", 0, "rebuild hold after Dead, doubled per recent flap (default = grace)")
	scrubEvery := flag.Duration("scrub-every", 0, "periodic scrub sweep interval; 0 disables")
	recoverBW := flag.Int64("recover-bw", 0, "bandwidth budget of each recovery task, across all its files, in bytes/sec; 0 unthrottled")
	recoverCap := flag.Int("recover-cap", 2, "concurrent recovery tasks")
	scrubCap := flag.Int("scrub-cap", 1, "concurrent scrub tasks")
	flag.Parse()

	log := obs.SetDefaultLogger(*verbose)
	code, err := carousel.New(*n, *k, *d, *p)
	if err != nil {
		log.Error("invalid code parameters", "err", err)
		os.Exit(1)
	}
	m, err := master.New(master.Config{
		Code:              code,
		DataDir:           *dataDir,
		HeartbeatInterval: *heartbeat,
		MissLimit:         *miss,
		Grace:             *grace,
		RebuildHold:       *hold,
		ScrubInterval:     *scrubEvery,
		RecoverBandwidth:  *recoverBW,
		RecoverCap:        *recoverCap,
		ScrubCap:          *scrubCap,
		Logger:            log,
	})
	if err != nil {
		log.Error("master init failed", "err", err)
		os.Exit(1)
	}
	// The obs endpoint serves the cluster_* roll-up gauges the master
	// aggregates from heartbeats.
	if *obsAddr != "" {
		obsBound, stopObs, err := obs.Serve(*obsAddr)
		if err != nil {
			log.Error("observability endpoint failed", "addr", *obsAddr, "err", err)
			os.Exit(1)
		}
		defer stopObs()
		log.Info("observability endpoint up", "addr", obsBound)
	}
	if err := m.Start(*addr); err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	log.Info("control plane up", "addr", m.Addr(), "data", *dataDir,
		"heartbeat", *heartbeat, "miss", *miss, "scrub_every", *scrubEvery)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Info("shutting down")
	done := make(chan error, 1)
	go func() { done <- m.Close() }()
	select {
	case err := <-done:
		if err != nil {
			log.Error("shutdown error", "err", err)
			os.Exit(1)
		}
	case <-time.After(10 * time.Second):
		log.Error("shutdown timed out")
		os.Exit(1)
	}
}
