// Command blockserverd runs one standalone Carousel block server: an
// in-memory TCP block store that also computes repair chunks server-side.
// Twelve of these (one per block index) plus carouselctl-encoded blocks
// make a minimal deployed Carousel store; examples/tcpcluster drives the
// same flow in-process.
//
// The -obs-addr flag starts the observability endpoint: /metrics
// (Prometheus text), /debug/vars (expvar), /debug/pprof/ and /debug/traces
// (recent read/repair span trees). `carouselctl stats` scrapes a set of
// these endpoints and merges them into one cluster view.
//
// The -fault-* flags interpose the faultnet injection harness between the
// socket and the protocol, so a deployed cluster can be exercised under
// the same straggler/partition/corruption faults the test matrix uses:
//
//	blockserverd -fault-delay 250ms        # straggler: delay every write
//	blockserverd -fault-blackhole          # accept, then never respond
//	blockserverd -fault-corrupt            # flip a bit in payload writes
//	blockserverd -fault-cut-after 1048576  # drop conns after 1 MiB
//	blockserverd -fault-partition 10.0.0.7 # reject conns from a peer
//
// With -master set the daemon joins a carouselmaster control plane: beat
// (the first beat registers; each piggybacks capacity, corrupt-serve and
// health counters) at the master-acked interval with jittered reconnect
// backoff, and leave on SIGINT/SIGTERM so shutdown is a clean drain
// instead of a detected failure.
//
// Usage:
//
//	blockserverd [-addr 127.0.0.1:7070] [-master 127.0.0.1:7060] [-advertise host:port] [-obs-addr 127.0.0.1:7071] [-n 12 -k 6 -d 10 -p 12] [-fault-...]
package main

import (
	"flag"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/faultnet"
	"carousel/internal/master"
	"carousel/internal/obs"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7070", "listen address")
	masterAddr := flag.String("master", "", "carouselmaster control-plane address; empty runs unmanaged")
	advertise := flag.String("advertise", "", "block-service address to register with the master (default: the bound listen address)")
	obsAddr := flag.String("obs-addr", "", "observability HTTP address (/metrics, /debug/vars, /debug/pprof, /debug/traces); empty disables")
	verbose := flag.Bool("v", false, "debug-level logging")
	n := flag.Int("n", 12, "total blocks per stripe")
	k := flag.Int("k", 6, "data blocks' worth of content per stripe")
	d := flag.Int("d", 10, "repair helpers")
	p := flag.Int("p", 12, "data parallelism")
	faultDelay := flag.Duration("fault-delay", 0, "inject: delay every response write (straggler)")
	faultBlackhole := flag.Bool("fault-blackhole", false, "inject: accept connections but never respond")
	faultCorrupt := flag.Bool("fault-corrupt", false, "inject: flip one bit in every payload write")
	faultCutAfter := flag.Int64("fault-cut-after", 0, "inject: cut each connection after this many bytes written")
	faultPartition := flag.String("fault-partition", "", "inject: comma-separated peer hosts whose connections are rejected")
	flag.Parse()

	log := obs.SetDefaultLogger(*verbose)
	code, err := carousel.New(*n, *k, *d, *p)
	if err != nil {
		log.Error("invalid code parameters", "err", err)
		os.Exit(1)
	}
	srv := blockserver.NewServer(code)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	policy := faultnet.Policy{
		DelayWrite:    *faultDelay,
		Blackhole:     *faultBlackhole,
		CorruptWrites: *faultCorrupt,
		CutAfterBytes: *faultCutAfter,
	}
	injected := policy != (faultnet.Policy{}) || *faultPartition != ""
	if injected {
		in := faultnet.NewInjector()
		in.SetDefault(policy)
		for _, host := range strings.Split(*faultPartition, ",") {
			if host = strings.TrimSpace(host); host != "" {
				in.SetPeer(host, faultnet.Policy{RejectConn: true})
			}
		}
		ln = in.Wrap(ln)
	}
	bound, err := srv.StartListener(ln)
	if err != nil {
		log.Error("start failed", "err", err)
		os.Exit(1)
	}
	log.Info("serving", "n", *n, "k", *k, "d", *d, "p", *p, "addr", bound)
	obsBound := ""
	if *obsAddr != "" {
		var stopObs func() error
		obsBound, stopObs, err = obs.Serve(*obsAddr)
		if err != nil {
			log.Error("observability endpoint failed", "addr", *obsAddr, "err", err)
			os.Exit(1)
		}
		defer stopObs()
		log.Info("observability endpoint up", "addr", obsBound,
			"endpoints", "/metrics /debug/vars /debug/pprof/ /debug/traces")
	}
	if injected {
		log.Warn("FAULT INJECTION ACTIVE",
			"delay", *faultDelay, "blackhole", *faultBlackhole, "corrupt", *faultCorrupt,
			"cut_after", *faultCutAfter, "partition", *faultPartition)
	}

	// With a master configured, run the membership side of the control
	// plane: beat with piggybacked capacity and health counters,
	// reconnecting with jittered backoff when the master is away.
	var hb *master.Heartbeater
	if *masterAddr != "" {
		adv := *advertise
		if adv == "" {
			adv = bound
		}
		hb = master.NewHeartbeater(master.HeartbeatConfig{
			Master: *masterAddr,
			Addr:   adv,
			Info: func() master.NodeInfo {
				blocks, bytes, corrupt := srv.Stats()
				p99, depth, tx := srv.ObsSummary()
				return master.NodeInfo{
					Addr: adv, Blocks: blocks, BlockBytes: bytes, CorruptServes: corrupt,
					ObsAddr:    obsBound,
					RPCP99NS:   p99,
					QueueDepth: depth,
					BytesTx:    tx,
				}
			},
		})
		hb.Start()
		log.Info("heartbeating", "master", *masterAddr, "advertise", adv)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Info("shutting down")
	if hb != nil {
		// Leave first — a clean drain: the master moves this node's blocks
		// immediately instead of waiting out the suspect window.
		hb.Stop()
		log.Info("deregistered from master")
	}
	// Close stops accepting, cancels in-flight connections, and joins
	// every handler; bound it so a wedged socket cannot hang shutdown.
	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
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
