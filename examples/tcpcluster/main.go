// Tcpcluster runs twelve real block servers on localhost TCP ports, stores
// a Carousel-coded file across them, reads it back from all twelve in
// parallel, kills a server, performs a degraded (re-planned) read,
// corrupts a block and lets the checksum scrub repair it, and finally
// regenerates the lost block with helper chunks computed server-side — the
// complete deployment story of the paper over actual sockets.
//
// With -obs-addr the process also serves the observability endpoint
// (/metrics, /debug/vars, /debug/pprof/, /debug/traces) so the whole run
// can be scraped; -hold keeps the process alive after the demo for that
// purpose (CI boots it with both to grep the metric families).
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"carousel"
	"carousel/internal/blockserver"
	"carousel/internal/obs"
)

var log = obs.SetDefaultLogger(false)

// fatal logs through the shared slog handler and exits nonzero.
func fatal(msg string, args ...any) {
	log.Error(msg, args...)
	os.Exit(1)
}

func main() {
	obsAddr := flag.String("obs-addr", "", "observability HTTP address; empty disables")
	hold := flag.Duration("hold", 0, "keep the process (and the obs endpoint) alive this long after the demo")
	flag.Parse()
	if *obsAddr != "" {
		bound, stop, err := obs.Serve(*obsAddr)
		if err != nil {
			fatal("observability endpoint failed", "err", err)
		}
		defer stop()
		fmt.Printf("observability endpoint on http://%s/metrics\n", bound)
	}

	code, err := carousel.New(12, 6, 10, 12)
	if err != nil {
		fatal("bad code", "err", err)
	}
	blockSize := 128 * code.BlockAlign()

	// The whole demo runs under one deadline: every dial, read, and repair
	// below inherits it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// Twelve servers on ephemeral localhost ports, one per block index.
	servers := make([]*blockserver.Server, 12)
	addrs := make([]string, 12)
	for i := range servers {
		servers[i] = blockserver.NewServer(code)
		addr, err := servers[i].Start("127.0.0.1:0")
		if err != nil {
			fatal("server start failed", "err", err)
		}
		addrs[i] = addr
	}
	fmt.Printf("12 block servers up (e.g. %s ... %s)\n", addrs[0], addrs[11])

	store, err := blockserver.NewStore(code, addrs, blockSize,
		blockserver.WithHedgeDelay(250*time.Millisecond))
	if err != nil {
		fatal("store construction failed", "err", err)
	}
	data := make([]byte, 2*6*blockSize+1234)
	rand.New(rand.NewSource(7)).Read(data)
	stripes, err := store.WriteFile(ctx, "demo", data)
	if err != nil {
		fatal("write failed", "err", err)
	}
	fmt.Printf("stored %d bytes as %d stripes, block %d B, data on all 12 servers\n",
		len(data), stripes, blockSize)

	got, stats, err := store.ReadFile(ctx, "demo", len(data))
	if err != nil {
		fatal("healthy read failed", "err", err)
	}
	if !bytes.Equal(got, data) {
		fatal("healthy read mismatch")
	}
	fmt.Printf("healthy read: 1/12 of the data from each server, path=%s\n", stats.Path())

	// Kill server 5 and read again: the stripes that meet the dead source
	// re-plan around it (parity-unit patches: p = n leaves no spare block)
	// and the pool remembers it for the stripes that follow. The read is
	// traced: its span tree is on /debug/traces under the printed ID.
	servers[5].Close()
	tctx, root := obs.StartSpan(ctx, "tcpcluster.degraded_read")
	got, stats, err = store.ReadFile(tctx, "demo", len(data))
	root.End()
	if err != nil {
		fatal("degraded read failed", "err", err)
	}
	if !bytes.Equal(got, data) {
		fatal("degraded read mismatch")
	}
	fmt.Printf("killed server 5: degraded read intact, path=%s (%d stripes fell back, trace %d)\n",
		stats.Path(), stats.StripesFallback, stats.TraceID)

	// Corrupt a block on server 2: the stored checksum catches it, the
	// read decodes around it, and a scrub re-encodes the block in place.
	if err := servers[2].CorruptBlock(blockserver.BlockName("demo", 0, 2), 9); err != nil {
		fatal("corrupt injection failed", "err", err)
	}
	got, stats, err = store.ReadFile(ctx, "demo", len(data))
	if err != nil || !bytes.Equal(got, data) {
		fatal("read with corrupt block failed", "err", err)
	}
	fmt.Printf("corrupted a block on server 2: checksum caught it, read intact (%d corrupt source(s) seen)\n",
		stats.CorruptSources)
	rep, err := store.Scrub(ctx, "demo", len(data), true)
	if err != nil {
		fatal("scrub failed", "err", err)
	}
	fmt.Printf("scrub: %d blocks checked, %d corrupt, %d repaired, %d unreachable, %d torn stripes (moving %d bytes)\n",
		rep.BlocksChecked, len(rep.Corrupt), len(rep.Repaired), len(rep.Unreachable), len(rep.Torn), rep.TrafficBytes)

	// Bring up a replacement server and regenerate block 5 of each stripe
	// from helper chunks computed on the other servers.
	replacement := blockserver.NewServer(code)
	newAddr, err := replacement.Start("127.0.0.1:0")
	if err != nil {
		fatal("replacement start failed", "err", err)
	}
	addrs[5] = newAddr
	store, err = blockserver.NewStore(code, addrs, blockSize)
	if err != nil {
		fatal("store construction failed", "err", err)
	}
	total := 0
	for st := 0; st < stripes; st++ {
		traffic, err := store.Repair(ctx, "demo", st, 5)
		if err != nil {
			fatal("repair failed", "stripe", st, "err", err)
		}
		total += traffic
	}
	fmt.Printf("repaired block 5 of every stripe onto %s, moving %d bytes total\n", newAddr, total)
	fmt.Printf("(%.2f blocks per repair; a Reed-Solomon repair would move %d bytes per stripe)\n",
		float64(total)/float64(stripes)/float64(blockSize), 6*blockSize)

	got, stats, err = store.ReadFile(ctx, "demo", len(data))
	if err != nil {
		fatal("post-repair read failed", "err", err)
	}
	if !bytes.Equal(got, data) {
		fatal("post-repair read mismatch")
	}
	fmt.Printf("post-repair read: all 12 servers serving original data again, path=%s\n", stats.Path())

	if *hold > 0 {
		fmt.Printf("holding for %v for scrapes\n", *hold)
		time.Sleep(*hold)
	}
}
