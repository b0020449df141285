package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"carousel/internal/master"
	"carousel/internal/obs"
)

// cmdTrace collects one trace from a set of /debug/traces endpoints and
// prints the stitched cross-node span tree: the client's stripe/fetch spans
// with the server-side fetch/verify/decode spans nested under them. The
// endpoints come from -addrs, or are discovered through the master's
// cluster view (-master), which includes the master's own obs endpoint so
// control-plane spans stitch in too.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated observability addresses (host:port) to collect from")
	masterAddr := fs.String("master", "", "discover observability addresses from this carouselmaster")
	timeout := fs.Duration("timeout", 5*time.Second, "overall collection timeout")
	fs.Parse(args)
	if fs.NArg() != 1 || (*addrs == "" && *masterAddr == "") {
		usage()
	}
	trace, err := strconv.ParseUint(fs.Arg(0), 0, 64)
	if err != nil || trace == 0 {
		return fmt.Errorf("trace ID %q is not a nonzero integer", fs.Arg(0))
	}

	endpoints := splitAddrs(*addrs)
	if *masterAddr != "" {
		c := master.NewClient(*masterAddr, &master.ClientOptions{DialTimeout: *timeout, IOTimeout: *timeout})
		cs, err := c.Status()
		c.Close()
		if err != nil {
			return fmt.Errorf("master %s: %w", *masterAddr, err)
		}
		endpoints = append(endpoints, cs.ObsAddrs()...)
	}
	if len(endpoints) == 0 {
		return fmt.Errorf("no observability endpoints: none given with -addrs and the master reports none")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	client := &http.Client{Timeout: *timeout}
	spans, errs := obs.CollectTrace(ctx, client, endpoints, trace)
	for addr, cerr := range errs {
		fmt.Fprintf(os.Stderr, "  %-28s ERROR: %v\n", addr, cerr)
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace %d not found on %d endpoint(s)", trace, len(endpoints))
	}
	nodes := map[string]bool{}
	for _, s := range spans {
		if n, ok := s.Attr("node").(string); ok {
			nodes[n] = true
		}
	}
	fmt.Printf("trace %d: %d spans from %d node(s)\n\n", trace, len(spans), len(nodes))
	fmt.Print(obs.TreeString(spans))
	if len(errs) > 0 {
		return fmt.Errorf("%w: %d of %d endpoint(s) unreachable", errPartialStats, len(errs), len(endpoints))
	}
	return nil
}

// cmdTop polls the master's cluster view and renders a refreshing per-node
// health table: the heartbeat-piggybacked throughput, windowed RPC p99,
// queue depth, remaining SLO error budget, and stripe-cache hit rate, plus
// the cluster roll-up line the master's cluster_* gauges export.
func cmdTop(args []string) error {
	fs := flag.NewFlagSet("top", flag.ExitOnError)
	masterAddr := fs.String("master", "127.0.0.1:7060", "carouselmaster control-plane address")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	count := fs.Int("count", 0, "number of refreshes (0 = until interrupted)")
	timeout := fs.Duration("timeout", 5*time.Second, "per-request timeout")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}
	c := master.NewClient(*masterAddr, &master.ClientOptions{DialTimeout: *timeout, IOTimeout: *timeout})
	defer c.Close()
	for i := 0; ; i++ {
		cs, err := c.Status()
		if err != nil {
			return fmt.Errorf("master %s: %w", *masterAddr, err)
		}
		if *count != 1 && i > 0 {
			fmt.Print("\x1b[H\x1b[2J") // home + clear: refresh in place
		}
		printTop(*masterAddr, cs)
		if *count > 0 && i+1 >= *count {
			return nil
		}
		time.Sleep(*interval)
	}
}

// printTop renders one top frame.
func printTop(masterAddr string, cs *master.ClusterStatus) {
	fmt.Printf("cluster @ %s  %s  files %d  tasks %d pending / %d running\n",
		masterAddr, time.Now().Format("15:04:05"), cs.Files, cs.Pending, cs.Running)
	if len(cs.Members) == 0 {
		fmt.Println("no members registered")
		return
	}
	members := append([]master.MemberStatus(nil), cs.Members...)
	sort.Slice(members, func(i, j int) bool { return members[i].Addr < members[j].Addr })
	fmt.Printf("\n%-24s %-8s %10s %10s %7s %10s %8s\n",
		"MEMBER", "STATE", "TX RATE", "RPC P99", "QUEUE", "BUDGET", "CORRUPT")
	var rollup master.Rollup
	rollup.ErrorBudgetMinPPM = 1_000_000
	alive := 0
	for _, m := range members {
		budget := "-"
		p99 := "-"
		rate := "-"
		if m.ObsAddr != "" {
			budget = fmt.Sprintf("%.1f%%", float64(m.ErrorBudgetPPM)/10_000)
			p99 = formatNS(m.RPCP99NS)
			rate = formatRate(m.TxRateBps)
		}
		fmt.Printf("%-24s %-8s %10s %10s %7d %10s %8d\n",
			m.Addr, m.State, rate, p99, m.QueueDepth, budget, m.CorruptServes)
		if m.State != "alive" {
			continue
		}
		alive++
		rollup.Blocks += m.Blocks
		rollup.BlockBytes += m.BlockBytes
		rollup.CorruptServes += m.CorruptServes
		if m.ObsAddr == "" {
			continue
		}
		rollup.QueueDepth += m.QueueDepth
		rollup.TxRateBps += m.TxRateBps
		if m.RPCP99NS > rollup.RPCP99NS {
			rollup.RPCP99NS = m.RPCP99NS
		}
		if m.ErrorBudgetPPM < rollup.ErrorBudgetMinPPM {
			rollup.ErrorBudgetMinPPM = m.ErrorBudgetPPM
		}
	}
	fmt.Printf("\ncluster: %d alive, %d blocks (%s), tx %s, worst p99 %s, queue %d, min budget %.1f%%\n",
		alive, rollup.Blocks, formatBytes(rollup.BlockBytes), formatRate(rollup.TxRateBps),
		formatNS(rollup.RPCP99NS), rollup.QueueDepth, float64(rollup.ErrorBudgetMinPPM)/10_000)
}

// splitAddrs parses a comma-separated address list, dropping blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// formatNS renders nanoseconds human-readably.
func formatNS(ns int64) string {
	return time.Duration(ns).Round(10 * time.Microsecond).String()
}

// formatRate renders bytes/sec.
func formatRate(bps int64) string {
	return formatBytes(bps) + "/s"
}

// formatBytes renders a byte count with a binary-prefix unit.
func formatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}
