package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/master"
	"carousel/internal/obs"
)

// cmdCluster talks to a carouselmaster control plane: status prints the
// membership table (state machine position, capacity, flap history) and
// the repair task queue; drain asks the master to move a member's blocks
// off ahead of maintenance; put/get store and fetch files through
// master-owned placements (put with no explicit layout lets the master
// pick the emptiest alive servers).
func cmdCluster(args []string) error {
	if len(args) < 1 {
		usage()
	}
	switch args[0] {
	case "status":
		return cmdClusterStatus(args[1:])
	case "drain":
		return cmdClusterDrain(args[1:])
	case "put":
		return cmdClusterPut(args[1:])
	case "get":
		return cmdClusterGet(args[1:])
	}
	usage()
	return nil
}

// clusterCode builds the code from the shared -n/-k/-d/-p flags; the
// parameters must match the master's (both default to the paper's
// 12/6/10/12).
func clusterCode(n, k, d, p int) (*carousel.Code, error) {
	code, err := carousel.New(n, k, d, p)
	if err != nil {
		return nil, fmt.Errorf("code parameters: %w", err)
	}
	return code, nil
}

func cmdClusterPut(args []string) error {
	fs := flag.NewFlagSet("cluster put", flag.ExitOnError)
	masterAddr := fs.String("master", "127.0.0.1:7060", "carouselmaster control-plane address")
	timeout := fs.Duration("timeout", time.Minute, "overall timeout")
	name := fs.String("name", "", "stored file name (default: the local file's base name)")
	n := fs.Int("n", 12, "total blocks per stripe")
	k := fs.Int("k", 6, "data blocks' worth of content per stripe")
	d := fs.Int("d", 10, "repair helpers")
	p := fs.Int("p", 12, "data parallelism")
	block := fs.Int("block", 0, "block size in bytes (default: 4096 coding units)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	path := fs.Arg(0)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	code, err := clusterCode(*n, *k, *d, *p)
	if err != nil {
		return err
	}
	blockSize := *block
	if blockSize == 0 {
		blockSize = code.BlockAlign() * 4096
	}
	fileName := *name
	if fileName == "" {
		fileName = filepath.Base(path)
	}
	c := master.NewClient(*masterAddr, &master.ClientOptions{DialTimeout: *timeout, IOTimeout: *timeout})
	defer c.Close()
	rep, err := c.Place(master.PlaceRequest{Name: fileName, Size: len(data), BlockSize: blockSize})
	if err != nil {
		return fmt.Errorf("master %s: %w", *masterAddr, err)
	}
	if rep.Size != len(data) {
		return fmt.Errorf("%q is already placed with size %d; this file is %d bytes", fileName, rep.Size, len(data))
	}
	st, err := blockserver.NewStore(code, rep.Addrs, rep.BlockSize)
	if err != nil {
		return err
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if _, err := st.WriteFile(ctx, fileName, data); err != nil {
		return fmt.Errorf("writing %q: %w", fileName, err)
	}
	fmt.Printf("put %s: %d bytes across %d servers (block %d)\n", fileName, len(data), len(rep.Addrs), rep.BlockSize)
	return nil
}

func cmdClusterGet(args []string) error {
	fs := flag.NewFlagSet("cluster get", flag.ExitOnError)
	masterAddr := fs.String("master", "127.0.0.1:7060", "carouselmaster control-plane address")
	timeout := fs.Duration("timeout", time.Minute, "overall timeout")
	n := fs.Int("n", 12, "total blocks per stripe")
	k := fs.Int("k", 6, "data blocks' worth of content per stripe")
	d := fs.Int("d", 10, "repair helpers")
	p := fs.Int("p", 12, "data parallelism")
	count := fs.Int("count", 1, "read the file this many times (re-reads exercise the stripe cache)")
	cacheMiB := fs.Int("cache", 0, "stripe-cache budget in MiB (0 disables caching)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		usage()
	}
	fileName, outPath := fs.Arg(0), fs.Arg(1)
	code, err := clusterCode(*n, *k, *d, *p)
	if err != nil {
		return err
	}
	c := master.NewClient(*masterAddr, &master.ClientOptions{DialTimeout: *timeout, IOTimeout: *timeout})
	defer c.Close()
	rep, err := c.Place(master.PlaceRequest{Name: fileName})
	if err != nil {
		return fmt.Errorf("master %s: %w", *masterAddr, err)
	}
	var opts []blockserver.StoreOption
	if *cacheMiB > 0 {
		opts = append(opts, blockserver.WithStripeCache(int64(*cacheMiB)<<20))
	}
	st, err := blockserver.NewStore(code, rep.Addrs, rep.BlockSize, opts...)
	if err != nil {
		return err
	}
	defer st.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if *count < 1 {
		*count = 1
	}
	var data []byte
	var stats *blockserver.ReadStats
	cacheHits := 0
	for i := 0; i < *count; i++ {
		// Each pass roots a trace of its own; the last one's ID is printed.
		tctx, root := obs.StartSpan(ctx, "carouselctl.get")
		data, stats, err = st.ReadFile(tctx, fileName, rep.Size)
		root.End()
		if err != nil {
			return fmt.Errorf("reading %q (pass %d of %d): %w", fileName, i+1, *count, err)
		}
		cacheHits += stats.CacheHits
	}
	if err := os.WriteFile(outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("got %s: %d bytes -> %s (%d stripes parallel, %d whole, %d fallback)\n",
		fileName, len(data), outPath, stats.StripesParallel, stats.StripesWhole, stats.StripesFallback)
	if *cacheMiB > 0 {
		cst := st.Cache().Stats()
		fmt.Printf("cache: %d stripe hits over %d read(s), %s resident, %d inserts, %d evictions\n",
			cacheHits, *count, formatBytes(cst.Bytes), cst.Inserts, cst.Evictions)
	}
	fmt.Printf("trace %d (carouselctl trace -master %s %d)\n", stats.TraceID, *masterAddr, stats.TraceID)
	return nil
}

func cmdClusterStatus(args []string) error {
	fs := flag.NewFlagSet("cluster status", flag.ExitOnError)
	masterAddr := fs.String("master", "127.0.0.1:7060", "carouselmaster control-plane address")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	fs.Parse(args)
	if fs.NArg() != 0 {
		usage()
	}
	c := master.NewClient(*masterAddr, &master.ClientOptions{DialTimeout: *timeout, IOTimeout: *timeout})
	defer c.Close()
	cs, err := c.Status()
	if err != nil {
		return fmt.Errorf("master %s: %w", *masterAddr, err)
	}
	fmt.Printf("master %s  epoch %s  files %d  tasks %d pending / %d running\n",
		*masterAddr, time.Unix(0, cs.Epoch).Format(time.RFC3339), cs.Files, cs.Pending, cs.Running)
	if len(cs.Members) == 0 {
		fmt.Println("no members registered")
	} else {
		fmt.Printf("\n%-24s %-8s %12s %8s %14s %8s %6s\n",
			"MEMBER", "STATE", "LAST BEAT", "BLOCKS", "BYTES", "CORRUPT", "FLAPS")
		members := append([]master.MemberStatus(nil), cs.Members...)
		sort.Slice(members, func(i, j int) bool { return members[i].Addr < members[j].Addr })
		for _, m := range members {
			fmt.Printf("%-24s %-8s %11dms %8d %14d %8d %6d\n",
				m.Addr, m.State, m.LastBeatAgoMS, m.Blocks, m.BlockBytes, m.CorruptServes, m.Flaps)
		}
	}
	if len(cs.Tasks) > 0 {
		fmt.Printf("\n%-6s %-8s %-8s %-24s %12s %10s  %s\n",
			"TASK", "CLASS", "STATE", "SERVER", "CHECKPOINT", "REPAIRED", "ERROR")
		for _, t := range cs.Tasks {
			fmt.Printf("%-6d %-8s %-8s %-24s %6d/%-5d %10d  %s\n",
				t.ID, t.Class, t.State, t.Server, t.Checkpoint, t.Items, t.BlocksRepaired, t.Err)
		}
	}
	return nil
}

func cmdClusterDrain(args []string) error {
	fs := flag.NewFlagSet("cluster drain", flag.ExitOnError)
	masterAddr := fs.String("master", "127.0.0.1:7060", "carouselmaster control-plane address")
	timeout := fs.Duration("timeout", 5*time.Second, "request timeout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		usage()
	}
	addr := fs.Arg(0)
	c := master.NewClient(*masterAddr, &master.ClientOptions{DialTimeout: *timeout, IOTimeout: *timeout})
	defer c.Close()
	rep, err := c.Leave(addr)
	if err != nil {
		return fmt.Errorf("master %s: %w", *masterAddr, err)
	}
	fmt.Printf("draining %s: %d file(s) scheduled to move\n", addr, rep.Files)
	return nil
}
