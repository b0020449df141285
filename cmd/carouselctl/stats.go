package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"carousel/internal/obs"
)

// cmdStats scrapes the /debug/vars endpoint of every listed node, decodes
// each node's carousel_metrics snapshot, merges the snapshots into one
// cluster-wide view, and pretty-prints it grouped by subsystem — the
// operational companion of the paper's read/repair time decomposition:
// store_* shows which path served reads and what repairs cost,
// blockserver_* the RPC traffic underneath, codeplan_*/workpool_* the
// decode compute. -raw prints the merged view as /metrics text.
func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	addrs := fs.String("addrs", "", "comma-separated observability addresses (host:port) to scrape")
	raw := fs.Bool("raw", false, "print the merged snapshot as /metrics exposition text instead of the summary")
	timeout := fs.Duration("timeout", 5*time.Second, "per-scrape HTTP timeout")
	fs.Parse(args)
	if *addrs == "" || fs.NArg() != 0 {
		usage()
	}
	merged := obs.NewSnapshot()
	client := &http.Client{Timeout: *timeout}
	// An unreachable node degrades the scrape instead of failing it: the
	// reachable nodes still merge, every node gets a status row, and the
	// distinct exit code tells scripts the view is partial.
	type nodeResult struct {
		addr string
		err  error
	}
	var results []nodeResult
	scraped, failed := 0, 0
	for _, a := range strings.Split(*addrs, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		snap, err := scrape(client, a)
		if err != nil {
			results = append(results, nodeResult{a, err})
			failed++
			continue
		}
		merged.Merge(snap)
		results = append(results, nodeResult{a, nil})
		scraped++
	}
	if scraped == 0 && failed == 0 {
		usage()
	}
	if scraped == 0 {
		for _, r := range results {
			fmt.Fprintf(os.Stderr, "  %-28s ERROR: %v\n", r.addr, r.err)
		}
		return fmt.Errorf("all %d node(s) unreachable", failed)
	}
	if *raw {
		if err := obs.WriteText(os.Stdout, merged); err != nil {
			return err
		}
	} else {
		printStats(merged, scraped)
		fmt.Printf("\nnodes\n")
		for _, r := range results {
			if r.err != nil {
				fmt.Printf("  %-28s ERROR: %v\n", r.addr, r.err)
			} else {
				fmt.Printf("  %-28s ok\n", r.addr)
			}
		}
	}
	if failed > 0 {
		return fmt.Errorf("%w: %d of %d node(s) unreachable", errPartialStats, failed, scraped+failed)
	}
	return nil
}

// scrape fetches one node's /debug/vars and decodes its carousel_metrics,
// the snapshot its /metrics page renders.
func scrape(client *http.Client, addr string) (*obs.Snapshot, error) {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	resp, err := client.Get(url + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var vars struct {
		Metrics *obs.Snapshot `json:"carousel_metrics"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, err
	}
	if vars.Metrics == nil {
		return nil, errors.New("/debug/vars holds no carousel_metrics")
	}
	return vars.Metrics, nil
}

// group buckets a full metric name by its subsystem prefix.
func group(full string) string {
	fam := obs.Family(full)
	if i := strings.IndexByte(fam, '_'); i > 0 {
		return fam[:i]
	}
	return fam
}

// printStats renders the merged snapshot grouped by subsystem, scalars
// first, histograms with count/mean/tail quantiles.
func printStats(s *obs.Snapshot, nodes int) {
	fmt.Printf("cluster stats from %d node(s)\n", nodes)
	type scalar struct {
		name string
		v    int64
	}
	groups := map[string][]scalar{}
	for name, v := range s.Counters {
		g := group(name)
		groups[g] = append(groups[g], scalar{name, v})
	}
	for name, v := range s.Gauges {
		g := group(name)
		groups[g] = append(groups[g], scalar{name, v})
	}
	histGroups := map[string][]string{}
	for name := range s.Histograms {
		g := group(name)
		histGroups[g] = append(histGroups[g], name)
	}
	names := make([]string, 0, len(groups))
	seen := map[string]bool{}
	for g := range groups {
		if !seen[g] {
			names = append(names, g)
			seen[g] = true
		}
	}
	for g := range histGroups {
		if !seen[g] {
			names = append(names, g)
			seen[g] = true
		}
	}
	sort.Strings(names)
	for _, g := range names {
		fmt.Printf("\n%s\n", g)
		sc := groups[g]
		sort.Slice(sc, func(i, j int) bool { return sc[i].name < sc[j].name })
		for _, m := range sc {
			fmt.Printf("  %-52s %s\n", m.name, obs.FormatValue(obs.Family(m.name), m.v))
		}
		hs := histGroups[g]
		sort.Strings(hs)
		for _, name := range hs {
			h := s.Histograms[name]
			fam := obs.Family(name)
			fmt.Printf("  %-52s count=%d mean=%s p50=%s p99=%s\n",
				name, h.Count,
				obs.FormatValue(fam, int64(h.Mean())),
				obs.FormatValue(fam, h.Quantile(0.50)),
				obs.FormatValue(fam, h.Quantile(0.99)))
		}
	}
}
