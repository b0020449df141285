package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"carousel/internal/blockserver"
	"carousel/internal/carousel"
	"carousel/internal/obs"
)

// writeInput creates a temporary input file and returns its path plus the
// output directory path.
func writeInput(t *testing.T, size int) (input, outDir string, data []byte) {
	t.Helper()
	dir := t.TempDir()
	data = make([]byte, size)
	rand.New(rand.NewSource(1)).Read(data)
	input = filepath.Join(dir, "input.bin")
	if err := os.WriteFile(input, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return input, filepath.Join(dir, "enc"), data
}

func TestEncodeInfoDecodeRoundTrip(t *testing.T) {
	input, outDir, data := writeInput(t, 100_000)
	if err := cmdEncode([]string{input, outDir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdInfo([]string{outDir}); err != nil {
		t.Fatal(err)
	}
	output := filepath.Join(t.TempDir(), "out.bin")
	if err := cmdDecode([]string{outDir, output}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(output)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("decode round trip mismatch")
	}
}

func TestDecodeWithMissingBlocks(t *testing.T) {
	input, outDir, data := writeInput(t, 50_000)
	if err := cmdEncode([]string{"-n", "12", "-k", "6", "-d", "10", "-p", "12", input, outDir}); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, 3, 6, 9, 10, 11} {
		if err := os.Remove(blockPath(outDir, i)); err != nil {
			t.Fatal(err)
		}
	}
	output := filepath.Join(t.TempDir(), "out.bin")
	if err := cmdDecode([]string{outDir, output}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(output)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded decode mismatch")
	}
	// Losing one more block crosses n-k.
	if err := os.Remove(blockPath(outDir, 1)); err != nil {
		t.Fatal(err)
	}
	err = cmdDecode([]string{outDir, output})
	if err == nil {
		t.Fatal("decode beyond the failure budget did not error")
	}
	if got := exitCode(err); got != exitTooFewSurvivors {
		t.Fatalf("decode beyond budget: exit %d (%v), want %d", got, err, exitTooFewSurvivors)
	}
}

func TestRepairRestoresBlockFile(t *testing.T) {
	input, outDir, _ := writeInput(t, 30_000)
	if err := cmdEncode([]string{input, outDir}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(blockPath(outDir, 5))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blockPath(outDir, 5)); err != nil {
		t.Fatal(err)
	}
	if err := cmdRepair([]string{"-block", "5", outDir}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(blockPath(outDir, 5))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("repaired block differs from the original")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	input, outDir, _ := writeInput(t, 20_000)
	if err := cmdEncode([]string{input, outDir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{outDir}); err != nil {
		t.Fatalf("clean verify failed: %v", err)
	}
	// Flip a byte in block 2.
	path := blockPath(outDir, 2)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[10] ^= 0xff
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	err = cmdVerify([]string{outDir})
	if err == nil {
		t.Fatal("verify accepted a corrupted block")
	}
	if !errors.Is(err, blockserver.ErrCorrupt) {
		t.Fatalf("verify error %v is not ErrCorrupt", err)
	}
	if got := exitCode(err); got != exitCorrupt {
		t.Fatalf("corrupt verify: exit %d, want %d", got, exitCorrupt)
	}
	// Repair and re-verify.
	if err := cmdRepair([]string{"-block", "2", outDir}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{outDir}); err != nil {
		t.Fatalf("verify after repair: %v", err)
	}
}

// TestDecodeRejectsBadManifestSizes: a manifest whose sizes do not fit its
// k blocks is refused when it is loaded, instead of decode slicing the
// decoded data with them.
func TestDecodeRejectsBadManifestSizes(t *testing.T) {
	input, outDir, _ := writeInput(t, 30_000)
	if err := cmdEncode([]string{input, outDir}); err != nil {
		t.Fatal(err)
	}
	m, _, err := loadManifest(outDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name                string
		blockSize, fileSize int
	}{
		{"file size beyond the blocks", m.BlockSize, 99999999},
		{"negative file size", m.BlockSize, -1},
		{"one byte past k blocks", m.BlockSize, m.K*m.BlockSize + 1},
		{"zero block size", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := *m
			bad.BlockSize, bad.FileSize = tc.blockSize, tc.fileSize
			raw, err := json.Marshal(bad)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(outDir, "manifest.json"), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := cmdDecode([]string{outDir, filepath.Join(t.TempDir(), "out.bin")}); err == nil {
				t.Fatal("decode accepted the manifest")
			}
			if _, _, err := loadManifest(outDir); err == nil {
				t.Fatal("loadManifest accepted the manifest")
			}
		})
	}
}

func TestEncodeValidation(t *testing.T) {
	dir := t.TempDir()
	empty := filepath.Join(dir, "empty")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdEncode([]string{empty, filepath.Join(dir, "out")}); err == nil {
		t.Fatal("empty input did not error")
	}
	if err := cmdEncode([]string{"-n", "6", "-k", "6", empty, filepath.Join(dir, "out")}); err == nil {
		t.Fatal("invalid parameters did not error")
	}
	err := cmdInfo([]string{filepath.Join(dir, "nope")})
	if err == nil {
		t.Fatal("missing manifest did not error")
	}
	if got := exitCode(err); got != exitNotFound {
		t.Fatalf("missing manifest: exit %d (%v), want %d", got, err, exitNotFound)
	}
}

func TestExitCode(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"nil", nil, 0},
		{"generic", errors.New("boom"), exitFailure},
		{"not-found", blockserver.ErrNotFound, exitNotFound},
		{"missing-manifest", fmt.Errorf("reading manifest: %w", os.ErrNotExist), exitNotFound},
		{"corrupt", fmt.Errorf("%w: block 4", blockserver.ErrCorrupt), exitCorrupt},
		{"timeout", fmt.Errorf("get: %w", blockserver.ErrTimeout), exitTimeout},
		{"timeout-joined", errors.Join(blockserver.ErrTimeout, context.DeadlineExceeded), exitTimeout},
		{"too-few-survivors", blockserver.ErrTooFewSurvivors, exitTooFewSurvivors},
		{"too-few-blocks", fmt.Errorf("decode: %w", carousel.ErrTooFewBlocks), exitTooFewSurvivors},
		// Corruption is reported even when it also caused a survivor
		// shortfall: the more actionable diagnosis wins.
		{"corrupt-and-short", errors.Join(blockserver.ErrCorrupt, blockserver.ErrTooFewSurvivors), exitCorrupt},
		{"partial-stats", fmt.Errorf("%w: 1 of 3 node(s) unreachable", errPartialStats), exitPartialStats},
	}
	for _, tc := range cases {
		if got := exitCode(tc.err); got != tc.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestStatsPartialMerge: a scrape with one live endpoint and one
// unreachable node must still merge the reachable side and return the
// partial-stats sentinel (exit code 7), while an all-dead scrape fails
// outright with exit code 1.
func TestStatsPartialMerge(t *testing.T) {
	addr, stop, err := obs.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	// A port from a closed listener: reliably unreachable.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	err = cmdStats([]string{"-addrs", addr + "," + deadAddr})
	if !errors.Is(err, errPartialStats) {
		t.Fatalf("partial scrape error = %v, want errPartialStats", err)
	}
	if got := exitCode(err); got != exitPartialStats {
		t.Fatalf("partial scrape exit = %d, want %d", got, exitPartialStats)
	}

	if err := cmdStats([]string{"-addrs", addr}); err != nil {
		t.Fatalf("fully-reachable scrape: %v", err)
	}

	err = cmdStats([]string{"-addrs", deadAddr})
	if err == nil || errors.Is(err, errPartialStats) {
		t.Fatalf("all-unreachable scrape error = %v, want plain failure", err)
	}
	if got := exitCode(err); got != exitFailure {
		t.Fatalf("all-unreachable exit = %d, want %d", got, exitFailure)
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	ferr := f()
	os.Stdout = stdout
	w.Close()
	return <-out, ferr
}

// TestStatsMergesNodes: stats over two nodes with different registries
// prints exact sums of their counters, and -raw prints exactly the
// exposition of the two snapshots merged by hand — counters, gauges, a
// histogram and a window's quantile gauges alike.
func TestStatsMergesNodes(t *testing.T) {
	regA, regB := obs.NewRegistry(), obs.NewRegistry()
	regA.Counter("store_reads_total", "path", "parallel").Add(1 << 60)
	regB.Counter("store_reads_total", "path", "parallel").Add(5)
	regB.Counter("store_reads_total", "path", "fallback").Add(2)
	regA.Gauge("blockserver_blocks").Set(7)
	regB.Gauge("blockserver_blocks").Set(-3)
	for i, reg := range []*obs.Registry{regA, regB} {
		h := reg.Histogram("store_read_ns")
		h.Observe(int64(500 * (i + 1)))
		h.Observe(70_000)
		reg.Window("blockserver_rpc_window_ns").Observe(int64(900 * (i + 1)))
	}
	srvA := httptest.NewServer(obs.NewMux(regA, obs.NewTracer(16)))
	defer srvA.Close()
	srvB := httptest.NewServer(obs.NewMux(regB, obs.NewTracer(16)))
	defer srvB.Close()
	addrs := srvA.URL + "," + srvB.URL

	raw, err := captureStdout(t, func() error { return cmdStats([]string{"-addrs", addrs, "-raw"}) })
	if err != nil {
		t.Fatal(err)
	}
	merged := regA.Snapshot()
	merged.Merge(regB.Snapshot())
	var want bytes.Buffer
	if err := obs.WriteText(&want, merged); err != nil {
		t.Fatal(err)
	}
	if raw != want.String() {
		t.Fatalf("stats -raw printed\n%s\nwant the hand-merged exposition\n%s", raw, want.String())
	}

	summary, err := captureStdout(t, func() error { return cmdStats([]string{"-addrs", addrs}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{`store_reads_total{path="parallel"}`, 1<<60 + 5},
		{`store_reads_total{path="fallback"}`, 2},
		{"blockserver_blocks", 4},
	} {
		if !regexp.MustCompile(`(?m)^  ` + regexp.QuoteMeta(c.name) + ` +` + strconv.FormatInt(c.v, 10) + `$`).MatchString(summary) {
			t.Errorf("summary lacks %s = %d:\n%s", c.name, c.v, summary)
		}
	}
	if !strings.Contains(summary, "store_read_ns") || !strings.Contains(summary, "count=4 ") {
		t.Errorf("summary lacks the merged histogram (count=4):\n%s", summary)
	}
}
