package blockserver

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"time"

	"carousel/internal/carousel"
)

// TestStoreAtTheBaselinePoints runs the paper's comparison on real sockets
// with no codec seam: the Store only ever holds a *carousel.Code, and its
// Reed-Solomon and MSR baselines are that code at p = k. At each point the
// healthy read takes the parallel path and fetches exactly the file's
// k*blockSize per stripe from exactly p peers, a repair moves exactly
// d/(d-k+1) blocks (Fig. 7), and losing one server's blocks still reads
// back byte-identical.
func TestStoreAtTheBaselinePoints(t *testing.T) {
	for _, pt := range []struct {
		name       string
		n, k, d, p int
	}{
		{"RS(12,6)", 12, 6, 6, 6},
		{"MSR(12,6,10)", 12, 6, 10, 6},
		{"Carousel(12,6,10,12)", 12, 6, 10, 12},
	} {
		t.Run(pt.name, func(t *testing.T) {
			code, err := carousel.New(pt.n, pt.k, pt.d, pt.p)
			if err != nil {
				t.Fatal(err)
			}
			_, addrs := startServers(t, code, pt.n)
			blockSize := code.BlockAlign() * 24
			const stripes = 3
			size := stripes*pt.k*blockSize - blockSize/3 // the last stripe is short
			data := make([]byte, size)
			rand.New(rand.NewSource(int64(pt.d*100 + pt.p))).Read(data)
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()

			open := func() *Store {
				s, err := NewStore(code, addrs, blockSize, withPool(t, fastOpts()))
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				return s
			}
			if _, err := open().WriteFile(ctx, "f", data); err != nil {
				t.Fatal(err)
			}

			// A second store has dialed nobody yet, so its first read shows
			// who a healthy read talks to: the p data-bearing servers.
			store := open()
			before := store.Pool().DialCounts()
			got, stats, err := store.ReadFile(ctx, "f", size)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("healthy read: err %v, identical %v", err, bytes.Equal(got, data))
			}
			if stats.Path() != "parallel" {
				t.Errorf("healthy read took the %s path (%+v), want parallel", stats.Path(), *stats)
			}
			if want := int64(stripes * pt.k * blockSize); stats.BytesFetched != want {
				t.Errorf("healthy read fetched %d bytes, want stripes*k*blockSize = %d", stats.BytesFetched, want)
			}
			wantPeers := make(map[string]bool, pt.p)
			for _, a := range addrs[:pt.p] {
				wantPeers[a] = true
			}
			dials := dialsSince(store.Pool(), before)
			for a := range dials {
				if !wantPeers[a] {
					t.Errorf("healthy read dialed %s, which holds no original data", a)
				}
			}
			if len(dials) != pt.p {
				t.Errorf("cold read dialed %d peers (%v), want p = %d", len(dials), dials, pt.p)
			}

			traffic, err := store.Repair(ctx, "f", 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := pt.d * blockSize / (pt.d - pt.k + 1); traffic != want {
				t.Errorf("repair moved %d bytes, want d*blockSize/(d-k+1) = %d", traffic, want)
			}

			deleteServerBlocks(t, addrs[0], "f", stripes, 0)
			got, _, err = store.ReadFile(ctx, "f", size)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read with server 0's blocks gone: err %v, identical %v", err, bytes.Equal(got, data))
			}
		})
	}
}
