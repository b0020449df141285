package dfs

import (
	"fmt"

	"carousel/internal/cluster"
	"carousel/internal/frame"
)

// CorruptBlock flips a byte of a stored block's content — a test and
// fault-injection hook standing in for bit rot.
func (fs *FS) CorruptBlock(name string, stripeIdx, blockIdx, offset int) error {
	f, err := fs.File(name)
	if err != nil {
		return err
	}
	if stripeIdx < 0 || stripeIdx >= len(f.stripes) {
		return fmt.Errorf("dfs: stripe %d out of range", stripeIdx)
	}
	st := f.stripes[stripeIdx]
	if blockIdx < 0 || blockIdx >= len(st.blocks) {
		return fmt.Errorf("dfs: block %d out of range", blockIdx)
	}
	b := st.blocks[blockIdx]
	if offset < 0 || offset >= len(b.content) {
		return fmt.Errorf("dfs: offset %d out of range [0,%d)", offset, len(b.content))
	}
	b.content[offset] ^= 0xff
	return nil
}

// quarantineCorrupt removes the replicas of every block of f whose content
// no longer matches its ingest checksum — the read-time integrity gate.
// It returns the number of blocks quarantined and counts them in the FS
// stats.
func (fs *FS) quarantineCorrupt(f *File) int {
	quarantined := 0
	for _, st := range f.stripes {
		for _, b := range st.blocks {
			if len(b.locations) == 0 {
				continue
			}
			if frame.Checksum(b.content) != b.crc {
				b.locations = nil
				quarantined++
			}
		}
	}
	fs.stats.CorruptDetected += int64(quarantined)
	return quarantined
}

// ScrubReport lists the corrupted blocks a scrub pass found.
type ScrubReport struct {
	// Corrupted holds (file, stripe, block) triples whose content no
	// longer matches the checksum recorded at write time.
	Corrupted []ScrubFinding
	// BlocksChecked counts blocks with at least one reachable replica.
	BlocksChecked int
}

// ScrubFinding identifies one corrupted block.
type ScrubFinding struct {
	File   string
	Stripe int
	Block  int
}

// Scrub reads every reachable block, verifies it against the checksum
// recorded at write time, quarantines corrupted blocks (their replicas are
// removed, so subsequent reads degrade and Reconstruct can regenerate
// them), and charges the disk reads to the simulation.
func (fs *FS) Scrub(p *cluster.Proc) (*ScrubReport, error) {
	rep := &ScrubReport{}
	for _, name := range fs.fileNames() {
		f := fs.files[name]
		for si, st := range f.stripes {
			for bi, b := range st.blocks {
				if len(b.locations) == 0 {
					continue
				}
				rep.BlocksChecked++
				// The scrubber reads from one replica's disk.
				fs.node(b.locations[0]).ReadLocal(p, float64(len(b.content)))
				if frame.Checksum(b.content) != b.crc {
					rep.Corrupted = append(rep.Corrupted, ScrubFinding{File: name, Stripe: si, Block: bi})
					b.locations = nil
				}
			}
		}
	}
	return rep, nil
}
