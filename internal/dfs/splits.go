package dfs

import "fmt"

// Split is one unit of data-local work for a MapReduce job: a contiguous
// range of the original file that can be read entirely from local storage
// on any of the candidate nodes. This is the analog of the paper's custom
// FileInputFormat, which knows the boundary between original and parity
// data inside every Carousel block.
type Split struct {
	// File is the file name.
	File string
	// Stripe and Block locate the hosting block.
	Stripe, Block int
	// Sub distinguishes sub-splits of one replicated block.
	Sub int
	// Nodes lists the datanodes holding this split's bytes locally. Empty
	// for degraded splits.
	Nodes []int
	// Offset and Length give the range within the original file.
	Offset, Length int
	// Degraded marks a split whose hosting block is unavailable: its
	// bytes must be reconstructed from other blocks (see DegradedCost).
	Degraded bool
}

// DegradedCost describes what serving a degraded split costs: the blocks
// read from (with per-source bytes) and the bytes of decode work.
type DegradedCost struct {
	// Sources maps block index within the stripe -> bytes fetched.
	Sources map[int]int
	// DecodeBytes is the GF(2^8) output the reader computes.
	DecodeBytes int
}

// TotalBytes returns the transfer the degraded split consumes.
func (dc *DegradedCost) TotalBytes() int {
	total := 0
	for _, b := range dc.Sources {
		total += b
	}
	return total
}

// DegradedSplitCost computes the recovery cost of a degraded split:
//
//   - replication: a surviving replica serves the range (never degraded
//     unless all replicas are gone, which is unrecoverable);
//   - Carousel: the missing data units live in row classes solvable from
//     k same-class units of other blocks, so the transfer is k times the
//     split length. At p = k (Reed-Solomon) the split is the whole block
//     and that is k full blocks; at p > k it is p/k times cheaper.
func (fs *FS) DegradedSplitCost(s Split) (*DegradedCost, error) {
	f, err := fs.File(s.File)
	if err != nil {
		return nil, err
	}
	if s.Stripe < 0 || s.Stripe >= len(f.stripes) {
		return nil, fmt.Errorf("dfs: split stripe %d out of range", s.Stripe)
	}
	st := f.stripes[s.Stripe]
	dc := &DegradedCost{Sources: make(map[int]int)}
	pick := func(count, bytes int) error {
		for i := 0; i < len(st.blocks) && count > 0; i++ {
			if i == s.Block || !st.available(i) {
				continue
			}
			dc.Sources[i] = bytes
			count--
		}
		if count > 0 {
			return fmt.Errorf("%w: not enough surviving blocks for degraded split", ErrUnavailable)
		}
		return nil
	}
	switch sc := f.scheme.(type) {
	case Replication:
		if !st.available(0) {
			return nil, fmt.Errorf("%w: no surviving replica", ErrUnavailable)
		}
		dc.Sources[0] = s.Length
	case Carousel:
		if err := pick(sc.Code.K(), s.Length); err != nil {
			return nil, err
		}
		dc.DecodeBytes = s.Length
	default:
		return nil, fmt.Errorf("dfs: unknown scheme %T", f.scheme)
	}
	return dc, nil
}

// Splits enumerates the data-local splits of a file:
//
//   - replication with r copies: r sub-splits per block, each 1/r of the
//     block, each locally readable on every replica holder — the paper's
//     observation that replication extends data parallelism with the
//     number of copies;
//   - Carousel: p splits per stripe, one per data-bearing block, each
//     covering that block's DataRange — at p = k, one per data block
//     (parity blocks hold no readable data).
//
// Splits over unavailable blocks are returned with Degraded set; the
// MapReduce engine serves them via DegradedSplitCost.
func (fs *FS) Splits(name string) ([]Split, error) {
	f, err := fs.File(name)
	if err != nil {
		return nil, err
	}
	var out []Split
	switch s := f.scheme.(type) {
	case Replication:
		for si, st := range f.stripes {
			b := st.blocks[0]
			degraded := len(b.locations) == 0
			base := si * f.blockSize
			length := f.blockSize
			if base+length > f.size {
				length = f.size - base
			}
			r := s.Copies
			per := (length + r - 1) / r
			for sub := 0; sub < r; sub++ {
				lo := sub * per
				if lo >= length {
					break
				}
				hi := lo + per
				if hi > length {
					hi = length
				}
				out = append(out, Split{
					File: name, Stripe: si, Block: 0, Sub: sub,
					Nodes:  append([]int(nil), b.locations...),
					Offset: base + lo, Length: hi - lo,
					Degraded: degraded,
				})
			}
		}
	case Carousel:
		code := s.Code
		for si, st := range f.stripes {
			for i := 0; i < code.P(); i++ {
				lo, hi := code.DataRange(i, f.blockSize)
				base := si*f.dataPerStripe + lo
				if base >= f.size {
					continue
				}
				length := hi - lo
				if base+length > f.size {
					length = f.size - base
				}
				out = append(out, Split{
					File: name, Stripe: si, Block: i,
					Nodes:  append([]int(nil), st.blocks[i].locations...),
					Offset: base, Length: length,
					Degraded: !st.available(i),
				})
			}
		}
	default:
		return nil, fmt.Errorf("dfs: unknown scheme %T", f.scheme)
	}
	return out, nil
}

// SplitData returns the actual bytes of a split, read from the hosting
// block's local content (no decoding: splits cover only verbatim data).
func (fs *FS) SplitData(s Split) ([]byte, error) {
	f, err := fs.File(s.File)
	if err != nil {
		return nil, err
	}
	if s.Stripe < 0 || s.Stripe >= len(f.stripes) {
		return nil, fmt.Errorf("dfs: split stripe %d out of range", s.Stripe)
	}
	st := f.stripes[s.Stripe]
	if s.Block < 0 || s.Block >= len(st.blocks) {
		return nil, fmt.Errorf("dfs: split block %d out of range", s.Block)
	}
	content := st.blocks[s.Block].content
	var local []byte
	switch sc := f.scheme.(type) {
	case Replication:
		inBlock := s.Offset - s.Stripe*f.blockSize
		local = content[inBlock : inBlock+s.Length]
	case Carousel:
		lo, _ := sc.Code.DataRange(s.Block, f.blockSize)
		inBlock := s.Offset - s.Stripe*f.dataPerStripe - lo
		local = content[inBlock : inBlock+s.Length]
	default:
		return nil, fmt.Errorf("dfs: unknown scheme %T", f.scheme)
	}
	out := make([]byte, len(local))
	copy(out, local)
	return out, nil
}
