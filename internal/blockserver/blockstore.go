package blockserver

import (
	"fmt"
	"sync"
	"sync/atomic"

	"carousel/internal/bufpool"
)

// blockStore is a server's blocks at rest and the one owner of their
// memory: the name map, each block's Hold, and the spare list a put lands
// in. A block that leaves the map is retired, and its buffer spared once no
// answer pins it, so every read of a block outside mu is under a pin.
type blockStore struct {
	mu     sync.RWMutex
	blocks map[string]storedBlock
	spares *bufpool.Spares

	// corruptServes counts requests answered with a corrupt verdict —
	// per-server bit-rot pressure, piggybacked on control-plane heartbeats.
	corruptServes atomic.Int64
}

// spareBlocks bounds a server's spare list: about the blocks one WriteFile
// has in flight at a server, a put of stripesInFlight blocks in each of
// batchesInFlight batches.
const spareBlocks = stripesInFlight * batchesInFlight

// commit stores each block under its name in list, a validated name list,
// all under one lock, and retires the block it replaces; names past the
// blocks are only retired. It is the one way a block enters the map, for a
// put's blocks (ingest) and a block a newcomer rebuilt (stripeRepair.finish),
// and it returns how many blocks it retired.
func (bs *blockStore) commit(list []byte, blocks []storedBlock) (retired int) {
	holds := make([]bufpool.Hold, len(blocks))
	bs.mu.Lock()
	defer bs.mu.Unlock()
	for i := 0; len(list) > 0; i++ {
		var name []byte
		name, list = nextName(list)
		if b, ok := bs.blocks[string(name)]; ok {
			delete(bs.blocks, string(name))
			if b.hold.Retire() {
				bs.spares.Give(b.data)
			}
			retired++
		}
		if i < len(blocks) {
			blocks[i].hold = &holds[i]
			bs.blocks[string(name)] = blocks[i]
		}
	}
	return retired
}

// drop removes and retires the blocks a name list names.
func (bs *blockStore) drop(list []byte) { bs.commit(list, nil) }

// pin appends to dst the block under each name of list, pinned, under one
// read lock; a name not found appends a block with no hold.
func (bs *blockStore) pin(dst []storedBlock, list []byte) []storedBlock {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	for len(list) > 0 {
		var name []byte
		name, list = nextName(list)
		b := bs.blocks[string(name)]
		if b.hold != nil {
			b.hold.Pin()
		}
		dst = append(dst, b)
	}
	return dst
}

// unpin ends an answer's reads of the blocks pin found, and clears them
// from the answer's scratch, which must not keep a deleted block alive.
func (bs *blockStore) unpin(blocks []storedBlock) {
	for _, b := range blocks {
		if b.hold != nil && b.hold.Unpin() {
			bs.spares.Give(b.data)
		}
	}
	clear(blocks)
}

// Stats reports this server's stored capacity and corrupt-serve count —
// the health snapshot the control-plane heartbeat piggybacks.
func (bs *blockStore) Stats() (blocks int64, bytes int64, corruptServes int64) {
	bs.mu.RLock()
	defer bs.mu.RUnlock()
	for _, b := range bs.blocks {
		bytes += int64(len(b.data))
	}
	return int64(len(bs.blocks)), bytes, bs.corruptServes.Load()
}

// CorruptBlock flips a byte of a stored block without updating its CRC — a
// fault-injection hook standing in for bit rot on disk.
func (bs *blockStore) CorruptBlock(name string, offset int) error {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	b, ok := bs.blocks[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	if offset < 0 || offset >= len(b.data) {
		return fmt.Errorf("blockserver: offset %d out of range [0,%d)", offset, len(b.data))
	}
	b.data[offset] ^= 0xff
	return nil
}
