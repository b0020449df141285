package blockserver

import (
	"context"
	"errors"
	"net"
)

// Typed sentinel errors for the block path. Callers branch on these with
// errors.Is; carouselctl maps them to distinct exit codes.
var (
	// ErrTimeout is returned when an operation exceeds its deadline —
	// a dial, a single exchange, or the caller's context.
	ErrTimeout = errors.New("blockserver: operation timed out")

	// ErrCorrupt is returned when a stored block no longer matches the
	// CRC32Cs it was put under: found by the server, or, for a range or
	// chunk answer, by the reader, whose bytes landed unlike the CRC the
	// server sent for them (rot the server did not read, or damage on the
	// wire; the reader reports it back, and the server tells which). Any
	// other frame damaged on the wire is a transport fault instead
	// (frame.ErrHeader, frame.ErrPayload): the connection is poisoned and
	// the exchange retried.
	ErrCorrupt = errors.New("blockserver: corrupt block")

	// ErrTooFewSurvivors is returned when not enough sources remain to
	// serve a read (fewer than k blocks) or a repair (fewer than d
	// helpers).
	ErrTooFewSurvivors = errors.New("blockserver: too few surviving sources")
)

// classify maps transport-level failures onto the sentinel taxonomy:
// deadline expiries (from conn deadlines or contexts) become ErrTimeout;
// everything else passes through.
func classify(err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return errors.Join(ErrTimeout, err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return errors.Join(ErrTimeout, err)
	}
	return err
}

// retryable reports whether a failed operation is worth retrying on a
// fresh connection. In-band application verdicts are permanent: the block
// is genuinely absent (ErrNotFound), damaged at rest (ErrCorrupt), or the
// caller gave up (context cancellation). Transport faults — timeouts,
// resets, refused dials, protocol desyncs — are transient.
func retryable(err error) bool {
	switch {
	case err == nil, inBand(err), errors.Is(err, context.Canceled):
		return false
	}
	return true
}
