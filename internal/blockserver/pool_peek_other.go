//go:build !unix

package blockserver

// peekStale is unavailable without unix socket peeking; staleIdle falls
// back to its deadline-bounded read probe.
func peekStale(*Client) (stale, ok bool) {
	return false, false
}
