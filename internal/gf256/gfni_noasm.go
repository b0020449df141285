//go:build !amd64

package gf256

// Stubs for platforms without the GFNI kernels: report zero bytes handled so
// the portable table loops in gf256.go do all the work.

const (
	useGFNI = false
	useAVX2 = false
)

func mulSliceAsm(c byte, in, out []byte) int    { return 0 }
func mulAddSliceAsm(c byte, in, out []byte) int { return 0 }
func addSliceAsm(in, out []byte) int            { return 0 }

func (g *Group) expand() {}

func mulSumAsm(g *Group, r, w int, out, in [][]byte, lo, hi int) bool { return false }
