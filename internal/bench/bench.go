// Package bench holds the shared machinery of the benchmark harnesses in
// cmd/codingbench and cmd/clusterbench: code-family construction for the
// paper's parameter sweeps, wall-clock throughput measurement, and plain
// table output matching the rows/series of the paper's figures.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"text/tabwriter"
	"time"

	"carousel/internal/carousel"
)

// Series is one column of the paper's Figs. 6-8: a named (n, k, d, p)
// parameter point of the Carousel code.
type Series struct {
	Name string
	Code *carousel.Code
}

// Family is the four series the microbenchmarks compare at one k, in the
// figures' column order.
type Family []Series

// NewFamily builds the Fig. 6-8 series for one k, with n = 2k. The two
// baselines are the p = k points — Carousel(n, k, k, k) is systematic
// Reed-Solomon and Carousel(n, k, d, k) is product-matrix MSR, block for
// block — so all four columns come from one constructor, run on one engine
// and use the same number of workers.
func NewFamily(k int) (Family, error) {
	n := 2 * k
	var f Family
	for _, pt := range []struct {
		name string
		d, p int
	}{
		{"RS", k, k},
		{"Carousel(d=k)", k, n},
		{"MSR(d=2k-1)", n - 1, k},
		{"Carousel(d=2k-1)", n - 1, n},
	} {
		c, err := carousel.New(n, k, pt.d, pt.p)
		if err != nil {
			return nil, fmt.Errorf("bench: %s = Carousel(%d,%d,%d,%d): %w", pt.name, n, k, pt.d, pt.p, err)
		}
		f = append(f, Series{Name: pt.name, Code: c})
	}
	return f, nil
}

// AlignBlockSize rounds size up to a multiple of every series' alignment,
// so one block size serves all four codes.
func (f Family) AlignBlockSize(size int) int {
	align := 1
	for _, s := range f {
		align = lcm(align, s.Code.BlockAlign())
	}
	return (size + align - 1) / align * align
}

func lcm(a, b int) int {
	return a / gcd(a, b) * b
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// RandomShards returns k deterministic pseudo-random shards of the given
// size.
func RandomShards(k, size int, seed int64) [][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]byte, k)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// Measure runs fn reps times and returns the throughput in MB/s, where
// bytes is the data volume one call processes. One untimed warmup call
// populates caches (decode matrices, page tables).
func Measure(reps int, bytes int, fn func()) float64 {
	if reps < 1 {
		reps = 1
	}
	fn() // warmup
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	el := time.Since(start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(bytes) * float64(reps) / el / 1e6
}

// MeasureSeconds returns the mean wall-clock seconds of fn over reps runs
// after one warmup.
func MeasureSeconds(reps int, fn func()) float64 {
	if reps < 1 {
		reps = 1
	}
	fn()
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start).Seconds() / float64(reps)
}

// Table prints an aligned table: a header row and data rows.
type Table struct {
	w   *tabwriter.Writer
	out io.Writer
}

// NewTable starts a table on the writer.
func NewTable(out io.Writer, headers ...string) *Table {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(headers, "\t"))
	sep := make([]string, len(headers))
	for i, h := range headers {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(w, strings.Join(sep, "\t"))
	return &Table{w: w, out: out}
}

// Row appends one formatted row.
func (t *Table) Row(cells ...any) {
	parts := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			parts[i] = fmt.Sprintf("%.2f", v)
		default:
			parts[i] = fmt.Sprint(v)
		}
	}
	fmt.Fprintln(t.w, strings.Join(parts, "\t"))
}

// Flush renders the table.
func (t *Table) Flush() {
	t.w.Flush()
	fmt.Fprintln(t.out)
}

// Section prints a figure/table heading.
func Section(out io.Writer, title string) {
	fmt.Fprintf(out, "=== %s ===\n", title)
}
