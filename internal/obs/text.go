package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteText renders a snapshot in the Prometheus text exposition format:
// `# TYPE` comments per family, counters and gauges as single samples,
// histograms as cumulative `_bucket{le="..."}` samples plus `_sum` and
// `_count`. Output is sorted, so two snapshots of the same state render
// byte-identically (snapshot determinism is tested).
func WriteText(w io.Writer, s *Snapshot) error {
	bw := bufio.NewWriter(w)
	typed := make(map[string]string)
	for full := range s.Counters {
		typed[Family(full)] = "counter"
	}
	for full := range s.Gauges {
		typed[Family(full)] = "gauge"
	}
	for full := range s.Histograms {
		typed[Family(full)] = "histogram"
	}
	for _, fam := range sortedKeys(typed) {
		fmt.Fprintf(bw, "# TYPE %s %s\n", fam, typed[fam])
		switch typed[fam] {
		case "counter":
			writeScalars(bw, fam, s.Counters)
		case "gauge":
			writeScalars(bw, fam, s.Gauges)
		case "histogram":
			for _, full := range sortedKeys(s.Histograms) {
				if Family(full) != fam {
					continue
				}
				writeHistogram(bw, full, s.Histograms[full])
			}
		}
	}
	return bw.Flush()
}

func writeScalars(w io.Writer, fam string, m map[string]int64) {
	for _, full := range sortedKeys(m) {
		if Family(full) == fam {
			fmt.Fprintf(w, "%s %d\n", full, m[full])
		}
	}
}

// withLabel appends one more label pair to a full metric name, and renames
// the family with the given suffix.
func withSuffixAndLabel(full, suffix, key, value string) string {
	fam := Family(full)
	rest := strings.TrimPrefix(full, fam)
	label := key + `="` + value + `"`
	if rest == "" {
		return fam + suffix + "{" + label + "}"
	}
	// rest is "{...}": splice the extra label in before the closing brace.
	return fam + suffix + rest[:len(rest)-1] + "," + label + "}"
}

// withSuffix renames the family of a full metric name.
func withSuffix(full, suffix string) string {
	fam := Family(full)
	return fam + suffix + strings.TrimPrefix(full, fam)
}

func writeHistogram(w io.Writer, full string, h HistogramSnapshot) {
	cum := int64(0)
	for i, c := range h.Buckets {
		cum += c
		if c == 0 {
			continue
		}
		fmt.Fprintf(w, "%s %d\n", withSuffixAndLabel(full, "_bucket", "le", strconv.FormatInt(BucketUpper(i), 10)), cum)
	}
	fmt.Fprintf(w, "%s %d\n", withSuffixAndLabel(full, "_bucket", "le", "+Inf"), h.Count)
	fmt.Fprintf(w, "%s %d\n", withSuffix(full, "_sum"), h.Sum)
	fmt.Fprintf(w, "%s %d\n", withSuffix(full, "_count"), h.Count)
}

// FormatValue renders a metric value for human output: families named with
// a _ns suffix (or histogram sums over _ns families) print as durations,
// _bytes as sizes, everything else as plain integers.
func FormatValue(family string, v int64) string {
	switch {
	case strings.HasSuffix(family, "_ns"), strings.Contains(family, "_ns_p"):
		return formatDurationNS(v)
	case strings.Contains(family, "bytes"):
		return formatBytes(v)
	default:
		return strconv.FormatInt(v, 10)
	}
}

func formatDurationNS(v int64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fs", float64(v)/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fms", float64(v)/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(v)/1e3)
	default:
		return fmt.Sprintf("%dns", v)
	}
}

func formatBytes(v int64) string {
	switch {
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(v)/(1<<10))
	default:
		return strconv.FormatInt(v, 10) + "B"
	}
}
