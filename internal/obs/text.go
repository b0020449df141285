package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
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

// ParseText parses a /metrics page written by WriteText back into a
// snapshot — the scrape half of carouselctl stats. Families without a
// `# TYPE` comment default to counter.
func ParseText(r io.Reader) (*Snapshot, error) {
	s := NewSnapshot()
	typed := make(map[string]string)
	// histLe accumulates cumulative bucket samples per histogram name until
	// the whole page is read, then differences reconstruct the buckets.
	type lePair struct {
		le  string
		cum int64
	}
	histLe := make(map[string][]lePair)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) == 4 && fields[1] == "TYPE" {
				typed[fields[2]] = fields[3]
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("obs: malformed metric line %q", line)
		}
		full, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseInt(valStr, 10, 64)
		if err != nil {
			// Tolerate float samples from non-obs exporters by truncating.
			f, ferr := strconv.ParseFloat(valStr, 64)
			if ferr != nil {
				return nil, fmt.Errorf("obs: bad value in %q", line)
			}
			val = int64(f)
		}
		fam := Family(full)
		switch {
		case strings.HasSuffix(fam, "_bucket") && typed[strings.TrimSuffix(fam, "_bucket")] == "histogram":
			base := strings.TrimSuffix(fam, "_bucket")
			name, le := splitLe(full, base)
			histLe[name] = append(histLe[name], lePair{le: le, cum: val})
		case strings.HasSuffix(fam, "_sum") && typed[strings.TrimSuffix(fam, "_sum")] == "histogram":
			name := strings.TrimSuffix(fam, "_sum") + strings.TrimPrefix(full, fam)
			h := s.Histograms[name]
			h.Sum = val
			s.Histograms[name] = h
		case strings.HasSuffix(fam, "_count") && typed[strings.TrimSuffix(fam, "_count")] == "histogram":
			name := strings.TrimSuffix(fam, "_count") + strings.TrimPrefix(full, fam)
			h := s.Histograms[name]
			h.Count = val
			s.Histograms[name] = h
		case typed[fam] == "gauge":
			s.Gauges[full] = val
		default:
			s.Counters[full] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// Rebuild per-bucket counts from the cumulative le samples.
	for name, pairs := range histLe {
		h := s.Histograms[name]
		prev := int64(0)
		for _, p := range pairs { // WriteText emits le ascending
			if p.le == "+Inf" {
				continue
			}
			upper, err := strconv.ParseInt(p.le, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("obs: bad le %q in histogram %s", p.le, name)
			}
			idx := 0
			switch {
			case upper == math.MaxInt64:
				idx = 63
			case upper > 0:
				idx = bits.Len64(uint64(upper)+1) - 1
			}
			if idx < 0 || idx >= histBuckets {
				return nil, fmt.Errorf("obs: le %q of %s maps outside bucket range", p.le, name)
			}
			h.Buckets[idx] += p.cum - prev
			prev = p.cum
		}
		s.Histograms[name] = h
	}
	return s, nil
}

// splitLe strips the le label out of a _bucket sample name, returning the
// base histogram name (family renamed from base_bucket to base, other
// labels preserved) and the le value.
func splitLe(full, base string) (string, string) {
	rest := strings.TrimPrefix(full, base+"_bucket")
	if rest == "" {
		return base, ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(rest, "{"), "}")
	var kept []string
	le := ""
	for _, part := range splitLabels(inner) {
		if strings.HasPrefix(part, `le="`) {
			le = strings.TrimSuffix(strings.TrimPrefix(part, `le="`), `"`)
			continue
		}
		kept = append(kept, part)
	}
	if len(kept) == 0 {
		return base, le
	}
	return base + "{" + strings.Join(kept, ",") + "}", le
}

// splitLabels splits `k="v",k2="v2"` at commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
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
