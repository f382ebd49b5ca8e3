package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// WriteText renders the registry in the Prometheus text exposition format
// (version 0.0.4): families sorted by name, series sorted by label
// signature, histograms expanded into cumulative _bucket/_sum/_count.
func (r *Registry) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range r.sortedSeries(f) {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, braced(s.key), strconv.FormatUint(s.ctr.Value(), 10))
			case kindGauge:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, braced(s.key), formatFloat(r.gaugeValue(s)))
			case kindHistogram:
				writeHistogram(bw, f, s)
			}
		}
	}
	return bw.Flush()
}

func writeHistogram(w io.Writer, f *family, s *series) {
	cum := uint64(0)
	for i, bound := range s.hist.bounds {
		cum += s.hist.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, braced(joinLabels(s.key, `le="`+formatFloat(bound)+`"`)), cum)
	}
	total := s.hist.Count()
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, braced(joinLabels(s.key, `le="+Inf"`)), total)
	fmt.Fprintf(w, "%s_sum%s %s\n", f.name, braced(s.key), formatFloat(s.hist.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, braced(s.key), total)
}

// SeriesPoint is one series in a JSON snapshot. Value carries counters
// and gauges; Count/Sum/Buckets carry histograms.
type SeriesPoint struct {
	Labels  Labels            `json:"labels,omitempty"`
	Value   *float64          `json:"value,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Buckets map[string]uint64 `json:"buckets,omitempty"`
}

// FamilySnapshot is one metric family in a JSON snapshot.
type FamilySnapshot struct {
	Name   string        `json:"name"`
	Help   string        `json:"help,omitempty"`
	Type   string        `json:"type"`
	Series []SeriesPoint `json:"series"`
}

// Snapshot captures every family and series for the JSON API
// (/metrics?format=json) and programmatic consumers like the sim's
// UploadStats view.
func (r *Registry) Snapshot() []FamilySnapshot {
	var out []FamilySnapshot
	for _, f := range r.sortedFamilies() {
		fs := FamilySnapshot{Name: f.name, Help: f.help, Type: f.kind.String()}
		for _, s := range r.sortedSeries(f) {
			p := SeriesPoint{Labels: cloneLabels(s.labels)}
			switch f.kind {
			case kindCounter:
				v := float64(s.ctr.Value())
				p.Value = &v
			case kindGauge:
				v := r.gaugeValue(s)
				p.Value = &v
			case kindHistogram:
				c, sum := s.hist.Count(), s.hist.Sum()
				p.Count, p.Sum = &c, &sum
				p.Buckets = make(map[string]uint64, len(s.hist.bounds)+1)
				cum := uint64(0)
				for i, bound := range s.hist.bounds {
					cum += s.hist.counts[i].Load()
					p.Buckets[formatFloat(bound)] = cum
				}
				p.Buckets["+Inf"] = c
			}
			fs.Series = append(fs.Series, p)
		}
		out = append(out, fs)
	}
	return out
}

func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

// sortedSeries copies a family's series under the registry lock: a
// series registered lazily (an RPC type's first observation) writes the
// map while an exposition walks it.
func (r *Registry) sortedSeries(f *family) []*series {
	r.mu.Lock()
	out := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		out = append(out, s)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// gaugeValue reads a gauge, calling its GaugeFunc callback (which
// GaugeFunc may replace concurrently) when it has one.
func (r *Registry) gaugeValue(s *series) float64 {
	r.mu.Lock()
	fn := s.fn
	r.mu.Unlock()
	if fn != nil {
		return fn()
	}
	return s.gauge.Value()
}

func braced(sig string) string {
	if sig == "" {
		return ""
	}
	return "{" + sig + "}"
}

func joinLabels(sig, extra string) string {
	if sig == "" {
		return extra
	}
	return sig + "," + extra
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabelValue(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// CheckText validates that r contains well-formed Prometheus text format:
// every line is a comment or a `name{labels} value` sample, TYPE lines
// precede their family's samples, and sample names belong to an announced
// family. It is the parser behind the exposition-format tests and a cheap
// lint for scrape debugging.
func CheckText(r io.Reader) error {
	sc := bufio.NewScanner(r)
	types := make(map[string]string)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				return fmt.Errorf("line %d: malformed TYPE comment %q", lineNo, line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", lineNo, parts[3])
			}
			types[parts[2]] = parts[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, rest, err := splitSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
		if _, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err != nil {
			return fmt.Errorf("line %d: bad sample value in %q", lineNo, line)
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := types[strings.TrimSuffix(name, suffix)]; ok && t == "histogram" {
				base = strings.TrimSuffix(name, suffix)
				break
			}
		}
		if _, ok := types[base]; !ok {
			return fmt.Errorf("line %d: sample %q has no TYPE announcement", lineNo, name)
		}
	}
	return sc.Err()
}

// splitSample splits `name{labels} value` into the metric name and the
// value text, validating the label block's basic shape.
func splitSample(line string) (name, value string, err error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", "", fmt.Errorf("malformed sample %q", line)
	}
	name = line[:i]
	if !validMetricName(name) {
		return "", "", fmt.Errorf("invalid metric name %q", name)
	}
	rest := line[i:]
	if rest[0] == '{' {
		end := strings.LastIndex(rest, "}")
		if end < 0 {
			return "", "", fmt.Errorf("unterminated label block in %q", line)
		}
		labels := rest[1:end]
		if labels != "" {
			for _, pair := range splitLabelPairs(labels) {
				eq := strings.Index(pair, "=")
				if eq <= 0 || !validLabelName(pair[:eq]) {
					return "", "", fmt.Errorf("bad label pair %q", pair)
				}
				v := pair[eq+1:]
				if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return "", "", fmt.Errorf("unquoted label value in %q", pair)
				}
			}
		}
		rest = rest[end+1:]
	}
	return name, rest, nil
}

// splitLabelPairs splits on commas outside quoted values.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}
