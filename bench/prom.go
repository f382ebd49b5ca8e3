package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// promSample is one line of Prometheus text exposition.
type promSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// promText is a parsed scrape.
type promText []promSample

// parsePromText parses the Prometheus text format (0.0.4) as the admin
// endpoint writes it: comment lines skipped, one sample per line,
// label values double-quoted with \\, \" and \n escapes.
func parsePromText(r io.Reader) (promText, error) {
	var out promText
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		s, err := parsePromLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("prom: %w", err)
	}
	return out, nil
}

func parsePromLine(line string) (promSample, error) {
	s := promSample{}
	rest := line
	if i := strings.IndexAny(line, "{ "); i < 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	} else if line[i] == '{' {
		s.Name = line[:i]
		s.Labels = make(map[string]string)
		rest = line[i+1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if rest == "" {
				return s, fmt.Errorf("prom: unterminated labels in %q", line)
			}
			if rest[0] == '}' {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq < 0 {
				return s, fmt.Errorf("prom: bad label in %q", line)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					if rest[j] == 'n' {
						val.WriteByte('\n')
					} else {
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("prom: unterminated label value in %q", line)
			}
			s.Labels[key] = val.String()
		}
	} else {
		s.Name = line[:i]
		rest = line[i:]
	}
	f := strings.Fields(rest)
	if len(f) == 0 {
		return s, fmt.Errorf("prom: no value in %q", line)
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return s, fmt.Errorf("prom: value in %q: %w", line, err)
	}
	s.Value = v
	return s, nil
}

// sum adds every series of a family whose labels include all of match
// (given as "key", "value" pairs). A family that is absent sums to 0.
func (p promText) sum(name string, match ...string) float64 {
	total := 0.0
	for i := range p {
		if p[i].Name == name && labelsMatch(p[i].Labels, match) {
			total += p[i].Value
		}
	}
	return total
}

func labelsMatch(labels map[string]string, match []string) bool {
	for i := 0; i+1 < len(match); i += 2 {
		if labels[match[i]] != match[i+1] {
			return false
		}
	}
	return true
}

// histQuantile estimates the q-quantile of the histogram family `name`
// (series matching match), summing buckets across series and
// interpolating linearly inside the bucket the rank falls in. It
// subtracts the same buckets of base (a scrape taken earlier; nil for
// none), so the estimate covers only the interval between the scrapes.
func (p promText) histQuantile(base promText, name string, q float64, match ...string) float64 {
	buckets := make(map[float64]float64)
	collect := func(src promText, sign float64) {
		for i := range src {
			if src[i].Name != name+"_bucket" || !labelsMatch(src[i].Labels, match) {
				continue
			}
			le := math.Inf(1)
			if s := src[i].Labels["le"]; s != "+Inf" {
				v, err := strconv.ParseFloat(s, 64)
				if err != nil {
					continue
				}
				le = v
			}
			buckets[le] += sign * src[i].Value
		}
	}
	collect(p, 1)
	collect(base, -1)
	if len(buckets) == 0 {
		return 0
	}
	bounds := make([]float64, 0, len(buckets))
	for le := range buckets {
		bounds = append(bounds, le)
	}
	sort.Float64s(bounds)
	total := buckets[bounds[len(bounds)-1]]
	if total <= 0 {
		return 0
	}
	rank := q * total
	prevBound, prevCum := 0.0, 0.0
	for _, le := range bounds {
		cum := buckets[le]
		if cum >= rank {
			if math.IsInf(le, 1) {
				return prevBound
			}
			if cum == prevCum {
				return le
			}
			return prevBound + (le-prevBound)*(rank-prevCum)/(cum-prevCum)
		}
		prevBound, prevCum = le, cum
	}
	return prevBound
}

var scrapeClient = &http.Client{Timeout: 5 * time.Second}

// scrape fetches and parses one admin /metrics page.
func scrape(url string) (promText, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %s", url, resp.Status)
	}
	return parsePromText(io.LimitReader(resp.Body, 8<<20))
}
