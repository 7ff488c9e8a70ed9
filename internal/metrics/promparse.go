// Strict Prometheus text-format parser. This is a validator, not a
// general scrape client: it accepts exactly the exposition this repo
// emits and rejects everything questionable — missing HELP/TYPE,
// interleaved families, duplicate series, non-monotone histogram
// buckets, names outside the epoc_ snake_case convention. The golden
// tests and the metrics-smoke CI job run every scrape through it, so a
// rendering regression fails loudly instead of silently confusing a
// real Prometheus server.
package metrics

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Family is one parsed metric family.
type Family struct {
	Name    string
	Type    string // counter | gauge | histogram
	Help    string
	Samples []Sample
}

// Sample is one parsed sample line.
type Sample struct {
	Name   string // full sample name, e.g. epoc_stage_seconds_bucket
	Labels map[string]string
	Value  float64
}

var (
	familyNameRE = regexp.MustCompile(`^epoc_[a-z][a-z0-9_]*$`)
	labelNameRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// Parse validates text as strict Prometheus exposition format v0.0.4
// under this repo's conventions and returns the parsed families in
// order of appearance.
func Parse(text string) ([]Family, error) {
	var (
		fams    []Family
		cur     *Family
		sawHelp = map[string]bool{}
		sawType = map[string]bool{}
		seen    = map[string]bool{} // closed families: no interleaving
	)
	lines := strings.Split(text, "\n")
	if len(lines) == 0 || lines[len(lines)-1] != "" {
		return nil, fmt.Errorf("exposition must end with a newline")
	}
	lines = lines[:len(lines)-1]
	for i, line := range lines {
		lineNo := i + 1
		switch {
		case line == "":
			return nil, fmt.Errorf("line %d: blank line", lineNo)
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				return nil, fmt.Errorf("line %d: malformed HELP", lineNo)
			}
			if err := checkFamilyName(name); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if sawHelp[name] || seen[name] {
				return nil, fmt.Errorf("line %d: duplicate family %s", lineNo, name)
			}
			if cur != nil {
				seen[cur.Name] = true
			}
			sawHelp[name] = true
			fams = append(fams, Family{Name: name, Help: help})
			cur = &fams[len(fams)-1]
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE", lineNo)
			}
			name, typ := fields[0], fields[1]
			if cur == nil || cur.Name != name {
				return nil, fmt.Errorf("line %d: TYPE %s without preceding HELP", lineNo, name)
			}
			if sawType[name] {
				return nil, fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				return nil, fmt.Errorf("line %d: unsupported type %q", lineNo, typ)
			}
			sawType[name] = true
			cur.Type = typ
		case strings.HasPrefix(line, "#"):
			return nil, fmt.Errorf("line %d: unexpected comment %q", lineNo, line)
		default:
			s, err := parseSample(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if cur == nil || cur.Type == "" {
				return nil, fmt.Errorf("line %d: sample %s before HELP/TYPE", lineNo, s.Name)
			}
			base := baseName(s.Name, cur.Type)
			if base != cur.Name {
				return nil, fmt.Errorf("line %d: sample %s does not belong to family %s", lineNo, s.Name, cur.Name)
			}
			cur.Samples = append(cur.Samples, s)
		}
	}
	for _, f := range fams {
		if err := checkFamily(f); err != nil {
			return nil, fmt.Errorf("family %s: %v", f.Name, err)
		}
	}
	return fams, nil
}

// checkFamilyName enforces the repo convention: epoc_-prefixed
// snake_case, no double underscores, no trailing underscore.
func checkFamilyName(name string) error {
	if !familyNameRE.MatchString(name) {
		return fmt.Errorf("family name %q is not epoc_-prefixed snake_case", name)
	}
	if strings.Contains(name, "__") || strings.HasSuffix(name, "_") {
		return fmt.Errorf("family name %q has empty name segments", name)
	}
	return nil
}

// baseName strips the histogram sample suffixes so a sample line can
// be matched to its family.
func baseName(sample, typ string) string {
	if typ != "histogram" {
		return sample
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if s, ok := strings.CutSuffix(sample, suf); ok {
			return s
		}
	}
	return sample
}

func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	brace := strings.IndexByte(rest, '{')
	var name string
	if brace >= 0 {
		name = rest[:brace]
		rest = rest[brace+1:]
		for {
			eq := strings.IndexByte(rest, '=')
			if eq < 0 {
				return s, fmt.Errorf("malformed labels in %q", line)
			}
			key := rest[:eq]
			if !labelNameRE.MatchString(key) {
				return s, fmt.Errorf("bad label name %q", key)
			}
			rest = rest[eq+1:]
			if len(rest) == 0 || rest[0] != '"' {
				return s, fmt.Errorf("unquoted label value in %q", line)
			}
			val, n, err := unescapeLabel(rest[1:])
			if err != nil {
				return s, err
			}
			if _, dup := s.Labels[key]; dup {
				return s, fmt.Errorf("duplicate label %q", key)
			}
			s.Labels[key] = val
			rest = rest[1+n+1:] // opening quote, value, closing quote
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
				continue
			}
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			return s, fmt.Errorf("malformed label list in %q", line)
		}
		if len(rest) == 0 || rest[0] != ' ' {
			return s, fmt.Errorf("missing space before value in %q", line)
		}
		rest = rest[1:]
	} else {
		var ok bool
		name, rest, ok = strings.Cut(rest, " ")
		if !ok {
			return s, fmt.Errorf("missing value in %q", line)
		}
	}
	s.Name = name
	if strings.Contains(rest, " ") {
		return s, fmt.Errorf("trailing content after value in %q", line)
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", rest, err)
	}
	s.Value = v
	return s, nil
}

// unescapeLabel consumes an escaped label value up to (not including)
// the closing quote, returning the value and the number of raw bytes
// consumed.
func unescapeLabel(raw string) (string, int, error) {
	var b strings.Builder
	for i := 0; i < len(raw); i++ {
		switch raw[i] {
		case '"':
			return b.String(), i, nil
		case '\\':
			i++
			if i >= len(raw) {
				return "", 0, fmt.Errorf("dangling escape in label value")
			}
			switch raw[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", 0, fmt.Errorf("bad escape \\%c in label value", raw[i])
			}
		case '\n':
			return "", 0, fmt.Errorf("raw newline in label value")
		default:
			b.WriteByte(raw[i])
		}
	}
	return "", 0, fmt.Errorf("unterminated label value")
}

func parseValue(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkFamily validates per-type invariants: counters end _total and
// are non-negative; histograms have ascending le, cumulative
// monotone buckets, a +Inf bucket equal to _count, and a _sum, per
// label set.
func checkFamily(f Family) error {
	if f.Type == "" {
		return fmt.Errorf("missing TYPE")
	}
	if len(f.Samples) == 0 {
		return fmt.Errorf("no samples")
	}
	switch f.Type {
	case "counter":
		if !strings.HasSuffix(f.Name, "_total") {
			return fmt.Errorf("counter family must end _total")
		}
		for _, s := range f.Samples {
			if s.Value < 0 {
				return fmt.Errorf("negative counter value %g", s.Value)
			}
		}
		if err := checkDuplicateSeries(f.Samples); err != nil {
			return err
		}
	case "gauge":
		if strings.HasSuffix(f.Name, "_total") {
			return fmt.Errorf("gauge family must not end _total")
		}
		if err := checkDuplicateSeries(f.Samples); err != nil {
			return err
		}
	case "histogram":
		return checkHistogram(f)
	}
	return nil
}

func checkDuplicateSeries(samples []Sample) error {
	seen := map[string]bool{}
	for _, s := range samples {
		key := s.Name + seriesKey(s.Labels)
		if seen[key] {
			return fmt.Errorf("duplicate series %s%s", s.Name, seriesKey(s.Labels))
		}
		seen[key] = true
	}
	return nil
}

func seriesKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "|%s=%s", k, labels[k])
	}
	return b.String()
}

// histSeries is one label-set's worth of histogram samples.
type histSeries struct {
	le       []float64 // bucket bounds in order of appearance
	buckets  []float64 // cumulative counts
	sum      *float64
	count    *float64
	sawInf   bool
	infValue float64
}

func checkHistogram(f Family) error {
	series := map[string]*histSeries{}
	order := []string{}
	get := func(labels map[string]string) *histSeries {
		key := seriesKey(labels)
		hs := series[key]
		if hs == nil {
			hs = &histSeries{}
			series[key] = hs
			order = append(order, key)
		}
		return hs
	}
	for _, s := range f.Samples {
		switch {
		case s.Name == f.Name+"_bucket":
			le, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("bucket sample without le label")
			}
			rest := make(map[string]string, len(s.Labels)-1)
			for k, v := range s.Labels {
				if k != "le" {
					rest[k] = v
				}
			}
			hs := get(rest)
			if le == "+Inf" {
				if hs.sawInf {
					return fmt.Errorf("duplicate +Inf bucket for %s", seriesKey(rest))
				}
				hs.sawInf = true
				hs.infValue = s.Value
				break
			}
			bound, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("bad le %q: %v", le, err)
			}
			if hs.sawInf {
				return fmt.Errorf("finite bucket after +Inf for %s", seriesKey(rest))
			}
			hs.le = append(hs.le, bound)
			hs.buckets = append(hs.buckets, s.Value)
		case s.Name == f.Name+"_sum":
			hs := get(s.Labels)
			if hs.sum != nil {
				return fmt.Errorf("duplicate _sum for %s", seriesKey(s.Labels))
			}
			v := s.Value
			hs.sum = &v
		case s.Name == f.Name+"_count":
			hs := get(s.Labels)
			if hs.count != nil {
				return fmt.Errorf("duplicate _count for %s", seriesKey(s.Labels))
			}
			v := s.Value
			hs.count = &v
		default:
			return fmt.Errorf("unexpected sample %s in histogram family", s.Name)
		}
	}
	for _, key := range order {
		hs := series[key]
		for i := 1; i < len(hs.le); i++ {
			if hs.le[i] <= hs.le[i-1] {
				return fmt.Errorf("series {%s}: le bounds not ascending (%g after %g)", key, hs.le[i], hs.le[i-1])
			}
			if hs.buckets[i] < hs.buckets[i-1] {
				return fmt.Errorf("series {%s}: cumulative bucket counts decrease at le=%g", key, hs.le[i])
			}
		}
		if !hs.sawInf {
			return fmt.Errorf("series {%s}: missing +Inf bucket", key)
		}
		if len(hs.buckets) > 0 && hs.infValue < hs.buckets[len(hs.buckets)-1] {
			return fmt.Errorf("series {%s}: +Inf bucket below last finite bucket", key)
		}
		if hs.count == nil {
			return fmt.Errorf("series {%s}: missing _count", key)
		}
		if hs.sum == nil {
			return fmt.Errorf("series {%s}: missing _sum", key)
		}
		//epoc:lint-ignore floatcmp bucket counts are exact integers rendered as floats; the text-format invariant is exact equality
		if hs.infValue != *hs.count {
			return fmt.Errorf("series {%s}: +Inf bucket %g != _count %g", key, hs.infValue, *hs.count)
		}
	}
	return nil
}
