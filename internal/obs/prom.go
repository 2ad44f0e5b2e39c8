package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format 0.0.4). FamilyWriter is the one
// renderer every /metrics endpoint goes through: a # HELP / # TYPE preamble
// per family, then one Sample (counter, gauge) or Histogram (cumulative
// `_bucket{le=...}` / `_sum` / `_count`) per label set; escapeLabel
// implements the exposition-format escaping rules exactly (only `\`, `"` and
// newline are escaped — fmt's %q escapes more and produces sequences strict
// parsers reject); CheckExposition is the strictness checker the exposition
// tests run over full /metrics bodies.

// ExpositionContentType is the Content-Type of a text-format /metrics body.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one Prometheus label pair. Values are escaped at write time.
type Label struct {
	Name  string
	Value string
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double-quote and newline only. Anything else — tabs, control bytes, UTF-8
// — passes through verbatim, as the format requires.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// escapeHelp escapes HELP text: backslash and newline (quotes stay raw).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// exposeEvery thins the bucket layout for exposition: one `le` boundary per
// octave (the octave-top sub-bucket) instead of all four, cutting the series
// count 4× while keeping full resolution in /stats and seaload, which
// quantile over the unthinned snapshot.
const exposeEvery = subCount

// FamilyWriter renders metric families in the text exposition format: call
// Family once per family, then Sample or Histogram once per label set of it.
// The first write error sticks and is reported by Err.
type FamilyWriter struct {
	w    io.Writer
	name string // the current family
	err  error
}

// NewFamilyWriter returns a FamilyWriter rendering to w.
func NewFamilyWriter(w io.Writer) *FamilyWriter { return &FamilyWriter{w: w} }

// Err is the first error a write returned.
func (fw *FamilyWriter) Err() error { return fw.err }

func (fw *FamilyWriter) printf(format string, args ...any) {
	if fw.err == nil {
		_, fw.err = fmt.Fprintf(fw.w, format, args...)
	}
}

// Family starts a family: its # HELP / # TYPE preamble. typ is "counter",
// "gauge" or "histogram".
func (fw *FamilyWriter) Family(name, typ, help string) {
	fw.name = name
	fw.printf("# HELP %s %s\n# TYPE %s %s\n", name, escapeHelp(help), name, typ)
}

// Sample writes one counter or gauge sample of the current family.
func (fw *FamilyWriter) Sample(v float64, labels ...Label) {
	fw.printf("%s%s %s\n", fw.name, wrapLabels(labels), formatFloat(v))
}

// Histogram writes one label set of the current histogram family:
// cumulative `_bucket{le="..."}` lines at octave boundaries plus `+Inf`,
// then `_sum` and `_count`. Values are scaled by scale before exposition —
// pass 1e-9 to expose nanosecond observations as the conventional seconds,
// 1 for unit-less histograms (fan-out widths). Boundaries are inclusive
// upper bounds of integer-valued buckets, so the cumulative counts are exact.
func (fw *FamilyWriter) Histogram(s Snapshot, scale float64, labels ...Label) {
	base := formatLabels(labels)
	var cum uint64
	for i := 0; i < NumBuckets-1; i++ {
		cum += s.Buckets[i]
		if i%exposeEvery != exposeEvery-1 {
			continue
		}
		le := float64(BucketUpper(i)) * scale
		fw.printf("%s_bucket{%sle=\"%s\"} %d\n", fw.name, base, formatFloat(le), cum)
	}
	fw.printf("%s_bucket{%sle=\"+Inf\"} %d\n", fw.name, base, s.Count)
	fw.printf("%s_sum%s %s\n", fw.name, wrapLabels(labels), formatFloat(float64(s.Sum)*scale))
	fw.printf("%s_count%s %d\n", fw.name, wrapLabels(labels), s.Count)
}

// formatLabels renders `name="escaped",` pairs with a trailing comma, ready
// to prepend to the le label.
func formatLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`",`)
	}
	return b.String()
}

// wrapLabels renders `{name="escaped",...}` or "" when empty.
func wrapLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	s := formatLabels(labels)
	return "{" + strings.TrimSuffix(s, ",") + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// CheckExposition validates a full Prometheus text-format body the way a
// strict scraper would, returning the first violation:
//
//   - every sample's family has # HELP and # TYPE lines before its first
//     sample, with a known type;
//   - metric and label names match the spec grammar; label values use only
//     the three legal escapes;
//   - sample values parse as floats; no (name, labelset) appears twice;
//   - histogram families have `le` on every _bucket, cumulative counts that
//     never decrease, a `+Inf` bucket equal to _count, and a _sum.
//
// It exists because the seed /metrics handlers drifted from the spec (bare
// series without HELP/TYPE, %q-escaped labels); the exposition tests run
// every endpoint's full output through it.
func CheckExposition(body []byte) error {
	type hist struct {
		lastLE     float64
		lastCum    uint64
		infCount   uint64
		hasInf     bool
		hasSum     bool
		countValue uint64
		hasCount   bool
	}
	helpSeen := map[string]bool{}
	typeSeen := map[string]string{}
	sampleSeen := map[string]bool{}
	hists := map[string]*hist{}

	lines := strings.Split(string(body), "\n")
	for ln, line := range lines {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := parseComment(line)
			if err != nil {
				return fmt.Errorf("line %d: %v", lineNo, err)
			}
			switch kind {
			case "HELP":
				if helpSeen[name] {
					return fmt.Errorf("line %d: duplicate HELP for %s", lineNo, name)
				}
				helpSeen[name] = true
			case "TYPE":
				if _, dup := typeSeen[name]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, rest, name)
				}
				typeSeen[name] = rest
			}
			continue
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := familyOf(name, typeSeen)
		if !helpSeen[fam] {
			return fmt.Errorf("line %d: sample %s has no # HELP %s before it", lineNo, name, fam)
		}
		typ, ok := typeSeen[fam]
		if !ok {
			return fmt.Errorf("line %d: sample %s has no # TYPE %s before it", lineNo, name, fam)
		}
		key := name + "|" + canonicalLabels(labels)
		if sampleSeen[key] {
			return fmt.Errorf("line %d: duplicate sample %s{%s}", lineNo, name, canonicalLabels(labels))
		}
		sampleSeen[key] = true

		if typ != "histogram" {
			continue
		}
		// Histogram invariants, grouped by family + labels-without-le.
		nonLE := make([]Label, 0, len(labels))
		var le string
		var hasLE bool
		for _, l := range labels {
			if l.Name == "le" {
				le, hasLE = l.Value, true
				continue
			}
			nonLE = append(nonLE, l)
		}
		hkey := fam + "|" + canonicalLabels(nonLE)
		h := hists[hkey]
		if h == nil {
			h = &hist{lastLE: math.Inf(-1)}
			hists[hkey] = h
		}
		switch {
		case name == fam+"_bucket":
			if !hasLE {
				return fmt.Errorf("line %d: %s without le label", lineNo, name)
			}
			cum := uint64(value)
			if le == "+Inf" {
				h.hasInf, h.infCount = true, cum
				break
			}
			lv, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("line %d: bad le %q: %v", lineNo, le, err)
			}
			if lv <= h.lastLE {
				return fmt.Errorf("line %d: le %q not increasing in %s", lineNo, le, hkey)
			}
			if cum < h.lastCum {
				return fmt.Errorf("line %d: cumulative bucket count decreased in %s", lineNo, hkey)
			}
			h.lastLE, h.lastCum = lv, cum
		case name == fam+"_sum":
			h.hasSum = true
		case name == fam+"_count":
			h.hasCount, h.countValue = true, uint64(value)
		default:
			return fmt.Errorf("line %d: %s is not a histogram series of %s", lineNo, name, fam)
		}
	}

	for hkey, h := range hists {
		if !h.hasInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", hkey)
		}
		if !h.hasSum {
			return fmt.Errorf("histogram %s has no _sum", hkey)
		}
		if !h.hasCount {
			return fmt.Errorf("histogram %s has no _count", hkey)
		}
		if h.infCount != h.countValue {
			return fmt.Errorf("histogram %s: +Inf bucket %d != _count %d", hkey, h.infCount, h.countValue)
		}
		if h.lastCum > h.infCount {
			return fmt.Errorf("histogram %s: finite bucket %d exceeds +Inf %d", hkey, h.lastCum, h.infCount)
		}
	}
	return nil
}

// familyOf maps a sample name to its metric family: histogram series
// (`x_bucket`, `x_sum`, `x_count`) fold into `x` when `x` is declared a
// histogram; everything else is its own family.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

func parseComment(line string) (kind, name, rest string, err error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", fmt.Errorf("malformed comment %q", line)
	}
	kind, name = fields[1], fields[2]
	if kind != "HELP" && kind != "TYPE" {
		return "", "", "", fmt.Errorf("unknown comment kind %q", kind)
	}
	if !metricNameRe.MatchString(name) {
		return "", "", "", fmt.Errorf("invalid metric name %q in %s", name, kind)
	}
	if len(fields) == 4 {
		rest = fields[3]
	}
	if kind == "TYPE" && rest == "" {
		return "", "", "", fmt.Errorf("TYPE %s missing a type", name)
	}
	return kind, name, rest, nil
}

// parseSample parses `name{l1="v",l2="v"} value` (labels optional).
func parseSample(line string) (string, []Label, float64, error) {
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", line)
	}
	name := line[:i]
	if !metricNameRe.MatchString(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	var labels []Label
	rest := line[i:]
	if rest[0] == '{' {
		var err error
		labels, rest, err = parseLabels(rest)
		if err != nil {
			return "", nil, 0, fmt.Errorf("in %s: %v", name, err)
		}
	}
	rest = strings.TrimLeft(rest, " ")
	// Value, optionally followed by a timestamp.
	valStr := rest
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		valStr = rest[:j]
	}
	val, err := parseValue(valStr)
	if err != nil {
		return "", nil, 0, fmt.Errorf("in %s: %v", name, err)
	}
	return name, labels, val, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	return v, nil
}

// parseLabels consumes a `{...}` label block, validating names and the
// escape discipline inside quoted values.
func parseLabels(s string) ([]Label, string, error) {
	s = s[1:] // consume '{'
	var labels []Label
	for {
		if s == "" {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		if s[0] == '}' {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '=' near %q", s)
		}
		name := s[:eq]
		if !labelNameRe.MatchString(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		s = s[eq+1:]
		if s == "" || s[0] != '"' {
			return nil, "", fmt.Errorf("label %s value not quoted", name)
		}
		value, rest, err := parseQuoted(s)
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %v", name, err)
		}
		labels = append(labels, Label{Name: name, Value: value})
		s = rest
		if s != "" && s[0] == ',' {
			s = s[1:]
		}
	}
}

// parseQuoted consumes a double-quoted string allowing exactly the three
// exposition-format escapes, returning the decoded value and the remainder.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 1; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			i++
			if i >= len(s) {
				return "", "", fmt.Errorf("dangling backslash")
			}
			switch s[i] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("illegal escape \\%c", s[i])
			}
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}

// canonicalLabels renders labels sorted by name, for duplicate detection.
func canonicalLabels(labels []Label) string {
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for _, l := range ls {
		fmt.Fprintf(&b, "%s=%q,", l.Name, l.Value)
	}
	return b.String()
}
