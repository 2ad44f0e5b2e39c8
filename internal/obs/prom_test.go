package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func TestEscapeLabel(t *testing.T) {
	cases := map[string]string{
		"plain":        "plain",
		`back\slash`:   `back\\slash`,
		`qu"ote`:       `qu\"ote`,
		"new\nline":    `new\nline`,
		"tab\tstays":   "tab\tstays", // %q would emit \t, which parsers reject
		"utf8 — stays": "utf8 — stays",
	}
	for in, want := range cases {
		if got := escapeLabel(in); got != want {
			t.Errorf("escapeLabel(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestFamilyWriterIsValidExposition(t *testing.T) {
	var h Histogram
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		h.Observe(r.Int63n(5_000_000))
	}
	var buf bytes.Buffer
	fw := NewFamilyWriter(&buf)
	fw.Family("sea_test_latency_seconds", "histogram", "test latency")
	fw.Histogram(h.Snapshot(), 1e-9, Label{"graph", `we"ird\name`}, Label{"stage", "search"})
	fw.Histogram(Snapshot{}, 1e-9, Label{"graph", "fb"}, Label{"stage", "distance"})
	fw.Family("sea_test_total", "counter", "a counter\nwith a newline in its help")
	fw.Sample(1e6, Label{"graph", "fb"})
	fw.Sample(3)
	if err := fw.Err(); err != nil {
		t.Fatal(err)
	}
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("FamilyWriter output rejected: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		`le="+Inf"`, "_sum{", "_count{", "# TYPE sea_test_latency_seconds histogram",
		`graph="we\"ird\\name"`, "sea_test_total{graph=\"fb\"} 1e+06\n", "sea_test_total 3\n",
		`# HELP sea_test_total a counter\nwith a newline in its help`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramNoLabels(t *testing.T) {
	var h Histogram
	h.Observe(42)
	var buf bytes.Buffer
	fw := NewFamilyWriter(&buf)
	fw.Family("client_latency_seconds", "histogram", "client side")
	fw.Histogram(h.Snapshot(), 1e-9)
	if err := CheckExposition(buf.Bytes()); err != nil {
		t.Fatalf("no-label exposition rejected: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "client_latency_seconds_sum ") {
		t.Fatalf("bare _sum missing:\n%s", buf.String())
	}
}

func TestHistogramCumulative(t *testing.T) {
	// The cumulative invariant: each bucket line ≥ the previous, +Inf == count.
	var h Histogram
	for i := int64(1); i <= 1_000_000; i *= 3 {
		h.Observe(i)
	}
	var buf bytes.Buffer
	fw := NewFamilyWriter(&buf)
	fw.Family("m", "histogram", "m")
	fw.Histogram(h.Snapshot(), 1)
	var prev, inf, count uint64
	var sawInf bool
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var cum uint64
		switch {
		case strings.Contains(line, `le="+Inf"`):
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &inf)
			sawInf = true
		case strings.HasPrefix(line, "m_bucket"):
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &cum)
			if cum < prev {
				t.Fatalf("cumulative count decreased: %s", line)
			}
			prev = cum
		case strings.HasPrefix(line, "m_count"):
			fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &count)
		}
	}
	if !sawInf || inf != count || count == 0 {
		t.Fatalf("inf %d count %d sawInf %v", inf, count, sawInf)
	}
}

func TestCheckExpositionAccepts(t *testing.T) {
	good := `# HELP sea_queries_total queries served
# TYPE sea_queries_total counter
sea_queries_total{graph="fb"} 12
sea_queries_total{graph="tw"} 0
# HELP up node liveness
# TYPE up gauge
up 1
`
	if err := CheckExposition([]byte(good)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestCheckExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"missing TYPE": "# HELP x y\nx 1\n",
		"missing HELP": "# TYPE x counter\nx 1\n",
		"bad type":     "# HELP x y\n# TYPE x speedometer\nx 1\n",
		"bad name":     "# HELP 2x y\n# TYPE 2x counter\n2x 1\n",
		"illegal escape": "# HELP x y\n# TYPE x counter\n" +
			"x{l=\"a\\tb\"} 1\n",
		"unquoted label": "# HELP x y\n# TYPE x counter\nx{l=v} 1\n",
		"duplicate sample": "# HELP x y\n# TYPE x counter\n" +
			"x{l=\"a\"} 1\nx{l=\"a\"} 2\n",
		"bad value": "# HELP x y\n# TYPE x counter\nx fast\n",
		"histogram without inf": "# HELP h y\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram inf != count": "# HELP h y\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n",
		"histogram decreasing": "# HELP h y\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"histogram no sum": "# HELP h y\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 1\nh_count 1\n",
	}
	for name, body := range cases {
		if err := CheckExposition([]byte(body)); err == nil {
			t.Errorf("%s: accepted invalid exposition:\n%s", name, body)
		}
	}
}

func TestStartPprof(t *testing.T) {
	addr, err := StartPprof("127.0.0.1:0")
	if err != nil {
		t.Fatalf("StartPprof: %v", err)
	}
	if !strings.HasPrefix(addr, "127.0.0.1:") {
		t.Fatalf("pprof bound to %s, want loopback", addr)
	}
}
