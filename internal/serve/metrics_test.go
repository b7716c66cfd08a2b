package serve

import (
	"fmt"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	promType   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
	promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_]\w*="[^"]*"(?:,[a-zA-Z_]\w*="[^"]*")*\})? (\S+)$`)
)

// parsePromStrict checks a Prometheus text exposition strictly: every
// sample belongs to the family declared by the most recent # TYPE line
// (so each family is typed before its first sample and its samples are
// contiguous), no family is typed twice or left without samples,
// histogram buckets carry an le label, counters are non-negative, and
// every value parses. It returns the number of families.
func parsePromStrict(text string) (int, error) {
	kinds := map[string]string{}
	current, samples := "", 0
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if m := promType.FindStringSubmatch(line); m != nil {
			if current != "" && samples == 0 {
				return 0, fmt.Errorf("line %d: family %s has no samples", n+1, current)
			}
			if _, dup := kinds[m[1]]; dup {
				return 0, fmt.Errorf("line %d: second # TYPE for %s", n+1, m[1])
			}
			kinds[m[1]], current, samples = m[2], m[1], 0
			continue
		}
		if strings.HasPrefix(line, "# TYPE") || strings.HasPrefix(line, "# HELP") {
			return 0, fmt.Errorf("line %d: malformed metadata %q", n+1, line)
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			return 0, fmt.Errorf("line %d: malformed sample %q", n+1, line)
		}
		name, labels := m[1], m[2]
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return 0, fmt.Errorf("line %d: value of %s: %v", n+1, name, err)
		}
		family := name
		if kinds[current] == "histogram" {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if strings.TrimSuffix(name, suffix) == current {
					family = current
					if suffix == "_bucket" && !strings.Contains(labels, `le="`) {
						return 0, fmt.Errorf("line %d: bucket without le label", n+1)
					}
				}
			}
		}
		if family != current {
			return 0, fmt.Errorf("line %d: sample %s outside its family's # TYPE block (current family %q)", n+1, name, current)
		}
		if kinds[current] == "counter" && v < 0 {
			return 0, fmt.Errorf("line %d: negative counter %s", n+1, name)
		}
		samples++
	}
	if current != "" && samples == 0 {
		return 0, fmt.Errorf("family %s has no samples", current)
	}
	return len(kinds), nil
}

// TestMetricsExpositionStrict parses /metrics after mixed traffic and
// requires a # TYPE line ahead of every family's samples.
func TestMetricsExpositionStrict(t *testing.T) {
	h := New().Handler()
	doJSON(t, h, http.MethodPost, "/v1/evaluate", `{"params":{"class":"bigdata"},"platform":{}}`)
	doJSON(t, h, http.MethodPost, "/v1/evaluate", `{"params":{"class":"nope"},"platform":{}}`)
	status, blob, _ := doJSON(t, h, http.MethodGet, "/metrics", "")
	if status != http.StatusOK {
		t.Fatalf("GET /metrics = %d", status)
	}
	families, err := parsePromStrict(string(blob))
	if err != nil {
		t.Fatalf("%v\n%s", err, blob)
	}
	if families < 20 {
		t.Errorf("parsed %d families, want every daemon family typed:\n%s", families, blob)
	}

	for _, bad := range []string{
		"memmodeld_up 1\n",
		"# TYPE a_total counter\na_total 1\n# TYPE b gauge\nb 2\na_total 3\n",
		"# TYPE a counter\n# TYPE a counter\na 1\n",
		"# TYPE h histogram\nh_bucket 1\n",
	} {
		if _, err := parsePromStrict(bad); err == nil {
			t.Errorf("strict parser accepted %q", bad)
		}
	}
}
