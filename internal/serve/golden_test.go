package serve

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// goldenCases are the tiered and NUMA requests whose full response
// bodies are pinned byte for byte under testdata/. The bodies carry
// every per-tier field and the solver telemetry, so any drift in the
// Eq. 5 or §VIII solve, in the response mapping, or in the JSON
// encoding shows up as a diff.
var goldenCases = []struct {
	name, path, body string
}{
	{"tiered_bigdata", "/v1/evaluate/tiered", `{"params":{"class":"bigdata"},"platform":{"tiers":[
		{"name":"near","hit_fraction":0.8,"compulsory_ns":75,"peak_gbps":42},
		{"name":"far","hit_fraction":0.2,"compulsory_ns":300,"peak_gbps":10}]}}`},
	{"tiered_hpc_far_saturated", "/v1/evaluate/tiered", `{"params":{"class":"hpc"},"platform":{"tiers":[
		{"name":"hbm","hit_fraction":0.5,"compulsory_ns":60,"peak_gbps":200},
		{"name":"far","hit_fraction":0.5,"compulsory_ns":250,"peak_gbps":2}]}}`},
	{"tiered_enterprise_three_tier", "/v1/evaluate/tiered", `{"params":{"class":"enterprise"},"platform":{"cores":16,"ghz":2.5,"tiers":[
		{"name":"hbm","hit_fraction":0.6,"compulsory_ns":50,"peak_gbps":120},
		{"name":"dram","hit_fraction":0.3,"compulsory_ns":80,"peak_gbps":40},
		{"name":"cxl","hit_fraction":0.1,"compulsory_ns":350,"peak_gbps":8}]}}`},
	{"numa_bigdata_remote30", "/v1/evaluate/numa", `{"params":{"class":"bigdata"},"platform":{"remote_fraction":0.3}}`},
	{"numa_hpc_link_saturated", "/v1/evaluate/numa", `{"params":{"class":"hpc"},"platform":{"remote_fraction":0.5,"link_peak_gbps":5}}`},
	{"numa_enterprise_single_socket", "/v1/evaluate/numa", `{"params":{"class":"enterprise"},"platform":{"sockets":1}}`},
}

// TestTieredNUMAResponseGoldens pins the /v1/evaluate/tiered and
// /v1/evaluate/numa reply bodies byte for byte, and checks that the
// cached repeat differs only in its cached flag.
func TestTieredNUMAResponseGoldens(t *testing.T) {
	h := New().Handler()
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			status, got, _ := doJSON(t, h, http.MethodPost, tc.path, tc.body)
			if status != http.StatusOK {
				t.Fatalf("POST %s = %d: %s", tc.path, status, got)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("POST %s body drifted from golden:\n got: %s\nwant: %s", tc.path, got, want)
			}
			_, again, _ := doJSON(t, h, http.MethodPost, tc.path, tc.body)
			wantCached := bytes.Replace(want, []byte(`"cached": false`), []byte(`"cached": true`), 1)
			if !bytes.Equal(again, wantCached) {
				t.Errorf("cached repeat of %s differs beyond the cached flag:\n got: %s\nwant: %s", tc.path, again, wantCached)
			}
		})
	}
}
