package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestWritePrometheusGolden pins the exposition format byte-for-byte: sorted
// metric names, HELP/TYPE headers, cumulative buckets with a +Inf terminator,
// _sum/_count series, and the derived p50/p95/p99 quantile lines.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("batch_total", "batches processed").Add(42)
	reg.Gauge("apply_lag", "scn lag").Set(3)
	h := reg.Histogram("lat_seconds", "latency", []float64{0.5, 1, 2})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(0.75)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP apply_lag scn lag
# TYPE apply_lag gauge
apply_lag 3
# HELP batch_total batches processed
# TYPE batch_total counter
batch_total 42
# HELP lat_seconds latency
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="2"} 3
lat_seconds_bucket{le="+Inf"} 4
lat_seconds_sum 6.75
lat_seconds_count 4
lat_seconds_p50 0.75
lat_seconds_p95 5
lat_seconds_p99 5
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hits_total", "hits").Add(7)
	tr := NewPipelineTrace(reg, 16)
	tr.Observe(StageApply, 99, time.Millisecond)

	h := NewHandler(reg, tr)
	h.AddStats("demo", func() any { return map[string]int{"answer": 41} })
	srv, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}

	metrics := string(get("/metrics"))
	if !strings.Contains(metrics, "hits_total 7") {
		t.Fatalf("/metrics missing counter:\n%s", metrics)
	}
	if !strings.Contains(metrics, `pipeline_stage_apply_seconds_bucket{le="+Inf"} 1`) {
		t.Fatalf("/metrics missing stage histogram:\n%s", metrics)
	}

	var stats map[string]json.RawMessage
	if err := json.Unmarshal(get("/debug/stats"), &stats); err != nil {
		t.Fatal(err)
	}
	if _, ok := stats["demo"]; !ok {
		t.Fatalf("/debug/stats missing component: %v", stats)
	}
	if _, ok := stats["gauges"]; !ok {
		t.Fatalf("/debug/stats missing gauges: %v", stats)
	}

	var traceOut struct {
		Events []Event `json:"events"`
	}
	if err := json.Unmarshal(get("/debug/trace?n=8"), &traceOut); err != nil {
		t.Fatal(err)
	}
	if len(traceOut.Events) != 1 || traceOut.Events[0].Stage != "apply" || traceOut.Events[0].SCN != 99 {
		t.Fatalf("/debug/trace: %+v", traceOut.Events)
	}
}

// TestWritePrometheusEmptyHistogram: no percentile lines until data arrives.
func TestWritePrometheusEmptyHistogram(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("empty_seconds", "", []float64{1})
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "_p50") {
		t.Fatalf("empty histogram emitted percentiles:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "empty_seconds_count 0") {
		t.Fatalf("empty histogram missing count:\n%s", b.String())
	}
}

// TestHandlerFreshnessEndpoint exercises /debug/freshness detached (404) and
// attached (summary + waterfall JSON round-trips).
func TestHandlerFreshnessEndpoint(t *testing.T) {
	reg := NewRegistry()
	h := NewHandler(reg, NewPipelineTrace(reg, 8))
	srv, err := Serve("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/debug/freshness")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("detached endpoint: status %d, want 404", resp.StatusCode)
	}

	ft := NewFreshnessTracer(reg, 1, 8)
	h.SetFreshness(ft)
	for _, s := range requiredStages {
		ft.Note(s, 3, time.Microsecond)
	}
	ft.Commit(3, 1, time.Now().UnixNano())
	ft.Publish(3, 0)

	resp, err = http.Get("http://" + srv.Addr() + "/debug/freshness?n=4")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attached endpoint: status %d", resp.StatusCode)
	}
	var doc struct {
		Summary FreshnessSummary `json:"summary"`
		Spans   []SpanJSON       `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Summary.Stats.Completed != 1 || len(doc.Spans) != 1 {
		t.Fatalf("freshness doc: %+v", doc)
	}
	if doc.Spans[0].SCN != 3 || doc.Spans[0].State != "complete" {
		t.Fatalf("span: %+v", doc.Spans[0])
	}
}
