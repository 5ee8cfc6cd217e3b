package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"fabricsim/internal/metrics"
	"fabricsim/internal/simtest"
	"fabricsim/internal/trace"
	"fabricsim/internal/types"
)

// startTestServer boots a server on a loopback ephemeral port and tears
// it down with the test.
func startTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	s, err := Start(cfg)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(s.Stop)
	return s
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestMetricsEndpoint(t *testing.T) {
	col := metrics.NewCollector()
	now := time.Now()
	for i := 0; i < 5; i++ {
		id := types.TxID(fmt.Sprintf("tx%d", i))
		col.Submitted(id, now)
		col.Committed(id, now.Add(10*time.Millisecond), types.ValidationValid)
	}
	stop := col.StartSampler(5 * time.Millisecond)
	defer stop()
	// The tps gauge reads the sampler's latest window.
	if !simtest.Until(5*time.Second, func() bool { _, ok := col.LatestSample(); return ok }) {
		t.Fatal("sampler took no sample")
	}

	s := startTestServer(t, Config{Collector: col, TimeScale: 0.5})
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{
		"fabricsim_submitted_total 5",
		"fabricsim_committed_total 5",
		"fabricsim_inflight 0",
		"# TYPE fabricsim_tps gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics body missing %q:\n%s", want, body)
		}
	}
}

func TestMetricsNoCollector(t *testing.T) {
	s := startTestServer(t, Config{})
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if !strings.Contains(body, "no collector") {
		t.Errorf("expected placeholder, got %q", body)
	}
}

func TestSetCollectorSwap(t *testing.T) {
	s := startTestServer(t, Config{})
	col := metrics.NewCollector()
	col.Submitted(types.TxID("txA"), time.Now())
	s.SetCollector(col)
	_, body := get(t, "http://"+s.Addr()+"/metrics")
	if !strings.Contains(body, "fabricsim_submitted_total 1") {
		t.Errorf("swapped collector not served:\n%s", body)
	}
}

func TestTraceEndpoints(t *testing.T) {
	tr := trace.New(0)
	id := tr.Mint("tx1")
	base := time.Now()
	tr.Record(id, trace.SpanGatewayPropose, "gw0", base, base.Add(time.Millisecond))
	tr.Record(id, trace.SpanGatewayEndorse, "gw0", base.Add(time.Millisecond), base.Add(3*time.Millisecond))
	tr.Record(id, trace.SpanGatewaySubmit, "gw0", base.Add(3*time.Millisecond), base.Add(4*time.Millisecond))
	tr.Record(id, trace.SpanGatewayCommitWait, "gw0", base.Add(4*time.Millisecond), base.Add(9*time.Millisecond))
	tr.Bind("tx1-retry", id)

	s := startTestServer(t, Config{Tracer: tr})

	code, body := get(t, "http://"+s.Addr()+"/traces")
	if code != http.StatusOK || !strings.Contains(body, "tx1") {
		t.Fatalf("index: status %d body %q", code, body)
	}

	// Fetch by trace ID and by a bound retry alias; both resolve.
	for _, key := range []string{"tx1", "tx1-retry"} {
		code, body = get(t, "http://"+s.Addr()+"/traces/"+key)
		if code != http.StatusOK {
			t.Fatalf("trace %s: status %d body %q", key, code, body)
		}
		var dump struct {
			TraceID string       `json:"trace_id"`
			Spans   []trace.Span `json:"spans"`
			CP      *struct {
				Dominant string `json:"dominant"`
			} `json:"critical_path"`
		}
		if err := json.Unmarshal([]byte(body), &dump); err != nil {
			t.Fatalf("trace %s: bad json: %v", key, err)
		}
		if dump.TraceID != "tx1" || len(dump.Spans) != 4 {
			t.Errorf("trace %s: got id=%q spans=%d", key, dump.TraceID, len(dump.Spans))
		}
		if dump.CP == nil || dump.CP.Dominant != trace.SpanGatewayCommitWait {
			t.Errorf("trace %s: critical path missing or wrong dominant: %+v", key, dump.CP)
		}
	}

	code, _ = get(t, "http://"+s.Addr()+"/traces/nope")
	if code != http.StatusNotFound {
		t.Errorf("unknown trace: status %d, want 404", code)
	}
}

func TestHealthz(t *testing.T) {
	heights := map[string]map[string]uint64{
		"peer0": {"ch1": 10, "ch2": 4},
		"peer1": {"ch1": 7, "ch2": 4},
	}
	s := startTestServer(t, Config{Health: func() map[string]map[string]uint64 { return heights }})
	code, body := get(t, "http://"+s.Addr()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var reply struct {
		Status string `json:"status"`
		MaxLag uint64 `json:"max_lag"`
		Peers  map[string]struct {
			Heights map[string]uint64 `json:"heights"`
			Lag     uint64            `json:"lag"`
		} `json:"peers"`
	}
	if err := json.Unmarshal([]byte(body), &reply); err != nil {
		t.Fatalf("bad json: %v\n%s", err, body)
	}
	if reply.Status != "ok" || reply.MaxLag != 3 {
		t.Errorf("status=%q max_lag=%d, want ok/3", reply.Status, reply.MaxLag)
	}
	if reply.Peers["peer1"].Lag != 3 || reply.Peers["peer0"].Lag != 0 {
		t.Errorf("peer lags wrong: %+v", reply.Peers)
	}
}

func TestPprofMounted(t *testing.T) {
	s := startTestServer(t, Config{})
	code, body := get(t, "http://"+s.Addr()+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("pprof index: status %d", code)
	}
}
