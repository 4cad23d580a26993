package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestHandlerMetricsEndpoint(t *testing.T) {
	m := New()
	tapN(NewGraphObserver(m, nil), "gps", 7)
	srv := httptest.NewServer(Handler(m))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("get /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("content-type = %q", ct)
	}
	var snap map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got := snap["spans_emitted"].(float64); got != 7 {
		t.Errorf("spans_emitted = %v, want 7", got)
	}
	if _, ok := snap["nodes"].(map[string]any)["gps"]; !ok {
		t.Errorf("nodes missing gps: %v", snap["nodes"])
	}

	// pprof rides along on the same mux.
	resp2, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatalf("get pprof: %v", err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("pprof status = %d", resp2.StatusCode)
	}
}

func TestServeBindsEphemeralPort(t *testing.T) {
	m := New()
	s, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer s.Close()
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
