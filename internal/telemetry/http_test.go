package telemetry

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestServeDebugServesMetrics: the -debug-addr helper binds port 0 on
// loopback, reports the bound address, and serves the registry there.
func TestServeDebugServesMetrics(t *testing.T) {
	tel := New(Options{})
	tel.Metrics().Counter("hetmp_debug_test_total").Add(3)
	srv, addr, err := ServeDebug("test", "127.0.0.1:0", tel)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr.String() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "hetmp_debug_test_total 3") {
		t.Fatalf("GET /metrics: %s\n%s", resp.Status, body)
	}
}
