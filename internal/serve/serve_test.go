package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"memcontention/internal/bench"
	"memcontention/internal/calib"
	"memcontention/internal/kernels"
	"memcontention/internal/model"
	"memcontention/internal/obs"
	"memcontention/internal/topology"
)

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doJSON(t *testing.T, h http.Handler, method, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("%s %s: non-JSON body %q: %v", method, path, rec.Body.String(), err)
	}
	return rec, m
}

// expectedPrediction recomputes what the server must answer by running
// the same calibration pipeline directly.
func expectedPrediction(t *testing.T, platform string, seed uint64, kind kernels.Kind, n, mcomp, mcomm int) model.Prediction {
	t.Helper()
	plat, err := topology.ByName(platform)
	if err != nil {
		t.Fatal(err)
	}
	runner, err := bench.NewRunner(bench.Config{Platform: plat, Kernel: kernels.New(kind), Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	m, err := calib.CalibrateRunner(runner)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := m.Predict(n, model.Placement{Comp: topology.NodeID(mcomp), Comm: topology.NodeID(mcomm)})
	if err != nil {
		t.Fatal(err)
	}
	return pred
}

func TestPredictMatchesModel(t *testing.T) {
	s := newTestServer(t, Options{Platforms: []string{"henri"}, Seed: 3})
	want := expectedPrediction(t, "henri", 3, kernels.NTMemset, 12, 0, 1)

	rec, body := doJSON(t, s.Handler(), http.MethodGet, "/predict?platform=henri&n=12&mcomp=0&mcomm=1", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET status = %d, body %v", rec.Code, body)
	}
	if got := body["comp_gbps"].(float64); got != want.Comp {
		t.Errorf("comp_gbps = %g, want %g", got, want.Comp)
	}
	if got := body["comm_gbps"].(float64); got != want.Comm {
		t.Errorf("comm_gbps = %g, want %g", got, want.Comm)
	}
	if body["cached"].(bool) {
		t.Error("first request reported cached")
	}

	// POST body form answers identically — and from the cache this time.
	rec, post := doJSON(t, s.Handler(), http.MethodPost, "/predict",
		`{"platform":"henri","n":12,"mcomp":0,"mcomm":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST status = %d, body %v", rec.Code, post)
	}
	if post["comp_gbps"] != body["comp_gbps"] || post["comm_gbps"] != body["comm_gbps"] {
		t.Error("POST and GET answers diverge")
	}
	if !post["cached"].(bool) {
		t.Error("second request missed the cache")
	}
	if post["model_fingerprint"] != body["model_fingerprint"] {
		t.Error("fingerprint changed between requests")
	}
	if post["request_id"] == body["request_id"] {
		t.Error("request ids must be distinct")
	}
}

func TestPredictionsAreReproduciblePerSeed(t *testing.T) {
	const path = "/predict?platform=diablo&n=8&mcomp=0&mcomm=1&kernel=triad"
	answers := make([]map[string]any, 2)
	for i := range answers {
		s := newTestServer(t, Options{Seed: 7})
		rec, body := doJSON(t, s.Handler(), http.MethodGet, path, "")
		if rec.Code != http.StatusOK {
			t.Fatalf("server %d: status %d body %v", i, rec.Code, body)
		}
		answers[i] = body
	}
	for _, key := range []string{"comp_gbps", "comm_gbps", "model_fingerprint"} {
		if answers[0][key] != answers[1][key] {
			t.Errorf("%s not reproducible across identical servers: %v vs %v",
				key, answers[0][key], answers[1][key])
		}
	}
}

func TestPredictErrors(t *testing.T) {
	s := newTestServer(t, Options{Platforms: []string{"henri"}})
	cases := []struct {
		name, method, path, body string
		wantCode                 int
	}{
		{"unknown platform", http.MethodGet, "/predict?platform=nope&n=1", "", 404},
		{"unserved platform", http.MethodGet, "/predict?platform=dahu&n=1", "", 404},
		{"missing n", http.MethodGet, "/predict?platform=henri", "", 400},
		{"zero n", http.MethodGet, "/predict?platform=henri&n=0", "", 400},
		{"NaN n", http.MethodGet, "/predict?platform=henri&n=NaN", "", 400},
		{"negative mcomp", http.MethodGet, "/predict?platform=henri&n=1&mcomp=-1", "", 400},
		{"placement out of range", http.MethodGet, "/predict?platform=henri&n=1&mcomp=9", "", 400},
		{"unknown kernel", http.MethodGet, "/predict?platform=henri&n=1&kernel=fma", "", 400},
		{"bad json", http.MethodPost, "/predict", `{"platform":`, 400},
		{"unknown field", http.MethodPost, "/predict", `{"platform":"henri","n":1,"x":2}`, 400},
		{"method", http.MethodDelete, "/predict?platform=henri&n=1", "", 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, body := doJSON(t, s.Handler(), tc.method, tc.path, tc.body)
			if rec.Code != tc.wantCode {
				t.Fatalf("status = %d, want %d (body %v)", rec.Code, tc.wantCode, body)
			}
			if body["error"] == "" {
				t.Error("error body missing")
			}
		})
	}
}

func TestCalibrationCoalescing(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{Platforms: []string{"henri"}, Registry: reg})

	const callers = 8
	var (
		start   = make(chan struct{})
		wg      sync.WaitGroup
		mu      sync.Mutex
		entries = make(map[*entry]int)
	)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e, _, err := s.cache.get("henri", "nt-memset")
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			entries[e]++
			mu.Unlock()
		}()
	}
	close(start)
	wg.Wait()
	if len(entries) != 1 {
		t.Fatalf("coalesced callers saw %d distinct entries, want 1", len(entries))
	}
	// One calibration = exactly two parameter extractions (local+remote
	// samples), no matter how many callers raced.
	fits, ok := scrapeValue(t, reg, "memcontention_calib_fits_total")
	if !ok || fits != 2 {
		t.Errorf("calib fits = %v (ok=%v), want exactly 2 — calibration ran more than once", fits, ok)
	}
}

// scrapeValue reads one unlabelled series off the live Prometheus
// endpoint — asserting through the plane under test, not the registry
// internals.
func scrapeValue(t *testing.T, reg *obs.Registry, series string) (float64, bool) {
	t.Helper()
	live := &obs.Live{Registry: reg}
	rec := httptest.NewRecorder()
	live.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	stats, err := obs.ParseExposition(rec.Body.String())
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	return stats.Value(series)
}

func TestBackpressureShedsWith429(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{Platforms: []string{"henri"}, MaxInFlight: 1, RetryAfter: 2 * time.Second, Registry: reg})
	// Saturate the semaphore deterministically.
	s.sem <- struct{}{}
	rec, body := doJSON(t, s.Handler(), http.MethodGet, "/predict?platform=henri&n=1", "")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %v)", rec.Code, body)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want \"2\"", got)
	}
	<-s.sem
	if shed, ok := scrapeValue(t, reg, "memcontention_serve_shed_total"); !ok || shed != 1 {
		t.Errorf("shed counter = %v, want 1", shed)
	}
	// Capacity restored: the same request now succeeds.
	rec, _ = doJSON(t, s.Handler(), http.MethodGet, "/predict?platform=henri&n=1", "")
	if rec.Code != http.StatusOK {
		t.Errorf("post-shed status = %d, want 200", rec.Code)
	}
}

func TestLivePlaneMountedAndQuantilesPublished(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Options{Platforms: []string{"henri"}, Registry: reg})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	if rec := httptest.NewRecorder(); true {
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/readyz after Warm = %d", rec.Code)
		}
	}
	for i := 0; i < 20; i++ {
		rec, _ := doJSON(t, h, http.MethodGet, "/predict?platform=henri&n=4&mcomm=1", "")
		if rec.Code != http.StatusOK {
			t.Fatalf("warm request %d: status %d", i, rec.Code)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	stats, err := obs.ParseExposition(rec.Body.String())
	if err != nil {
		t.Fatalf("/metrics does not parse: %v", err)
	}
	if v, ok := stats.Value(`memcontention_serve_requests_total{code="200"}`); !ok || v != 20 {
		t.Errorf("requests counter = %v, want 20", v)
	}
	p99, ok := stats.Value(`memcontention_serve_latency_quantile_seconds{quantile="0.99"}`)
	if !ok || p99 <= 0 {
		t.Errorf("p99 gauge = %v (ok=%v), want > 0", p99, ok)
	}
	if qps, ok := stats.Value("memcontention_serve_window_qps"); !ok || qps <= 0 {
		t.Errorf("window qps = %v, want > 0", qps)
	}
	if hits, ok := stats.Value("memcontention_serve_cache_hits_total"); !ok || hits != 20 {
		t.Errorf("cache hits = %v, want 20 (Warm precalibrated)", hits)
	}
	// /metrics.json and /debug/pprof ride on the same mux.
	recJSON := httptest.NewRecorder()
	h.ServeHTTP(recJSON, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	if recJSON.Code != http.StatusOK {
		t.Errorf("/metrics.json = %d", recJSON.Code)
	}
	recP := httptest.NewRecorder()
	h.ServeHTTP(recP, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if recP.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ = %d", recP.Code)
	}
}

func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, Options{Platforms: []string{"henri"}, DrainTimeout: 2 * time.Second})
	if err := s.Warm(context.Background()); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()

	base := "http://" + ln.Addr().String()
	resp, err := http.Get(base + "/predict?platform=henri&n=2")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live request status = %d", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil on graceful drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain within 5s")
	}
	if s.probe.Ready() {
		t.Error("probe still ready after drain")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after drain")
	}
}

func TestNewRejectsUnknownPlatform(t *testing.T) {
	if _, err := New(Options{Platforms: []string{"henri", "atlantis"}}); err == nil {
		t.Fatal("New accepted an unknown platform")
	}
}

func TestPlatformsEndpoint(t *testing.T) {
	s := newTestServer(t, Options{Platforms: []string{"pyxis", "henri"}})
	rec, body := doJSON(t, s.Handler(), http.MethodGet, "/platforms", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/platforms = %d", rec.Code)
	}
	got := fmt.Sprintf("%v", body["platforms"])
	if got != "[henri pyxis]" {
		t.Errorf("platforms = %s, want sorted [henri pyxis]", got)
	}
}
