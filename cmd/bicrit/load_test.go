package main

import (
	"bytes"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bicriteria"
)

// TestLoadAgainstLiveServer drives the load generator against a real
// in-process scheduler service, then drains it through the generator's
// -drain flag.
func TestLoadAgainstLiveServer(t *testing.T) {
	newServer := func() (*bicriteria.ServeServer, *httptest.Server) {
		server, err := bicriteria.NewServeServer(bicriteria.ServeConfig{
			Grid: bicriteria.GridConfig{
				Clusters: []bicriteria.GridClusterSpec{{M: 16}, {M: 8}},
				Routing:  bicriteria.GridLeastBacklog(),
			},
			Speedup:         100_000,
			RefreshInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return server, httptest.NewServer(server.Handler())
	}

	// Replay a saved stream file against a live server.
	serverA, tsA := newServer()
	defer tsA.Close()
	defer serverA.Drain()
	dir := t.TempDir()
	path := filepath.Join(dir, "stream.json")
	var buf bytes.Buffer
	if err := workloadCmd([]string{"-arrivals", path, "-m", "16", "-n", "20", "-rate", "8", "-seed", "4"}, &buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := loadCmd([]string{"-target", tsA.URL, "-in", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "replayed 20 jobs") {
		t.Fatalf("unexpected replay output: %s", buf.String())
	}

	// Generate on the fly, bulk posts, then drain through the generator.
	serverB, tsB := newServer()
	defer tsB.Close()
	buf.Reset()
	args := []string{"-target", tsB.URL, "-kind", "mixed", "-m", "16", "-n", "24",
		"-rate", "6", "-seed", "5", "-bulk", "6", "-drain"}
	if err := loadCmd(args, &buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	if !strings.Contains(got, "replayed 24 jobs") {
		t.Fatalf("unexpected replay output: %s", got)
	}
	if !strings.Contains(got, "drained 24 jobs") {
		t.Fatalf("drain summary missing or wrong: %s", got)
	}
	if !serverB.Drained() {
		t.Fatal("server not drained after -drain replay")
	}
}

// TestLoadPacesSubmissions checks that -speedup spreads the
// submissions over wall time: a 10-unit stream at speedup 100 must take
// at least ~100ms.
func TestLoadPacesSubmissions(t *testing.T) {
	server, err := bicriteria.NewServeServer(bicriteria.ServeConfig{
		Grid: bicriteria.GridConfig{
			Clusters: []bicriteria.GridClusterSpec{{M: 8}},
		},
		Speedup:         100,
		RefreshInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer server.Drain()
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	var buf bytes.Buffer
	start := time.Now()
	// rate 2, n 20 => horizon around 10 virtual units; speedup 100 means
	// about 100ms of wall-clock pacing.
	args := []string{"-target", ts.URL, "-m", "8", "-n", "20", "-rate", "2", "-seed", "6", "-speedup", "100"}
	if err := loadCmd(args, &buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("paced replay finished in %s, too fast to have paced at all", elapsed)
	}
}

// TestLoadRejectsBadFlags pins that the generator needs a target and a
// valid stream.
func TestLoadRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "5"},
		{"-target", "http://127.0.0.1:1", "-kind", "nonsense"},
		{"-target", "http://127.0.0.1:1", "-in", filepath.Join(t.TempDir(), "absent.json")},
	} {
		if err := loadCmd(args, &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
