package serve

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"gaugur/internal/core"
	"gaugur/internal/profile"
	"gaugur/internal/sched/fleet"
	"gaugur/internal/sim"
)

// predictorServer boots the HTTP and binary listeners over a cluster
// scored by a small trained predictor — the serving path of `gaugur
// serve` without -demo, whose scorer knows only the profiled games.
func predictorServer(t *testing.T) (*Server, *Pipeline) {
	t.Helper()
	cat := sim.NewCatalog(42)
	srv := sim.NewServer(3)
	set, err := (&profile.Profiler{Server: srv, Repeats: 2}).ProfileCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewLab(srv, cat, set)
	if err != nil {
		t.Fatal(err)
	}
	colocs := core.RandomColocations(cat, core.ColocationPlan{Pairs: 20, Triples: 8}, 3)
	pred, err := core.Train(set, core.TrainConfig{
		Samples: lab.CollectSamples(colocs, 60, 10), RMKind: core.GBRT, CMKind: core.GBDT, Seed: 1, EncoderK: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(t, 16, 4, 2, fleet.NewPredictorScorer(pred))
	p, err := NewPipeline(PipelineConfig{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := s.StartBinary("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	return s, p
}

// TestUnknownGameRejected: an admit naming a game the predictor has no
// profile for used to nil-dereference inside a shard goroutine and take
// the server down. It must be refused before queueing (400 over HTTP,
// BinBadRequest over the binary protocol) and the server must go on
// answering valid admits.
func TestUnknownGameRejected(t *testing.T) {
	s, p := predictorServer(t)
	base := "http://" + s.Addr()

	if _, err := p.Admit(12345); !errors.Is(err, ErrUnknownGame) {
		t.Fatalf("in-process admit of game 12345: %v, want ErrUnknownGame", err)
	}
	for _, body := range []string{`{"game":12345}`, `{"game":-1}`} {
		resp, out := postJSON(t, base+"/v1/admit", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /v1/admit %s: status %d %v, want 400", body, resp.StatusCode, out)
		}
	}
	if resp, out := postJSON(t, base+"/v1/admit", `{"game":3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("valid admit after unknown ids: status %d %v", resp.StatusCode, out)
	}

	cl, err := DialBinary(s.BinaryAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	frame, err := cl.roundTrip(binOpAdmit, 12345)
	if err != nil || frame[0] != BinBadRequest {
		t.Fatalf("binary admit of game 12345: frame %v err %v, want status %d", frame, err, BinBadRequest)
	}
	if _, _, err := cl.AdmitTraced(12345, 7); err == nil {
		t.Fatal("traced binary admit of game 12345 succeeded")
	}
	if _, _, err := cl.Admit(3); err != nil {
		t.Fatalf("valid binary admit on the same connection: %v", err)
	}
	if st := p.Stats(); st.Placed != 2 {
		t.Fatalf("placed %d, want the 2 valid admits", st.Placed)
	}
}

// TestHTTPOversizedBody: admit and leave bodies beyond maxBodyBytes are
// refused with 413 without being decoded, and the server keeps serving.
func TestHTTPOversizedBody(t *testing.T) {
	c := testCluster(t, 16, 4, 2, nil)
	p, err := NewPipeline(PipelineConfig{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(ServerConfig{Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown() })
	base := "http://" + s.Addr()

	huge := `{"game":1,"pad":"` + strings.Repeat("x", 2*maxBodyBytes) + `"}`
	for _, path := range []string{"/v1/admit", "/v1/leave"} {
		resp, _ := postJSON(t, base+path, huge)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("POST %s with a %d-byte body: status %d, want 413", path, len(huge), resp.StatusCode)
		}
	}
	if resp, out := postJSON(t, base+"/v1/admit", `{"game":1}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("admit after oversized bodies: status %d %v", resp.StatusCode, out)
	}
	if p.Stats().Placed != 1 {
		t.Fatalf("placed %d, want 1", p.Stats().Placed)
	}
}
