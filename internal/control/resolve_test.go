package control

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/geo"
	"repro/internal/testutil"
)

func TestResolveEdgeDoesNotRecordJoin(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	g, err := s.StartBroadcast(u.ID, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	url, err := s.ResolveEdge(g.BroadcastID, geo.Location{City: "SF"})
	if err != nil || url != "http://edge-1/hls" {
		t.Fatalf("ResolveEdge = %q, %v", url, err)
	}
	info, _ := s.Info(g.BroadcastID)
	if info.Viewers != 0 {
		t.Fatalf("Viewers = %d after ResolveEdge, want 0 (no join recorded)", info.Viewers)
	}
	if _, err := s.ResolveEdge("missing", geo.Location{}); !errors.Is(err, ErrNoBroadcast) {
		t.Fatalf("missing broadcast err = %v", err)
	}
}

func TestResolveEdgeWorksAfterBroadcastEnds(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	g, _ := s.StartBroadcast(u.ID, geo.Location{})
	if err := s.EndBroadcast(g.BroadcastID, g.Token); err != nil {
		t.Fatal(err)
	}
	// Join refuses ended broadcasts, but a viewer mid-replay must still be
	// able to re-resolve its edge.
	if _, err := s.Join(1, g.BroadcastID, geo.Location{}); !errors.Is(err, ErrEnded) {
		t.Fatalf("Join after end = %v, want ErrEnded", err)
	}
	if url, err := s.ResolveEdge(g.BroadcastID, geo.Location{}); err != nil || url == "" {
		t.Fatalf("ResolveEdge after end = %q, %v, want success", url, err)
	}
}

func TestResolveEdgeHTTPRoundTrip(t *testing.T) {
	testutil.CheckGoroutines(t)
	var mu sync.Mutex
	var gotLoc geo.Location
	s := NewService(Config{
		Routes: Routes{
			AssignOrigin: func(geo.Location) (string, string) { return "o1", "addr" },
			AssignEdge: func(id string, loc geo.Location) string {
				mu.Lock()
				gotLoc = loc
				mu.Unlock()
				return "http://edge-2/hls"
			},
		},
	})
	srv := httptest.NewServer(Handler("/api", s))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL + "/api"}
	ctx := context.Background()

	u := s.Register("b")
	g, _ := s.StartBroadcast(u.ID, geo.Location{})
	url, err := client.ResolveEdge(ctx, g.BroadcastID, geo.Location{City: "São Paulo", Lat: -23.55, Lon: -46.63})
	if err != nil || url != "http://edge-2/hls" {
		t.Fatalf("ResolveEdge = %q, %v", url, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotLoc.City != "São Paulo" || gotLoc.Lat != -23.55 || gotLoc.Lon != -46.63 {
		t.Fatalf("location did not survive the query string: %+v", gotLoc)
	}
	if _, err := client.ResolveEdge(ctx, "missing", geo.Location{}); !errors.Is(err, ErrNoBroadcast) {
		t.Fatalf("missing broadcast err = %v", err)
	}
}

// TestResolveEdgeCoordinateParsing: absent coordinates mean 0; malformed ones
// are refused, not silently resolved from (0,0).
func TestResolveEdgeCoordinateParsing(t *testing.T) {
	var got []geo.Location
	s := NewService(Config{Routes: Routes{AssignEdge: func(id string, loc geo.Location) string {
		got = append(got, loc)
		return "http://edge-2/hls"
	}}})
	g, _ := s.StartBroadcast(1, geo.Location{})
	h := Handler("/api", s)
	for _, tc := range []struct {
		query string
		want  int
		loc   geo.Location
	}{
		{"", http.StatusOK, geo.Location{}},
		{"city=SF&lon=", http.StatusOK, geo.Location{City: "SF"}},
		{"lat=1e1&lon=-0.5", http.StatusOK, geo.Location{Lat: 10, Lon: -0.5}},
		{"lat=abc", http.StatusBadRequest, geo.Location{}},
		{"lat=1&lon=2.5west", http.StatusBadRequest, geo.Location{}},
	} {
		got = nil
		code := call(h, "GET", "/api/broadcasts/"+g.BroadcastID+"/edge?"+tc.query, "", "").Code
		if code != tc.want {
			t.Errorf("edge?%s = %d, want %d", tc.query, code, tc.want)
		}
		if tc.want == http.StatusOK && (len(got) != 1 || got[0] != tc.loc) {
			t.Errorf("edge?%s resolved %+v, want %+v", tc.query, got, tc.loc)
		}
		if tc.want != http.StatusOK && len(got) != 0 {
			t.Errorf("edge?%s reached the resolver with %+v", tc.query, got)
		}
	}
}
