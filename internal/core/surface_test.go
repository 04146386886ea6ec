package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/control"
	"repro/internal/geo"
	"repro/internal/hls"
	"repro/internal/pubsub"
	"repro/internal/testutil"
)

// TestPlatformDispatchAllocs: the platform's dispatch costs a request
// nothing. Through the platform handler, each endpoint a broadcast's
// lifecycle calls allocates exactly what the handler behind it does alone,
// counted through httptest.NewRecorder and no socket.
func TestPlatformDispatchAllocs(t *testing.T) {
	if testutil.Race {
		t.Skip("sync.Pool drops puts under the race detector, so the count is not exact")
	}
	// Every join in the run takes the same (RTMP) route.
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second, RTMPViewerLimit: 1 << 30})
	s := p.httpSrv.Handler.(*surface)
	u := p.Ctrl.Register("alice")
	g, err := p.Ctrl.StartBroadcast(u.ID, geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49})
	if err != nil {
		t.Fatal(err)
	}
	b := g.BroadcastID
	for _, tc := range []struct {
		name, method, target, body string
		inner                      http.Handler
	}{
		{"join", "POST", "/api/broadcasts/" + b + "/join", `{"user_id":1,"city":"Ashburn","lat":39.04,"lon":-77.49}`, s.api},
		{"resolve-edge", "GET", "/api/broadcasts/" + b + "/edge?city=Ashburn&lat=39.04&lon=-77.49", "", s.api},
		{"events", "GET", "/channel/" + b + "/events?since=0", "", s.channel},
		// Hearts: a comment would also grow the commenter set.
		{"publish", "POST", "/channel/" + b + "/publish", `{"user_id":"viewer-7","kind":"heart"}`, s.channel},
		{"fleet", "GET", "/fleet", "", s.fleet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := bytes.NewReader([]byte(tc.body))
			req := httptest.NewRequest(tc.method, tc.target, body)
			// Joins and publishes grow a list per request, a fraction of an
			// allocation that the whole-number average drops.
			cost := func(h http.Handler) float64 {
				return testing.AllocsPerRun(200, func() {
					body.Seek(0, io.SeekStart)
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Fatalf("status %d: %s", rec.Code, rec.Body)
					}
				})
			}
			if inner, outer := cost(tc.inner), cost(s); outer != inner {
				t.Fatalf("%s allocates %.0f times per request through the platform, %.0f alone", tc.name, outer, inner)
			}
		})
	}
}

// TestClientsShareRequestHeaders runs the platform's three JSON and HLS
// clients concurrently against one platform — control clients with and
// without an API key, pubsub and HLS — so the race detector sees every
// request they send through the one read-only header each shares.
func TestClientsShareRequestHeaders(t *testing.T) {
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})
	tn, err := p.Ctrl.CreateTenant("acme", control.Plan{})
	if err != nil {
		t.Fatal(err)
	}
	key, err := p.Ctrl.IssueAPIKey(tn.ID)
	if err != nil {
		t.Fatal(err)
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	ctx := context.Background()
	loc := geo.Location{City: "Ashburn", Lat: 39.04, Lon: -77.49}
	anon := &control.Client{BaseURL: p.ControlURL(), HTTPClient: hc}
	keyed := &control.Client{BaseURL: p.ControlURL(), HTTPClient: hc, APIKey: key.Key}
	uid, err := anon.Register(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	g, err := keyed.StartBroadcast(ctx, uid, loc)
	if err != nil {
		t.Fatal(err)
	}
	mc := &pubsub.Client{BaseURL: p.MessageURL(), HTTPClient: hc}
	vc := &hls.Client{BaseURL: p.EdgeURL(p.Topo.Edges[0]), HTTPClient: hc}

	works := []func() error{
		func() error { _, err := anon.Join(ctx, uid, g.BroadcastID, loc); return err },
		func() error { _, err := keyed.Join(ctx, uid, g.BroadcastID, loc); return err },
		func() error {
			_, err := mc.Publish(ctx, g.BroadcastID, pubsub.Event{UserID: "u", Kind: pubsub.KindHeart})
			return err
		},
		func() error {
			// Nothing is ingested, so the edge finds no list; the request
			// is what counts.
			if _, err := vc.FetchChunkList(ctx, g.BroadcastID, 0); !errors.Is(err, hls.ErrNotFound) {
				return err
			}
			return nil
		},
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(works))
	for _, work := range works {
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range 20 {
					if err := work(); err != nil {
						errs <- err
						return
					}
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := keyed.EndBroadcast(ctx, g.BroadcastID, g.Token); err != nil {
		t.Fatal(err)
	}
}

// A request for the server-wide target "*" is refused, as ServeMux refuses
// it. (net/http answers OPTIONS * itself, so this is any other method.)
func TestPlatformRefusesAsteriskTarget(t *testing.T) {
	p := startPlatform(t, PlatformConfig{ChunkDuration: time.Second})
	for _, proto := range []string{"HTTP/1.0", "HTTP/1.1"} {
		req := httptest.NewRequest("GET", "*", nil)
		req.Proto, req.ProtoMinor = proto, int(proto[len(proto)-1]-'0')
		rec := httptest.NewRecorder()
		p.httpSrv.Handler.ServeHTTP(rec, req)
		if wantClose := proto == "HTTP/1.1"; rec.Code != http.StatusBadRequest || (rec.Header().Get("Connection") == "close") != wantClose {
			t.Errorf("%s GET *: %d, Connection %q", proto, rec.Code, rec.Header().Get("Connection"))
		}
	}
}
