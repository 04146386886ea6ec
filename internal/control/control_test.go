package control

import (
	"context"
	"crypto/ed25519"
	"errors"
	"net/http/httptest"
	"testing"

	"repro/internal/geo"
	"repro/internal/metrics"
	"repro/internal/rtmp"
	"repro/internal/testutil"
	"repro/internal/wire"
)

func newTestService() *Service {
	return NewService(Config{
		Routes: Routes{
			AssignOrigin: func(loc geo.Location) (string, string) {
				return "origin-1", "127.0.0.1:1935"
			},
			AssignEdge: func(id string, loc geo.Location) string {
				return "http://edge-1/hls"
			},
			MessageURL: "http://msg/channel",
		},
		RTMPViewerLimit: 3,
		Seed:            1,
	})
}

func TestRegisterSequentialIDs(t *testing.T) {
	s := newTestService()
	for i := uint64(1); i <= 5; i++ {
		if u := s.Register("u"); u.ID != i {
			t.Fatalf("user ID = %d, want %d", u.ID, i)
		}
	}
	if s.UserCount() != 5 {
		t.Fatalf("UserCount = %d", s.UserCount())
	}
}

func TestBroadcastLifecycle(t *testing.T) {
	s := newTestService()
	u := s.Register("alice")
	grant, err := s.StartBroadcast(u.ID, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	if grant.Token == "" || grant.BroadcastID == "" || grant.RTMPAddr == "" {
		t.Fatalf("incomplete grant: %+v", grant)
	}
	if s.LiveCount() != 1 {
		t.Fatalf("LiveCount = %d", s.LiveCount())
	}
	info, err := s.Info(grant.BroadcastID)
	if err != nil || !info.Live || info.Broadcaster != u.ID {
		t.Fatalf("info = %+v, err %v", info, err)
	}
	if err := s.EndBroadcast(grant.BroadcastID, "wrong"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("wrong-token end err = %v", err)
	}
	if err := s.EndBroadcast(grant.BroadcastID, grant.Token); err != nil {
		t.Fatal(err)
	}
	if s.LiveCount() != 0 {
		t.Fatal("broadcast still live after end")
	}
	// Idempotent end.
	if err := s.EndBroadcast(grant.BroadcastID, grant.Token); err != nil {
		t.Fatalf("second end err = %v", err)
	}
}

func TestJoinRoutesFirstNToRTMP(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	grant, _ := s.StartBroadcast(u.ID, geo.Location{})
	for i := 0; i < 3; i++ {
		g, err := s.Join(uint64(100+i), grant.BroadcastID, geo.Location{})
		if err != nil {
			t.Fatal(err)
		}
		if g.Protocol != ProtoRTMP || g.RTMPAddr == "" {
			t.Fatalf("join %d = %+v, want RTMP", i, g)
		}
		if g.HLSBaseURL == "" {
			t.Fatal("RTMP join should still receive the HLS URL (§4.3)")
		}
	}
	g, err := s.Join(999, grant.BroadcastID, geo.Location{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Protocol != ProtoHLS {
		t.Fatalf("4th join protocol = %s, want HLS", g.Protocol)
	}
	joins, _ := s.Joins(grant.BroadcastID)
	if len(joins) != 4 {
		t.Fatalf("joins = %d", len(joins))
	}
}

func TestJoinEndedBroadcast(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	grant, _ := s.StartBroadcast(u.ID, geo.Location{})
	s.EndBroadcast(grant.BroadcastID, grant.Token)
	if _, err := s.Join(1, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrEnded) {
		t.Fatalf("err = %v", err)
	}
	if _, err := s.Join(1, "nope", geo.Location{}); !errors.Is(err, ErrNoBroadcast) {
		t.Fatalf("err = %v", err)
	}
}

func TestGlobalListSampling(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	var tokens []string
	var ids []string
	for i := 0; i < 120; i++ {
		g, _ := s.StartBroadcast(u.ID, geo.Location{})
		tokens = append(tokens, g.Token)
		ids = append(ids, g.BroadcastID)
	}
	list := s.GlobalList()
	if len(list) != GlobalListSize {
		t.Fatalf("global list size = %d, want %d", len(list), GlobalListSize)
	}
	seen := map[string]bool{}
	for _, b := range list {
		if seen[b.BroadcastID] {
			t.Fatalf("duplicate %s in one sample", b.BroadcastID)
		}
		seen[b.BroadcastID] = true
		if !b.Live {
			t.Fatal("ended broadcast in global list")
		}
	}
	// Repeated queries must eventually cover everything (the crawler's
	// exhaustive-capture property, §3.1).
	covered := map[string]bool{}
	for i := 0; i < 200 && len(covered) < 120; i++ {
		for _, b := range s.GlobalList() {
			covered[b.BroadcastID] = true
		}
	}
	if len(covered) != 120 {
		t.Fatalf("repeated sampling covered %d/120 broadcasts", len(covered))
	}
	// Ended broadcasts leave the list.
	for i := 0; i < 100; i++ {
		s.EndBroadcast(ids[i], tokens[i])
	}
	if got := len(s.GlobalList()); got != 20 {
		t.Fatalf("list after ends = %d, want 20", got)
	}
}

func TestCallbacks(t *testing.T) {
	s := newTestService()
	var started, ended []string
	s.OnStart(func(id, origin string, _ *metrics.Usage) {
		started = append(started, id)
		if origin != "origin-1" {
			t.Errorf("origin = %s", origin)
		}
	})
	s.OnEnd(func(id string) { ended = append(ended, id) })
	u := s.Register("b")
	g, _ := s.StartBroadcast(u.ID, geo.Location{})
	s.EndBroadcast(g.BroadcastID, g.Token)
	if len(started) != 1 || len(ended) != 1 || started[0] != g.BroadcastID {
		t.Fatalf("callbacks: started=%v ended=%v", started, ended)
	}
}

// TestAuthAdapter: AuthCache is the control plane's rtmp.Auth. Its live
// verdicts are Service.Authorize's, whose refusals name their reason.
func TestAuthAdapter(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	g, _ := s.StartBroadcast(u.ID, geo.Location{})
	var a rtmp.Auth = NewAuthCache(AuthCacheConfig{Service: s})
	if !a.Authorize(g.BroadcastID, g.Token, wire.RoleBroadcaster) {
		t.Fatal("valid broadcaster token rejected")
	}
	if a.Authorize(g.BroadcastID, "wrong", wire.RoleBroadcaster) {
		t.Fatal("wrong broadcaster token accepted")
	}
	if !a.Authorize(g.BroadcastID, "", wire.RoleViewer) {
		t.Fatal("viewer rejected from public broadcast")
	}
	if a.Authorize("missing", "x", wire.RoleViewer) {
		t.Fatal("viewer admitted to missing broadcast")
	}
	if err := s.Authorize(g.BroadcastID, "wrong", wire.RoleBroadcaster); !errors.Is(err, ErrBadToken) {
		t.Fatalf("wrong token: %v, want ErrBadToken", err)
	}
	if err := s.Authorize("missing", "x", wire.RoleViewer); !errors.Is(err, ErrNoBroadcast) {
		t.Fatalf("missing broadcast: %v, want ErrNoBroadcast", err)
	}
	s.EndBroadcast(g.BroadcastID, g.Token)
	if a.Authorize(g.BroadcastID, g.Token, wire.RoleBroadcaster) {
		t.Fatal("ended broadcast still authorizes")
	}
	if err := s.Authorize(g.BroadcastID, g.Token, wire.RoleBroadcaster); !errors.Is(err, ErrEnded) {
		t.Fatalf("ended broadcast: %v, want ErrEnded", err)
	}
}

func TestPublicKeyRegistry(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	g, _ := s.StartBroadcast(u.ID, geo.Location{})
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterPublicKey(g.BroadcastID, "bad", pub); !errors.Is(err, ErrBadToken) {
		t.Fatalf("bad-token key registration err = %v", err)
	}
	if err := s.RegisterPublicKey(g.BroadcastID, g.Token, pub); err != nil {
		t.Fatal(err)
	}
	got, err := s.PublicKey(g.BroadcastID)
	if err != nil || !pub.Equal(got) {
		t.Fatalf("stored key mismatch (err %v)", err)
	}
	if k, err := s.PublicKey("missing"); k != nil || err != nil {
		t.Fatalf("missing broadcast: key %x, err %v; want neither", k, err)
	}
	s.Crash()
	if _, err := s.PublicKey(g.BroadcastID); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("PublicKey while crashed: %v, want ErrUnavailable", err)
	}
}

func TestHTTPAPI(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := newTestService()
	srv := httptest.NewServer(Handler("/api", s))
	defer srv.Close()
	client := &Client{BaseURL: srv.URL + "/api"}
	ctx := context.Background()

	uid, err := client.Register(ctx, "alice")
	if err != nil || uid != 1 {
		t.Fatalf("Register = %d, %v", uid, err)
	}
	grant, err := client.StartBroadcast(ctx, uid, geo.Location{City: "NYC", Lat: 40.7, Lon: -74})
	if err != nil {
		t.Fatal(err)
	}
	if grant.RTMPAddr == "" || grant.Token == "" {
		t.Fatalf("grant = %+v", grant)
	}

	pub, _, _ := ed25519.GenerateKey(nil)
	if err := client.RegisterPublicKey(ctx, grant.BroadcastID, grant.Token, pub); err != nil {
		t.Fatal(err)
	}
	gotKey, err := client.PublicKey(ctx, grant.BroadcastID)
	if err != nil || !pub.Equal(gotKey) {
		t.Fatalf("PublicKey roundtrip: %v", err)
	}

	for i := 0; i < 4; i++ {
		g, err := client.Join(ctx, uint64(10+i), grant.BroadcastID, geo.Location{})
		if err != nil {
			t.Fatal(err)
		}
		want := ProtoRTMP
		if i >= 3 {
			want = ProtoHLS
		}
		if g.Protocol != want {
			t.Fatalf("join %d protocol = %s, want %s", i, g.Protocol, want)
		}
	}

	list, err := client.GlobalList(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("GlobalList = %v, %v", list, err)
	}
	info, err := client.Info(ctx, grant.BroadcastID)
	if err != nil || info.Viewers != 4 {
		t.Fatalf("Info = %+v, %v", info, err)
	}

	if err := client.EndBroadcast(ctx, grant.BroadcastID, "bad"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("bad end err = %v", err)
	}
	if err := client.EndBroadcast(ctx, grant.BroadcastID, grant.Token); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Join(ctx, 99, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrEnded) {
		t.Fatalf("join ended err = %v", err)
	}
	if _, err := client.Info(ctx, "missing"); !errors.Is(err, ErrNoBroadcast) {
		t.Fatalf("missing info err = %v", err)
	}
}

func TestTokensUnique(t *testing.T) {
	s := newTestService()
	u := s.Register("b")
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		g, err := s.StartBroadcast(u.ID, geo.Location{})
		if err != nil {
			t.Fatal(err)
		}
		if seen[g.Token] {
			t.Fatal("duplicate token issued")
		}
		seen[g.Token] = true
	}

}
