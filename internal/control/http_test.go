package control

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/clock"
	"repro/internal/geo"
	"repro/internal/journal"
	"repro/internal/resilience"
	"repro/internal/testutil"
)

// newHTTPTenantFixture builds a service + handler + key-bearing client with
// one tenant and one tenanted broadcast.
func newHTTPTenantFixture(t *testing.T, clk clock.Clock, plan Plan) (*Service, *httptest.Server, *Client, Tenant, BroadcastGrant) {
	t.Helper()
	s := newTenantService(journal.NewMem(), clk)
	tn, err := s.CreateTenant("acme", plan)
	if err != nil {
		t.Fatal(err)
	}
	k, err := s.IssueAPIKey(tn.ID)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(Handler("/api", s))
	t.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL + "/api", APIKey: k.Key}
	u := s.Register("streamer")
	grant, err := s.StartBroadcastKey(k.Key, u.ID, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	return s, srv, c, tn, grant
}

// rawStatus posts a request with an explicit key and returns status + error
// code header, for asserting exact wire-level behavior.
func rawStatus(t *testing.T, url, key, body string) (int, string, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set(apiKeyHeader, key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(errCodeHeader), resp.Header
}

// TestHTTPAuthStatusPaths pins each tenancy failure to its status code and
// X-Control-Error code, and checks the client reconstructs the sentinel error.
func TestHTTPAuthStatusPaths(t *testing.T) {
	s, srv, c, tn, grant := newHTTPTenantFixture(t, nil, Plan{})
	ctx := context.Background()
	joinBody := `{"user_id": 7}`
	joinURL := srv.URL + "/api/broadcasts/" + grant.BroadcastID + "/join"

	// 401 bad_api_key: unknown key.
	if code, ec, _ := rawStatus(t, joinURL, "key-forged", joinBody); code != http.StatusUnauthorized || ec != "bad_api_key" {
		t.Fatalf("bad key: status %d, code %q", code, ec)
	}
	bad := &Client{BaseURL: c.BaseURL, APIKey: "key-forged"}
	if _, err := bad.Join(ctx, 7, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrBadAPIKey) {
		t.Fatalf("bad key via client: err = %v", err)
	}

	// 403 key_revoked.
	revoked, _ := s.IssueAPIKey(tn.ID)
	if err := s.RevokeAPIKey(revoked.Key); err != nil {
		t.Fatal(err)
	}
	if code, ec, _ := rawStatus(t, joinURL, revoked.Key, joinBody); code != http.StatusForbidden || ec != "key_revoked" {
		t.Fatalf("revoked key: status %d, code %q", code, ec)
	}
	rc := &Client{BaseURL: c.BaseURL, APIKey: revoked.Key}
	if _, err := rc.Join(ctx, 7, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("revoked key via client: err = %v", err)
	}

	// 403 tenant_suspended.
	if err := s.SuspendTenant(tn.ID); err != nil {
		t.Fatal(err)
	}
	if code, ec, _ := rawStatus(t, joinURL, c.APIKey, joinBody); code != http.StatusForbidden || ec != "tenant_suspended" {
		t.Fatalf("suspended: status %d, code %q", code, ec)
	}
	if _, err := c.Join(ctx, 7, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrTenantSuspended) {
		t.Fatalf("suspended via client: err = %v", err)
	}
	if err := s.ResumeTenant(tn.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Join(ctx, 7, grant.BroadcastID, geo.Location{}); err != nil {
		t.Fatalf("resumed join: %v", err)
	}

	// 404 no_tenant on the admin surface.
	if _, err := c.Usage(ctx, "tnt-404"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("usage for missing tenant: err = %v", err)
	}
	if _, err := c.IssueAPIKey(ctx, "tnt-404"); !errors.Is(err, ErrNoTenant) {
		t.Fatalf("key for missing tenant: err = %v", err)
	}

	// 400: a key on a private start is a contradiction.
	code, _, _ := rawStatus(t, srv.URL+"/api/broadcasts", c.APIKey, `{"user_id": 1, "private": true}`)
	if code != http.StatusBadRequest {
		t.Fatalf("key+private start: status %d, want 400", code)
	}
}

// TestHTTPQuota429 pins the 429 path: Retry-After carries the server-computed
// wait and the client reconstructs a QuotaError whose hint FailoverPoller can
// honor.
func TestHTTPQuota429(t *testing.T) {
	clk := clock.NewWheel(clock.WheelConfig{Epoch: time.Date(2026, 3, 1, 23, 59, 0, 0, time.UTC)})
	s, srv, c, tn, grant := newHTTPTenantFixture(t, clk, Plan{DailyBytesQuota: 100})
	ctx := context.Background()
	meterOf(s, grant.BroadcastID).MeterChunks(1, 100)

	code, ec, hdr := rawStatus(t, srv.URL+"/api/broadcasts/"+grant.BroadcastID+"/join", c.APIKey, `{"user_id": 9}`)
	if code != http.StatusTooManyRequests || ec != "quota" {
		t.Fatalf("quota join: status %d, code %q", code, ec)
	}
	// 60s to the UTC day boundary → Retry-After: 60.
	if ra, err := strconv.Atoi(hdr.Get("Retry-After")); err != nil || ra != 60 {
		t.Fatalf("Retry-After = %q, want 60", hdr.Get("Retry-After"))
	}

	_, err := c.Join(ctx, 9, grant.BroadcastID, geo.Location{})
	var qe *QuotaError
	if !errors.As(err, &qe) || !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("client quota err = %v, want QuotaError", err)
	}
	if qe.RetryAfterHint() != 60*time.Second {
		t.Fatalf("client RetryAfterHint = %v, want 60s", qe.RetryAfterHint())
	}

	// The concurrent-broadcast cap answers on the same path.
	if err := s.SetTenantPlan(tn.ID, Plan{MaxConcurrentBroadcasts: 1}); err != nil {
		t.Fatal(err)
	}
	code, ec, _ = rawStatus(t, srv.URL+"/api/broadcasts", c.APIKey, `{"user_id": 1}`)
	if code != http.StatusTooManyRequests || ec != "quota" {
		t.Fatalf("capped start: status %d, code %q", code, ec)
	}
}

// TestHTTPJoinRateRetryAfterSaturates: a plan whose join rate is so low
// that earning one join back takes longer than a time.Duration holds (10¹²
// s here) answers the longest wait the header can carry back, never "retry
// in 1 s".
func TestHTTPJoinRateRetryAfterSaturates(t *testing.T) {
	_, srv, c, tn, grant := newHTTPTenantFixture(t, nil, Plan{})
	if code, _, _ := rawStatus(t, srv.URL+"/api/tenants/"+tn.ID+"/plan", "", `{"max_join_rps": 1e-12}`); code != http.StatusOK {
		t.Fatalf("set plan: status %d", code)
	}
	joinURL := srv.URL + "/api/broadcasts/" + grant.BroadcastID + "/join"
	if code, _, _ := rawStatus(t, joinURL, c.APIKey, `{"user_id": 7}`); code != http.StatusOK {
		t.Fatalf("first join: status %d", code)
	}
	code, ec, hdr := rawStatus(t, joinURL, c.APIKey, `{"user_id": 8}`)
	if code != http.StatusTooManyRequests || ec != "quota" {
		t.Fatalf("second join: status %d, code %q", code, ec)
	}
	// 10¹² s is past the longest time.Duration (≈9.2·10⁹ s), so the most a
	// reader can take from the header is that saturated maximum.
	if got := resilience.ParseRetryAfter(hdr.Get("Retry-After"), time.Time{}); got != math.MaxInt64 {
		t.Fatalf("Retry-After %q reads as %v, want the saturated maximum", hdr.Get("Retry-After"), got)
	}
}

// TestHTTPTenantAdminRoundTrip drives the whole admin surface through the
// client: create, key issue, key-authed start, usage, suspend/resume, revoke.
func TestHTTPTenantAdminRoundTrip(t *testing.T) {
	s := newTenantService(journal.NewMem(), nil)
	srv := httptest.NewServer(Handler("/api", s))
	defer srv.Close()
	admin := &Client{BaseURL: srv.URL + "/api"}
	ctx := context.Background()

	tn, err := admin.CreateTenant(ctx, "acme", Plan{Name: "pro", MaxJoinRPS: 50, DailyBytesQuota: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if tn.ID == "" || tn.Plan.Name != "pro" || tn.Plan.DailyBytesQuota != 1<<30 {
		t.Fatalf("created tenant = %+v", tn)
	}
	key, err := admin.IssueAPIKey(ctx, tn.ID)
	if err != nil {
		t.Fatal(err)
	}

	app := &Client{BaseURL: admin.BaseURL, APIKey: key}
	uid, err := app.Register(ctx, "streamer")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := app.StartBroadcast(ctx, uid, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tenantOf(s, grant.BroadcastID); got != tn.ID {
		t.Fatalf("key-authed start not attributed: tenant = %q", got)
	}

	// Usage: empty before any flush, populated after metering + flush.
	days, err := admin.Usage(ctx, tn.ID)
	if err != nil || len(days) != 0 {
		t.Fatalf("fresh usage = %+v, err %v", days, err)
	}
	meterOf(s, grant.BroadcastID).MeterFrames(3, 333)
	s.FlushUsage()
	days, err = admin.Usage(ctx, tn.ID)
	if err != nil || len(days) != 1 || days[0].Bytes != 333 || days[0].Frames != 3 {
		t.Fatalf("flushed usage = %+v, err %v", days, err)
	}

	if err := admin.SuspendTenant(ctx, tn.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Join(ctx, uid, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrTenantSuspended) {
		t.Fatalf("join while suspended: err = %v", err)
	}
	if err := admin.ResumeTenant(ctx, tn.ID); err != nil {
		t.Fatal(err)
	}
	if err := admin.RevokeAPIKey(ctx, key); err != nil {
		t.Fatal(err)
	}
	if _, err := app.Join(ctx, uid, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrKeyRevoked) {
		t.Fatalf("join with revoked key: err = %v", err)
	}
}

// TestHTTPUsageBadRequest: /usage without a tenant parameter is a 400, not a
// panic or an empty 200.
func TestHTTPUsageBadRequest(t *testing.T) {
	s := newTenantService(journal.NewMem(), nil)
	srv := httptest.NewServer(Handler("/api", s))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/usage")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("usage without tenant: status %d, want 400", resp.StatusCode)
	}
}

// TestHTTPKeyAuthUnavailable: a crashed control plane answers 503 to
// key-authenticated calls — fail closed, never a tenancy verdict derived from
// wiped state.
func TestHTTPKeyAuthUnavailable(t *testing.T) {
	s, srv, c, _, grant := newHTTPTenantFixture(t, nil, Plan{})
	s.Crash()
	code, ec, hdr := rawStatus(t, srv.URL+"/api/broadcasts/"+grant.BroadcastID+"/join", c.APIKey, `{"user_id": 5}`)
	if code != http.StatusServiceUnavailable || ec != "unavailable" {
		t.Fatalf("crashed join: status %d, code %q", code, ec)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if _, err := c.Join(context.Background(), 5, grant.BroadcastID, geo.Location{}); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("crashed join via client: err = %v", err)
	}
	// The key lookup fails closed too: an empty 200 would read as "this
	// broadcast is unsigned" and switch a viewer's verification off.
	rec := call(Handler("/api", s), "GET", "/api/broadcasts/"+grant.BroadcastID+"/pubkey", "", "")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get(errCodeHeader) != "unavailable" {
		t.Fatalf("crashed pubkey lookup: status %d, code %q, body %s", rec.Code, rec.Header().Get(errCodeHeader), rec.Body)
	}
	if _, err := c.PublicKey(context.Background(), grant.BroadcastID); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("crashed pubkey lookup via client: err = %v", err)
	}
}

// call drives one request through the handler without a socket.
func call(h http.Handler, method, target, key, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if key != "" {
		req.Header.Set(apiKeyHeader, key)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestHTTPGoldenBodies pins the response bytes of the endpoints whose bodies
// are the domain types themselves: tags, field order and omitted zero values
// are the wire contract. Secrets are crypto/rand, so they are read back out
// of the response and replaced before comparing.
func TestHTTPGoldenBodies(t *testing.T) {
	clk := clock.NewWheel(clock.WheelConfig{Epoch: time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)})
	s := NewService(Config{
		Routes: Routes{
			AssignOrigin: func(geo.Location) (string, string) { return "origin-1", "127.0.0.1:1935" },
			RTMPSAddr:    func(string) string { return "127.0.0.1:19350" },
			AssignEdge:   func(string, geo.Location) string { return "http://edge-1/hls" },
			MessageURL:   "http://msg/channel",
			TLSCertPEM:   []byte("CA"),
		},
		RTMPViewerLimit: 1,
		Clock:           clk,
	})
	h := Handler("/api", s)
	// Timestamps print in the process's zone; everything else is literal.
	at := time.Unix(0, clk.Now().UnixNano()).Format(time.RFC3339Nano)
	secret := func(body, field string) string {
		t.Helper()
		_, rest, ok := strings.Cut(body, `"`+field+`":"`)
		value, _, ok2 := strings.Cut(rest, `"`)
		if !ok || !ok2 {
			t.Fatalf("no %s in %s", field, body)
		}
		return value
	}
	expect := func(name string, rec *httptest.ResponseRecorder, want string) string {
		t.Helper()
		got := rec.Body.String()
		for _, field := range []string{"token", "viewer_token", "key"} {
			if strings.Contains(got, `"`+field+`":"`) {
				got = strings.Replace(got, secret(got, field), "SECRET", 1)
			}
		}
		if rec.Code != http.StatusOK || got != want+"\n" {
			t.Errorf("%s: status %d\n got %swant %s", name, rec.Code, got, want)
		}
		return rec.Body.String()
	}

	expect("register", call(h, "POST", "/api/users", "", `{"name":"alice"}`), `{"id":1}`)
	expect("start", call(h, "POST", "/api/broadcasts", "", `{"user_id":1,"city":"NYC","lat":40.7,"lon":-74}`),
		`{"broadcast_id":"bcast-1","token":"SECRET","origin_id":"origin-1","rtmp_addr":"127.0.0.1:1935","message_url":"http://msg/channel"}`)
	expect("private start", call(h, "POST", "/api/broadcasts", "", `{"user_id":1,"private":true,"allowed":[2]}`),
		`{"broadcast_id":"bcast-2","token":"SECRET","origin_id":"origin-1","message_url":"http://msg/channel","private":true,"rtmps_addr":"127.0.0.1:19350","ca_pem":"Q0E="}`)
	expect("rtmp join", call(h, "POST", "/api/broadcasts/bcast-1/join", "", `{"user_id":2}`),
		`{"protocol":"rtmp","rtmp_addr":"127.0.0.1:1935","hls_base_url":"http://edge-1/hls","message_url":"http://msg/channel"}`)
	expect("hls join", call(h, "POST", "/api/broadcasts/bcast-1/join", "", `{"user_id":3}`),
		`{"protocol":"hls","hls_base_url":"http://edge-1/hls","message_url":"http://msg/channel"}`)
	expect("private join", call(h, "POST", "/api/broadcasts/bcast-2/join", "", `{"user_id":2}`),
		`{"protocol":"rtmps","message_url":"http://msg/channel","private":true,"rtmps_addr":"127.0.0.1:19350","viewer_token":"SECRET","ca_pem":"Q0E="}`)
	expect("info", call(h, "GET", "/api/broadcasts/bcast-1", "", ""),
		`{"broadcast_id":"bcast-1","broadcaster":1,"started_at":"`+at+`","ended_at":"0001-01-01T00:00:00Z","live":true,"viewers":2,"city":"NYC"}`)

	tenant := `{"id":"tnt-1","name":"acme","plan":{"name":"pro","max_broadcasts":2,"max_join_rps":50,"join_burst":5,"daily_bytes":1073741824},"created_at":"` + at + `"}`
	expect("tenant create", call(h, "POST", "/api/tenants", "",
		`{"name":"acme","plan":{"name":"pro","max_broadcasts":2,"max_join_rps":50,"join_burst":5,"daily_bytes":1073741824}}`), tenant)
	expect("tenant info", call(h, "GET", "/api/tenants/tnt-1", "", ""), tenant)
	expect("bare tenant create", call(h, "POST", "/api/tenants", "", `{}`), `{"id":"tnt-2","plan":{},"created_at":"`+at+`"}`)
	expect("suspend", call(h, "POST", "/api/tenants/tnt-2/suspend", "", ``), `{}`)
	expect("tenant list", call(h, "GET", "/api/tenants", "", ""),
		`{"tenants":[`+tenant+`,{"id":"tnt-2","plan":{},"suspended":true,"created_at":"`+at+`"}]}`)
	expect("set plan", call(h, "POST", "/api/tenants/tnt-1/plan", "", `{"daily_bytes":4000}`), `{}`)
	key := secret(expect("key issue", call(h, "POST", "/api/tenants/tnt-1/keys", "", `{}`), `{"key":"SECRET"}`), "key")
	expect("keyed start", call(h, "POST", "/api/broadcasts", key, `{"user_id":1}`),
		`{"broadcast_id":"bcast-3","token":"SECRET","origin_id":"origin-1","rtmp_addr":"127.0.0.1:1935","message_url":"http://msg/channel"}`)
	expect("empty usage", call(h, "GET", "/api/usage?tenant=tnt-1", "", ""), `{"tenant_id":"tnt-1","days":[]}`)
	meterOf(s, "bcast-3").MeterFrames(3, 333)
	s.FlushUsage()
	expect("usage", call(h, "GET", "/api/usage?tenant=tnt-1", "", ""),
		`{"tenant_id":"tnt-1","days":[{"day":"2026-03-01","frames":3,"chunks":0,"bytes":333}]}`)
	expect("edge", call(h, "GET", "/api/broadcasts/bcast-1/edge?city=SF&lat=37.77&lon=-122.4", "", ""),
		`{"hls_base_url":"http://edge-1/hls"}`)
	expect("pubkey", call(h, "GET", "/api/broadcasts/bcast-1/pubkey", "", ""), `{"pubkey_hex":""}`)
	expect("end", call(h, "POST", "/api/broadcasts/bcast-3/end", "", `{"token":"`+s.broadcasts["bcast-3"].token+`"}`), `{}`)
	expect("global", call(h, "GET", "/api/global", "", ""),
		`{"broadcasts":[{"broadcast_id":"bcast-1","broadcaster":1,"started_at":"`+at+`","ended_at":"0001-01-01T00:00:00Z","live":true,"viewers":2,"city":"NYC"}]}`)
}

// TestErrorTableRoundTrip: every sentinel, bare or wrapped, survives
// respondErr → errFromResponse as an errors.Is-equal error, on the status the
// table gives it; the two Retry-After carriers keep their headers.
func TestErrorTableRoundTrip(t *testing.T) {
	roundTrip := func(err error) (*http.Response, error) {
		rec := httptest.NewRecorder()
		if !respondErr(rec, err) {
			t.Fatalf("respondErr(%v) = false", err)
		}
		resp := rec.Result()
		return resp, errFromResponse(resp)
	}
	codes := map[string]bool{}
	for _, e := range errTable {
		if codes[e.code] {
			t.Errorf("code %q appears twice in errTable", e.code)
		}
		codes[e.code] = true
		for _, err := range []error{e.err, fmt.Errorf("wrapped: %w", e.err)} {
			resp, got := roundTrip(err)
			if resp.StatusCode != e.status || resp.Header.Get(errCodeHeader) != e.code || !errors.Is(got, e.err) {
				t.Errorf("%v: status %d code %q, client error %v", err, resp.StatusCode, resp.Header.Get(errCodeHeader), got)
			}
		}
	}
	resp, got := roundTrip(&QuotaError{Reason: "test", RetryAfter: 90 * time.Second})
	var qe *QuotaError
	if !errors.As(got, &qe) || qe.RetryAfter != 90*time.Second || resp.Header.Get("Retry-After") != "90" {
		t.Errorf("quota: Retry-After %q, client error %v", resp.Header.Get("Retry-After"), got)
	}
	// A count of seconds that overflows a time.Duration still asks for the
	// longest wait, not none.
	resp.Header.Set("Retry-After", "9300000000")
	if got := errFromResponse(resp); !errors.As(got, &qe) || qe.RetryAfter <= 0 {
		t.Errorf("quota: Retry-After 9300000000 reconstructed as %v, want a positive wait", got)
	}
	if resp, _ := roundTrip(ErrUnavailable); resp.Header.Get("Retry-After") != "1" {
		t.Errorf("unavailable: Retry-After %q, want 1", resp.Header.Get("Retry-After"))
	}
	// Outside the table: 500, no code, and the client reports the bare status.
	if resp, got := roundTrip(errors.New("boom")); resp.StatusCode != http.StatusInternalServerError || got != nil {
		t.Errorf("unknown error: status %d, client error %v", resp.StatusCode, got)
	}
}

// TestHTTPRouting pins what the route table answers for requests that are
// not a plain call of one of its rows: the status, the Allow header of a 405
// and the Location of a redirect (none here: a path the platform would
// redirect never reaches this handler). An escaped slash stays inside its
// segment, so a%2Fend is an ID, not an /end.
func TestHTTPRouting(t *testing.T) {
	s := newTestService()
	u := s.Register("streamer")
	g, err := s.StartBroadcast(u.ID, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	h := Handler("/api", s)
	b := "/api/broadcasts/" + g.BroadcastID
	for _, tc := range []struct {
		method, target string
		status         int
		allow          string
	}{
		{"GET", "/api/users", http.StatusMethodNotAllowed, "POST"},
		{"GET", b + "/join", http.StatusMethodNotAllowed, "POST"},
		{"DELETE", b, http.StatusMethodNotAllowed, "GET, HEAD"},
		{"PUT", b + "/pubkey", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{"DELETE", "/api/tenants", http.StatusMethodNotAllowed, "GET, HEAD, POST"},
		{"POST", "/api/usage", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"HEAD", "/api/global", http.StatusOK, ""},
		{"HEAD", b, http.StatusOK, ""},
		{"GET", b, http.StatusOK, ""},
		{"GET", "/api/nope", http.StatusNotFound, ""},
		{"GET", b + "/nope", http.StatusNotFound, ""},
		{"POST", b + "/join/extra", http.StatusNotFound, ""},
		{"GET", "/api/tenants/tnt-1/keys/x", http.StatusNotFound, ""},
		{"GET", "/api/global/", http.StatusNotFound, ""},
		{"POST", b + "/join/", http.StatusNotFound, ""},
		{"GET", "/api/broadcasts/", http.StatusNotFound, ""},
		{"POST", "/api/tenants/", http.StatusNotFound, ""},
		{"GET", "/api", http.StatusNotFound, ""},
		{"GET", "/api/", http.StatusNotFound, ""},
		{"GET", "/other/global", http.StatusNotFound, ""},
		{"GET", "/api/broadcasts/a%2Fb", http.StatusNotFound, ""},
		{"GET", "/api/broadcasts/a%2Fb/edge", http.StatusNotFound, ""},
		{"POST", "/api/broadcasts/a%2Fend", http.StatusMethodNotAllowed, "GET, HEAD"},
		{"GET", "/api/gl%6Fbal", http.StatusOK, ""},
	} {
		rec := call(h, tc.method, tc.target, "", "{}")
		if rec.Code != tc.status || rec.Header().Get("Allow") != tc.allow || rec.Header().Get("Location") != "" {
			t.Errorf("%s %s = %d Allow %q Location %q, want %d Allow %q and no Location",
				tc.method, tc.target, rec.Code, rec.Header().Get("Allow"), rec.Header().Get("Location"), tc.status, tc.allow)
		}
	}
}

// fuzzService is the small seeded service FuzzControlHandler runs against:
// every route configured, one user, one public and one private broadcast, one
// tenant with a key.
func fuzzService() *Service {
	s := NewService(Config{
		Routes: Routes{
			AssignOrigin: func(geo.Location) (string, string) { return "origin-1", "127.0.0.1:1935" },
			RTMPSAddr:    func(string) string { return "127.0.0.1:19350" },
			AssignEdge:   func(string, geo.Location) string { return "http://edge-1/hls" },
		},
		Seed: 1,
	})
	u := s.Register("alice")
	s.StartBroadcast(u.ID, geo.Location{City: "NYC"})
	s.StartPrivateBroadcast(u.ID, geo.Location{}, []uint64{2})
	tn, _ := s.CreateTenant("acme", Plan{MaxConcurrentBroadcasts: 2, MaxJoinRPS: 1})
	s.IssueAPIKey(tn.ID)
	return s
}

// routePath reports whether path is one the route table serves under /api,
// and which methods it serves there.
func routePath(path string) (methods []string) {
	rest, ok := strings.CutPrefix(path, "/api")
	if !ok {
		return nil
	}
	segs := strings.Split(rest, "/")
	for _, rt := range routes {
		pat := strings.Split(rt.path, "/")
		match := len(pat) == len(segs)
		for i := 0; match && i < len(pat); i++ {
			match = pat[i] == segs[i] || (pat[i] == "{id}" && segs[i] != "")
		}
		if match {
			methods = append(methods, rt.method)
		}
	}
	return methods
}

// FuzzControlHandler throws arbitrary requests at the handler: it must never
// panic, never answer 5xx except 503 while the service is down, give every
// 429 and 503 a Retry-After of at least a second, and answer only 404 off
// the route table and 405 for a table path's other methods.
func FuzzControlHandler(f *testing.F) {
	for _, rt := range routes {
		path := strings.Replace(rt.path, "{id}", "bcast-1", 1)
		f.Add(rt.method, "/api"+path, "lat=1.5&lon=abc&tenant=tnt-1", `{"user_id":1,"token":"t","name":"n"}`, "", false)
		f.Add(rt.method, "/api"+strings.Replace(rt.path, "{id}", "tnt-1", 1), "", `{"plan":{"max_broadcasts":1},"private":true}`, "key-x", true)
	}
	f.Add("PATCH", "/api/users", "", "", "", false)
	f.Add("GET", "/api/broadcasts//join", "", "not json", "", false)
	f.Add("GET", "/api/../etc", "%zz", "", "", false)
	f.Add("POST", "/api/tenants/tnt-1/plan", "", `{"max_join_rps":1e-12}`, "", false)
	f.Fuzz(func(t *testing.T, method, path, query, body, key string, down bool) {
		s := fuzzService()
		if down {
			s.Crash()
		}
		if key == "live" {
			for k := range s.keys {
				key = k
			}
		}
		req := &http.Request{
			Method: method,
			URL:    &url.URL{Path: path, RawQuery: query},
			Header: http.Header{apiKeyHeader: {key}},
			Body:   io.NopCloser(strings.NewReader(body)),
		}
		rec := httptest.NewRecorder()
		Handler("/api", s).ServeHTTP(rec, req)

		if rec.Code >= 500 && !(down && rec.Code == http.StatusServiceUnavailable) {
			t.Fatalf("%s %q?%q down=%v: status %d: %s", method, path, query, down, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusTooManyRequests || rec.Code == http.StatusServiceUnavailable {
			if ra := rec.Header().Get("Retry-After"); resilience.ParseRetryAfter(ra, time.Time{}) < time.Second {
				t.Fatalf("%s %q down=%v: status %d with Retry-After %q, want at least 1 s", method, path, down, rec.Code, ra)
			}
		}
		// The oracle below reads the path the way the handler does only when
		// no escaping is involved. A path that is not canonical is read as it
		// is: only the platform's dispatch redirects it.
		if strings.ContainsAny(path, "%{}") {
			return
		}
		methods := routePath(path)
		served := false
		for _, m := range methods {
			served = served || m == method || (m == "GET" && method == "HEAD")
		}
		switch {
		case len(methods) == 0 && rec.Code != http.StatusNotFound:
			t.Fatalf("%s %q is off the route table: status %d, want 404", method, path, rec.Code)
		case len(methods) > 0 && !served && rec.Code != http.StatusMethodNotAllowed:
			t.Fatalf("%s %q: status %d, want 405 (table serves %v)", method, path, rec.Code, methods)
		case served && (rec.Code == http.StatusMethodNotAllowed):
			t.Fatalf("%s %q: 405 on a route the table serves", method, path)
		}
	})
}

// TestClientKeepsConnectionAlive: every reply is read to its end before the
// body is closed, so net/http can reuse the connection — including replies the
// client has no use for (EndBroadcast's `{}`) and error replies. Start → refused
// End → End → Start on one client is one TCP connection.
func TestClientKeepsConnectionAlive(t *testing.T) {
	s := newTestService()
	srv, conns := testutil.CountingServer(t, Handler("/api", s))
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	c := &Client{BaseURL: srv.URL + "/api", HTTPClient: hc}
	ctx := context.Background()
	u := s.Register("streamer")

	grant, err := c.StartBroadcast(ctx, u.ID, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EndBroadcast(ctx, grant.BroadcastID, "not-the-token"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("end with a forged token: %v, want ErrBadToken", err)
	}
	if err := c.EndBroadcast(ctx, grant.BroadcastID, grant.Token); err != nil {
		t.Fatal(err)
	}
	if _, err := c.StartBroadcast(ctx, u.ID, geo.Location{City: "NYC"}); err != nil {
		t.Fatal(err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("four sequential calls opened %d connections, want 1", n)
	}
}

// TestJSONHandlerAllocBudgets pins what the two control endpoints a viewer's
// lifecycle calls allocate per request, routing, handler and recorder
// together, through httptest.NewRecorder and no socket so the count is
// exact: the route match, the pooled body read, decoder and response
// encode, the ready-made Content-Type and the in-place query read each show
// in it. Both routes answer through the same Service calls the platform
// makes.
func TestJSONHandlerAllocBudgets(t *testing.T) {
	if testutil.Race {
		t.Skip("sync.Pool drops puts under the race detector, so the count is not exact")
	}
	s := NewService(Config{
		Routes: Routes{
			AssignOrigin: func(geo.Location) (string, string) { return "origin-1", "127.0.0.1:1935" },
			AssignEdge:   func(string, geo.Location) string { return "http://edge-1/hls" },
			MessageURL:   "http://msg/channel",
		},
		// Every join in the run takes the same (RTMP) route.
		RTMPViewerLimit: 1 << 30,
		Seed:            1,
	})
	u := s.Register("alice")
	g, err := s.StartBroadcast(u.ID, geo.Location{City: "NYC"})
	if err != nil {
		t.Fatal(err)
	}
	h := Handler("/api", s)
	for _, tc := range []struct {
		name   string
		method string
		target string
		body   string
		want   float64
	}{
		{"join", "POST", "/api/broadcasts/" + g.BroadcastID + "/join",
			`{"user_id":1,"city":"New York","lat":40.71,"lon":-74.01}`, 13},
		{"resolve-edge", "GET", "/api/broadcasts/" + g.BroadcastID + "/edge?city=New+York&lat=40.71&lon=-74.01", "", 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := bytes.NewReader([]byte(tc.body))
			req := httptest.NewRequest(tc.method, tc.target, body)
			// The run's joins grow the broadcast's join list, a fraction of
			// an allocation per request that the whole-number average drops.
			allocs := testing.AllocsPerRun(200, func() {
				body.Seek(0, io.SeekStart)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			})
			if allocs != tc.want {
				t.Fatalf("%s allocates %.0f times per request, want %.0f", tc.name, allocs, tc.want)
			}
		})
	}
}
