package control

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/geo"
	"repro/internal/resilience"
)

// The control plane's HTTP surface stands in for Periscope's HTTPS API: the
// one channel that IS authenticated and confidential in the real system.
// (We serve plain HTTP on loopback; the trust property we reproduce is that
// the §7 attacker taps only the RTMP/HLS data path, never this channel.)

type registerReq struct {
	Name string `json:"name"`
}

type registerResp struct {
	ID uint64 `json:"id"`
}

type startReq struct {
	UserID  uint64   `json:"user_id"`
	City    string   `json:"city"`
	Lat     float64  `json:"lat"`
	Lon     float64  `json:"lon"`
	Private bool     `json:"private,omitempty"`
	Allowed []uint64 `json:"allowed,omitempty"`
}

type endReq struct {
	Token string `json:"token"`
}

type pubKeyReq struct {
	Token     string `json:"token"`
	PubKeyHex string `json:"pubkey_hex"`
}

type pubKeyResp struct {
	PubKeyHex string `json:"pubkey_hex"`
}

type joinReq struct {
	UserID uint64  `json:"user_id"`
	City   string  `json:"city"`
	Lat    float64 `json:"lat"`
	Lon    float64 `json:"lon"`
}

type resolveEdgeResp struct {
	HLSBaseURL string `json:"hls_base_url"`
}

// Tenancy API payloads. Tenant, Plan and UsageDay are their own bodies.

type tenantCreateReq struct {
	Name string `json:"name"`
	Plan Plan   `json:"plan"`
}

type keyIssueResp struct {
	Key string `json:"key"`
}

type keyRevokeReq struct {
	Key string `json:"key"`
}

type usageResp struct {
	TenantID string     `json:"tenant_id"`
	Days     []UsageDay `json:"days"`
}

// apiKeyHeader authenticates tenant-owned start/join requests. Presence of
// the header selects the key-authenticated path.
const apiKeyHeader = "X-API-Key"

// errCodeHeader disambiguates error statuses for the client: 403 is both
// "bad broadcast token" and "revoked key / suspended tenant", 401 both "not
// invited" and "bad API key". The body stays human-readable.
const errCodeHeader = "X-Control-Error"

// summaryJSON is the one body that is not its domain type: it deliberately
// flattens Location to the city, keeping coordinates off the public list.
type summaryJSON struct {
	BroadcastID string    `json:"broadcast_id"`
	Broadcaster uint64    `json:"broadcaster"`
	StartedAt   time.Time `json:"started_at"`
	EndedAt     time.Time `json:"ended_at,omitempty"`
	Live        bool      `json:"live"`
	Viewers     int       `json:"viewers"`
	City        string    `json:"city"`
}

func toSummaryJSON(s Summary) summaryJSON {
	return summaryJSON{
		BroadcastID: s.BroadcastID,
		Broadcaster: s.Broadcaster,
		StartedAt:   s.StartedAt,
		EndedAt:     s.EndedAt,
		Live:        s.Live,
		Viewers:     s.Viewers,
		City:        s.Location.City,
	}
}

func (b summaryJSON) summary() Summary {
	return Summary{
		BroadcastID: b.BroadcastID,
		Broadcaster: b.Broadcaster,
		StartedAt:   b.StartedAt,
		EndedAt:     b.EndedAt,
		Live:        b.Live,
		Viewers:     b.Viewers,
		Location:    geo.Location{City: b.City},
	}
}

// routes is the whole HTTP surface, one row per endpoint; paths are relative
// to the Handler prefix and {id} is the broadcast or tenant ID, which the
// row's handler is passed.
var routes = []struct {
	method, path string
	handle       func(s *Service, w http.ResponseWriter, r *http.Request, id string)
}{
	{"POST", "/users", handleRegister},
	{"GET", "/global", handleGlobal},
	{"POST", "/broadcasts", handleStart},
	{"GET", "/broadcasts/{id}", handleInfo},
	{"POST", "/broadcasts/{id}/end", handleEnd},
	{"POST", "/broadcasts/{id}/join", handleJoin},
	{"POST", "/broadcasts/{id}/pubkey", handleRegisterKey},
	{"GET", "/broadcasts/{id}/pubkey", handlePublicKey},
	{"GET", "/broadcasts/{id}/edge", handleResolveEdge},
	{"POST", "/tenants", handleCreateTenant},
	{"GET", "/tenants", handleTenants},
	{"GET", "/tenants/{id}", handleTenantInfo},
	{"POST", "/tenants/{id}/plan", handleSetPlan},
	{"POST", "/tenants/{id}/keys", handleIssueKey},
	{"POST", "/tenants/{id}/suspend", handleSuspend},
	{"POST", "/tenants/{id}/resume", handleResume},
	{"POST", "/keys/revoke", handleRevokeKey},
	{"GET", "/usage", handleUsage},
}

// Handler exposes the service over HTTP under prefix (e.g. "/api"). It
// answers as an http.ServeMux with the same table would: a row serves its
// method and a GET row HEAD too, a path some row matches answers another
// method with 405 and an Allow header, and every other path is a 404.
// Matching is by segment on the escaped path, each segment unescaped, so an
// escaped slash stays inside its ID. The path is taken as it comes: the
// platform's dispatch redirects one that is not canonical before it gets
// here.
func Handler(prefix string, s *Service) http.Handler {
	patterns := make([]string, len(routes))
	for i, rt := range routes {
		patterns[i] = prefix + rt.path
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		path, method := r.URL.EscapedPath(), r.Method
		if method == http.MethodHead {
			method = http.MethodGet
		}
		var allow []string
		for i, rt := range routes {
			id, ok := matchRoute(patterns[i], path)
			switch {
			case !ok:
			case rt.method == method:
				rt.handle(s, w, r, id)
				return
			default:
				allow = append(allow, rt.method)
			}
		}
		if len(allow) == 0 {
			http.NotFound(w, r)
			return
		}
		if slices.Contains(allow, http.MethodGet) {
			allow = append(allow, http.MethodHead)
		}
		slices.Sort(allow)
		w.Header().Set("Allow", strings.Join(allow, ", "))
		http.Error(w, http.StatusText(http.StatusMethodNotAllowed), http.StatusMethodNotAllowed)
	})
}

// matchRoute matches an escaped request path against a route pattern segment
// by segment, each path segment unescaped (resilience.CutSegment), and
// returns the {id} segment. An empty {id} matches nothing, and neither does
// a trailing slash.
//
//livesim:hotpath TestJSONHandlerAllocBudgets
func matchRoute(pattern, path string) (id string, ok bool) {
	for pattern != "" {
		if path == "" || path[0] != '/' {
			return "", false
		}
		var want, seg string
		want, pattern = resilience.CutSegment(pattern)
		seg, path = resilience.CutSegment(path)
		switch {
		case want == "{id}" && seg != "":
			id = seg
		case want != seg:
			return "", false
		}
	}
	return id, path == ""
}

// refuseDown answers 503 for the lists whose Service methods have no error
// to report an outage with (global list, tenant list). A wiped service must
// not answer them from empty state, so they fail closed like every other
// endpoint.
func refuseDown(s *Service, w http.ResponseWriter) bool {
	return s.Down() && respondErr(w, ErrUnavailable)
}

func handleRegister(s *Service, w http.ResponseWriter, r *http.Request, _ string) {
	var req registerReq
	if !decodeJSON(w, r, &req) {
		return
	}
	u, err := s.RegisterUser(req.Name)
	reply(w, registerResp{ID: u.ID}, err)
}

func handleGlobal(s *Service, w http.ResponseWriter, r *http.Request, _ string) {
	if refuseDown(s, w) {
		return
	}
	list := s.GlobalList()
	out := make([]summaryJSON, 0, len(list))
	for _, b := range list {
		out = append(out, toSummaryJSON(b))
	}
	resilience.WriteJSON(w, struct {
		Broadcasts []summaryJSON `json:"broadcasts"`
	}{out})
}

func handleStart(s *Service, w http.ResponseWriter, r *http.Request, _ string) {
	var req startReq
	if !decodeJSON(w, r, &req) {
		return
	}
	loc := geo.Location{City: req.City, Lat: req.Lat, Lon: req.Lon}
	var grant BroadcastGrant
	var err error
	switch key := r.Header.Get(apiKeyHeader); {
	case key != "" && req.Private:
		// Private broadcasts are invite-keyed per user; tenant-owned
		// private starts are not a thing yet.
		http.Error(w, "private broadcasts cannot be key-authenticated", http.StatusBadRequest)
		return
	case key != "":
		grant, err = s.StartBroadcastKey(key, req.UserID, loc)
	case req.Private:
		grant, err = s.StartPrivateBroadcast(req.UserID, loc, req.Allowed)
	default:
		grant, err = s.StartBroadcast(req.UserID, loc)
	}
	reply(w, grant, err)
}

func handleInfo(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	info, err := s.Info(id)
	reply(w, toSummaryJSON(info), err)
}

func handleEnd(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	var req endReq
	if !decodeJSON(w, r, &req) {
		return
	}
	reply(w, struct{}{}, s.EndBroadcast(id, req.Token))
}

func handleJoin(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	var req joinReq
	if !decodeJSON(w, r, &req) {
		return
	}
	loc := geo.Location{City: req.City, Lat: req.Lat, Lon: req.Lon}
	var grant ViewerGrant
	var err error
	if key := r.Header.Get(apiKeyHeader); key != "" {
		grant, err = s.JoinKey(key, req.UserID, id, loc)
	} else {
		grant, err = s.Join(req.UserID, id, loc)
	}
	reply(w, grant, err)
}

func handleRegisterKey(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	var req pubKeyReq
	if !decodeJSON(w, r, &req) {
		return
	}
	key, err := hex.DecodeString(req.PubKeyHex)
	if err != nil || len(key) != ed25519.PublicKeySize {
		http.Error(w, "bad public key", http.StatusBadRequest)
		return
	}
	reply(w, struct{}{}, s.RegisterPublicKey(id, req.Token, key))
}

func handlePublicKey(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	k, err := s.PublicKey(id)
	reply(w, pubKeyResp{PubKeyHex: hex.EncodeToString(k)}, err)
}

func handleResolveEdge(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	city, errCity := queryValue(r.URL.RawQuery, "city")
	lat, errLat := queryFloat(r.URL.RawQuery, "lat")
	lon, errLon := queryFloat(r.URL.RawQuery, "lon")
	if errCity != nil || errLat != nil || errLon != nil {
		http.Error(w, "bad city/lat/lon parameter", http.StatusBadRequest)
		return
	}
	edge, err := s.ResolveEdge(id, geo.Location{City: city, Lat: lat, Lon: lon})
	reply(w, resolveEdgeResp{HLSBaseURL: edge}, err)
}

// queryValue returns the unescaped value of the first name=value pair of a
// raw query, or "" when there is none. It reads the query in place, where
// r.URL.Query() would build a map and a slice per request, and unescaping
// allocates only for a value that has escapes. A malformed escape is an
// error, not an absent parameter.
func queryValue(rawQuery, name string) (string, error) {
	for rawQuery != "" {
		var pair string
		pair, rawQuery, _ = strings.Cut(rawQuery, "&")
		if k, v, _ := strings.Cut(pair, "="); k == name {
			return url.QueryUnescape(v)
		}
	}
	return "", nil
}

// queryFloat parses an optional coordinate: absent means 0, malformed is an
// error (a typo must not silently resolve from (0,0)).
func queryFloat(rawQuery, name string) (float64, error) {
	v, err := queryValue(rawQuery, name)
	if err != nil || v == "" {
		return 0, err
	}
	return strconv.ParseFloat(v, 64)
}

func handleCreateTenant(s *Service, w http.ResponseWriter, r *http.Request, _ string) {
	var req tenantCreateReq
	if !decodeJSON(w, r, &req) {
		return
	}
	t, err := s.CreateTenant(req.Name, req.Plan)
	reply(w, t, err)
}

func handleTenants(s *Service, w http.ResponseWriter, r *http.Request, _ string) {
	if refuseDown(s, w) {
		return
	}
	resilience.WriteJSON(w, struct {
		Tenants []Tenant `json:"tenants"`
	}{s.Tenants()})
}

func handleTenantInfo(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	t, err := s.TenantInfo(id)
	reply(w, t, err)
}

func handleSetPlan(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	var plan Plan
	if !decodeJSON(w, r, &plan) {
		return
	}
	reply(w, struct{}{}, s.SetTenantPlan(id, plan))
}

func handleIssueKey(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	k, err := s.IssueAPIKey(id)
	reply(w, keyIssueResp{Key: k.Key}, err)
}

func handleSuspend(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	reply(w, struct{}{}, s.SuspendTenant(id))
}

func handleResume(s *Service, w http.ResponseWriter, r *http.Request, id string) {
	reply(w, struct{}{}, s.ResumeTenant(id))
}

func handleRevokeKey(s *Service, w http.ResponseWriter, r *http.Request, _ string) {
	var req keyRevokeReq
	if !decodeJSON(w, r, &req) {
		return
	}
	reply(w, struct{}{}, s.RevokeAPIKey(req.Key))
}

func handleUsage(s *Service, w http.ResponseWriter, r *http.Request, _ string) {
	tenantID, err := queryValue(r.URL.RawQuery, "tenant")
	if err != nil || tenantID == "" {
		http.Error(w, "missing tenant parameter", http.StatusBadRequest)
		return
	}
	days, err := s.Usage(tenantID)
	reply(w, usageResp{TenantID: tenantID, Days: days}, err)
}

// maxRequestBody caps a request's JSON.
const maxRequestBody = 64 << 10

// decodeJSON reads a request's JSON body into v, or answers 400.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if resilience.DecodeJSON(r.Body, r.ContentLength, maxRequestBody, v) != nil {
		http.Error(w, "bad request body", http.StatusBadRequest)
		return false
	}
	return true
}

// reply answers a service call: err's row of errTable, or v as the 200 body.
func reply(w http.ResponseWriter, v any, err error) {
	if !respondErr(w, err) {
		resilience.WriteJSON(w, v)
	}
}

// errTable is the wire form of every service sentinel, read by the server
// (respondErr: error → status + X-Control-Error code) and by the client
// (errFromResponse: code → error).
var errTable = []struct {
	err    error
	status int
	code   string
}{
	{ErrNoBroadcast, http.StatusNotFound, "no_broadcast"},
	{ErrNoTenant, http.StatusNotFound, "no_tenant"},
	{ErrBadToken, http.StatusForbidden, "bad_token"},
	{ErrKeyRevoked, http.StatusForbidden, "key_revoked"},
	{ErrTenantSuspended, http.StatusForbidden, "tenant_suspended"},
	{ErrBadAPIKey, http.StatusUnauthorized, "bad_api_key"},
	{ErrNotInvited, http.StatusUnauthorized, "not_invited"},
	// Quota and plan-rate rejections carry the server-computed wait in
	// Retry-After; FailoverPoller rides it via the RetryAfterHint on the
	// client's reconstructed QuotaError.
	{ErrQuotaExceeded, http.StatusTooManyRequests, "quota"},
	{ErrEnded, http.StatusGone, "ended"},
	// The crashed control plane's 503 is the degraded-mode trigger: clients
	// fall back to cached grants and retry with backoff. Auth fails closed
	// here: key-authenticated calls get the same 503, never a tenancy answer
	// derived from wiped state.
	{ErrUnavailable, http.StatusServiceUnavailable, "unavailable"},
}

// respondErr writes err's errTable row (500 for an error outside the table)
// and reports whether there was an error to write.
func respondErr(w http.ResponseWriter, err error) bool {
	if err == nil {
		return false
	}
	status := http.StatusInternalServerError
	for _, e := range errTable {
		if !errors.Is(err, e.err) {
			continue
		}
		status = e.status
		w.Header().Set(errCodeHeader, e.code)
		var qe *QuotaError
		if errors.As(err, &qe) {
			// Floor 1 s, so clients never busy-loop.
			w.Header().Set("Retry-After", resilience.FormatRetryAfter(max(qe.RetryAfter, time.Second)))
		} else if e.err == ErrUnavailable {
			w.Header().Set("Retry-After", "1")
		}
		break
	}
	http.Error(w, err.Error(), status)
	return true
}

// Client is the app/crawler side of the control API.
type Client struct {
	// BaseURL includes the prefix, e.g. "http://ctrl:8080/api".
	BaseURL    string
	HTTPClient *http.Client
	// APIKey, when set, is attached as X-API-Key to every request, selecting
	// the key-authenticated (tenant-owned) start/join paths.
	APIKey string
}

func (c *Client) http() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	req, err := resilience.NewJSONRequest(ctx, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := resilience.NewRequest(ctx, http.MethodGet, c.BaseURL+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

// maxResponseBody caps a reply the client reads.
const maxResponseBody = 16 << 20

func (c *Client) do(req *http.Request, out any) error {
	if c.APIKey != "" {
		// The request's header is the shared one; the key goes on a copy.
		req.Header = req.Header.Clone()
		req.Header.Set(apiKeyHeader, c.APIKey)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("control: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resilience.DrainClose(resp)
	if resp.StatusCode != http.StatusOK {
		if err := errFromResponse(resp); err != nil {
			return err
		}
		return fmt.Errorf("control: %s %s: status %d", req.Method, req.URL.Path, resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	if err := resilience.DecodeJSON(resp.Body, resp.ContentLength, maxResponseBody, out); err != nil {
		return fmt.Errorf("control: %s %s: body: %w", req.Method, req.URL.Path, err)
	}
	return nil
}

// errFromResponse reconstructs the service error from a non-200 response's
// X-Control-Error code (it disambiguates statuses that carry two meanings);
// nil when the response carries no known code.
func errFromResponse(resp *http.Response) error {
	code := resp.Header.Get(errCodeHeader)
	for _, e := range errTable {
		if e.code != code {
			continue
		}
		if e.err != ErrQuotaExceeded {
			return e.err
		}
		retry := time.Second
		//lint:allow walltime an HTTP-date Retry-After names a wall-clock instant on a real server
		if d := resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); d > 0 {
			retry = d
		}
		return &QuotaError{Reason: "server quota rejection", RetryAfter: retry}
	}
	return nil
}

// Register creates a user.
func (c *Client) Register(ctx context.Context, name string) (uint64, error) {
	var resp registerResp
	if err := c.post(ctx, "/users", registerReq{Name: name}, &resp); err != nil {
		return 0, err
	}
	return resp.ID, nil
}

// StartBroadcast opens a public broadcast for user at loc.
func (c *Client) StartBroadcast(ctx context.Context, userID uint64, loc geo.Location) (BroadcastGrant, error) {
	return c.startBroadcast(ctx, startReq{UserID: userID, City: loc.City, Lat: loc.Lat, Lon: loc.Lon})
}

// StartPrivateBroadcast opens an invite-only broadcast over RTMPS.
func (c *Client) StartPrivateBroadcast(ctx context.Context, userID uint64, loc geo.Location, allowed []uint64) (BroadcastGrant, error) {
	return c.startBroadcast(ctx, startReq{
		UserID: userID, City: loc.City, Lat: loc.Lat, Lon: loc.Lon,
		Private: true, Allowed: allowed,
	})
}

func (c *Client) startBroadcast(ctx context.Context, req startReq) (BroadcastGrant, error) {
	var grant BroadcastGrant
	err := c.post(ctx, "/broadcasts", req, &grant)
	return grant, err
}

// EndBroadcast finishes a broadcast.
func (c *Client) EndBroadcast(ctx context.Context, broadcastID, token string) error {
	return c.post(ctx, "/broadcasts/"+broadcastID+"/end", endReq{Token: token}, nil)
}

// RegisterPublicKey uploads the §7.2 signing key over the secure channel.
func (c *Client) RegisterPublicKey(ctx context.Context, broadcastID, token string, pub ed25519.PublicKey) error {
	return c.post(ctx, "/broadcasts/"+broadcastID+"/pubkey",
		pubKeyReq{Token: token, PubKeyHex: hex.EncodeToString(pub)}, nil)
}

// PublicKey fetches a broadcast's signing key; empty means unsigned.
func (c *Client) PublicKey(ctx context.Context, broadcastID string) (ed25519.PublicKey, error) {
	var resp pubKeyResp
	if err := c.get(ctx, "/broadcasts/"+broadcastID+"/pubkey", &resp); err != nil {
		return nil, err
	}
	if resp.PubKeyHex == "" {
		return nil, nil
	}
	key, err := hex.DecodeString(resp.PubKeyHex)
	if err != nil {
		return nil, err
	}
	return key, nil
}

// Join requests viewer access to a broadcast.
func (c *Client) Join(ctx context.Context, userID uint64, broadcastID string, loc geo.Location) (ViewerGrant, error) {
	var grant ViewerGrant
	err := c.post(ctx, "/broadcasts/"+broadcastID+"/join",
		joinReq{UserID: userID, City: loc.City, Lat: loc.Lat, Lon: loc.Lon}, &grant)
	return grant, err
}

// ResolveEdge re-resolves the healthy HLS edge for a broadcast without
// recording a join — the failover path viewers take when their edge dies.
func (c *Client) ResolveEdge(ctx context.Context, broadcastID string, loc geo.Location) (string, error) {
	var resp resolveEdgeResp
	path := "/broadcasts/" + broadcastID + "/edge?city=" + url.QueryEscape(loc.City) +
		"&lat=" + strconv.FormatFloat(loc.Lat, 'g', -1, 64) + "&lon=" + strconv.FormatFloat(loc.Lon, 'g', -1, 64)
	if err := c.get(ctx, path, &resp); err != nil {
		return "", err
	}
	return resp.HLSBaseURL, nil
}

// GlobalList fetches the 50-random live list.
func (c *Client) GlobalList(ctx context.Context) ([]Summary, error) {
	var resp struct {
		Broadcasts []summaryJSON `json:"broadcasts"`
	}
	if err := c.get(ctx, "/global", &resp); err != nil {
		return nil, err
	}
	out := make([]Summary, 0, len(resp.Broadcasts))
	for _, b := range resp.Broadcasts {
		out = append(out, b.summary())
	}
	return out, nil
}

// CreateTenant registers a tenant (admin surface).
func (c *Client) CreateTenant(ctx context.Context, name string, plan Plan) (Tenant, error) {
	var t Tenant
	err := c.post(ctx, "/tenants", tenantCreateReq{Name: name, Plan: plan}, &t)
	return t, err
}

// IssueAPIKey mints a key for the tenant (admin surface).
func (c *Client) IssueAPIKey(ctx context.Context, tenantID string) (string, error) {
	var resp keyIssueResp
	if err := c.post(ctx, "/tenants/"+tenantID+"/keys", struct{}{}, &resp); err != nil {
		return "", err
	}
	return resp.Key, nil
}

// RevokeAPIKey invalidates a key (admin surface).
func (c *Client) RevokeAPIKey(ctx context.Context, key string) error {
	return c.post(ctx, "/keys/revoke", keyRevokeReq{Key: key}, nil)
}

// SuspendTenant blocks a tenant's key-authenticated calls (admin surface).
func (c *Client) SuspendTenant(ctx context.Context, tenantID string) error {
	return c.post(ctx, "/tenants/"+tenantID+"/suspend", struct{}{}, nil)
}

// ResumeTenant lifts a suspension (admin surface).
func (c *Client) ResumeTenant(ctx context.Context, tenantID string) error {
	return c.post(ctx, "/tenants/"+tenantID+"/resume", struct{}{}, nil)
}

// Usage fetches a tenant's per-day delivery rollups.
func (c *Client) Usage(ctx context.Context, tenantID string) ([]UsageDay, error) {
	var resp usageResp
	if err := c.get(ctx, "/usage?tenant="+url.QueryEscape(tenantID), &resp); err != nil {
		return nil, err
	}
	return resp.Days, nil
}

// Info fetches one broadcast summary.
func (c *Client) Info(ctx context.Context, broadcastID string) (Summary, error) {
	var b summaryJSON
	if err := c.get(ctx, "/broadcasts/"+broadcastID, &b); err != nil {
		return Summary{}, err
	}
	return b.summary(), nil
}
