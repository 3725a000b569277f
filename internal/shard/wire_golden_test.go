package shard_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"luf/internal/client"
	"luf/internal/server"
	"luf/internal/shard"
)

// postRaw POSTs body to url and returns the status, the Retry-After
// header and the decoded error body (zero for a success).
func postRaw(t *testing.T, url string, body []byte) (int, string, server.ErrorBody, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var eb server.ErrorBody
	if resp.StatusCode != http.StatusOK {
		if err := json.Unmarshal(raw, &eb); err != nil {
			t.Fatalf("refusal body %q: %v", raw, err)
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After"), eb, raw
}

// TestWireGoldenCoordinatorExplain pins the exact bytes and headers of
// a coordinator /v1/explain answer: a certificate stitched across two
// groups through a committed bridge edge.
func TestWireGoldenCoordinatorExplain(t *testing.T) {
	m, _ := startGroups(t, 2)
	c := newCoord(t, m, t.TempDir(), nil)
	h := shard.NewHandler(c)
	url := h.Start()
	t.Cleanup(h.Stop)
	ctx := context.Background()

	a := m.SampleOwned(0, 2, "golden")
	b := m.SampleOwned(1, 1, "goldenx")
	if _, err := c.Union(ctx, a[0], a[1], 2, "local"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Union(ctx, a[1], b[0], 5, "bridge"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(url + "/v1/explain?n=" + a[0] + "&m=" + b[0])
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"cert":{"kind":"relation","x":"` + a[0] + `","y":"` + b[0] + `","label":7,"steps":[` +
		`{"n":"` + a[0] + `","m":"` + a[1] + `","label":2,"reason":"local"},` +
		`{"n":"` + a[1] + `","m":"` + b[0] + `","label":5,"reason":"` + server.FormatIntentTag(1, 1) + ` bridge"}]}}` + "\n"
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" ||
		resp.Header.Get("Retry-After") != "" || string(raw) != want {
		t.Fatalf("coordinator explain = %d %q retry-after=%q\n%s\nwant 200 \"application/json\"\n%s",
			resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get("Retry-After"), raw, want)
	}
}

// refusingConn answers every Assert with one fixed participant refusal.
type refusingConn struct {
	shard.Conn
	err error
}

func (rc *refusingConn) Assert(context.Context, string, string, int64, string) (server.AssertResponse, error) {
	return server.AssertResponse{}, rc.err
}

// TestCoordinatorForwardsParticipantRefusal: a participant's refusal
// reaches the coordinator's caller with its status and every detail
// field — the re-route hints of a 403 migrated-node fence and the
// primary hint of a 421 — not only its kind and conflict certificate.
func TestCoordinatorForwardsParticipantRefusal(t *testing.T) {
	m := shard.Map{Groups: []shard.Group{
		{Name: "alpha", Nodes: []string{"http://alpha.invalid"}},
		{Name: "beta", Nodes: []string{"http://beta.invalid"}},
	}}
	ids := m.SampleOwned(0, 2, "fwd")
	for _, tc := range []struct {
		name   string
		status int
		detail server.ErrorDetail
	}{
		{"migrated", http.StatusForbidden, server.ErrorDetail{
			Kind: "fenced", Message: "node migrated", NewOwner: "beta", MovedNode: ids[0], MapEpoch: 3,
		}},
		{"not primary", http.StatusMisdirectedRequest, server.ErrorDetail{
			Kind: "not-primary", Message: "this node is a follower", Primary: "http://alpha-2.invalid",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			refusal := &client.APIError{Status: tc.status, Body: server.ErrorBody{Error: tc.detail}}
			c, err := shard.New(shard.Config{
				Dir: t.TempDir(), Map: m,
				Dial: func(shard.Group) shard.Conn { return &refusingConn{err: refusal} },
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = c.Close() })
			h := shard.NewHandler(c)
			url := h.Start()
			t.Cleanup(h.Stop)

			body, _ := json.Marshal(shard.UnionRequest{N: ids[0], M: ids[1], Label: 1})
			status, _, eb, _ := postRaw(t, url+shard.UnionPath, body)
			want := tc.detail
			want.Message = eb.Error.Message
			if status != tc.status || eb.Error != want {
				t.Fatalf("forwarded refusal = %d %+v, want %d %+v", status, eb.Error, tc.status, want)
			}
			if !strings.Contains(eb.Error.Message, tc.detail.Message) {
				t.Fatalf("forwarded message %q lost the participant's %q", eb.Error.Message, tc.detail.Message)
			}
		})
	}
}

// TestCoordinatorBodyLimit: the coordinator bounds request bodies as
// lufd does, at 4 MiB. A 1.5 MiB body is read whole, and a longer-than-
// limit one is refused with a 400 that names the limit rather than a
// misleading JSON syntax error.
func TestCoordinatorBodyLimit(t *testing.T) {
	m, _ := startGroups(t, 2)
	c := newCoord(t, m, t.TempDir(), nil)
	h := shard.NewHandler(c)
	url := h.Start()
	t.Cleanup(h.Stop)

	ids := m.SampleOwned(0, 2, "big")
	padded := func(size int) []byte {
		head := `{"n":"` + ids[0] + `","m":"` + ids[1] + `",`
		tail := `"label":1}`
		return []byte(head + strings.Repeat(" ", size-len(head)-len(tail)) + tail)
	}
	if status, _, eb, _ := postRaw(t, url+shard.UnionPath, padded(3<<19)); status != http.StatusOK {
		t.Fatalf("1.5 MiB union body = %d %+v, want accepted", status, eb.Error)
	}
	status, _, eb, _ := postRaw(t, url+shard.UnionPath, padded(4<<20+1))
	if status != http.StatusBadRequest || !strings.Contains(eb.Error.Message, "exceeds 4194304 bytes") {
		t.Fatalf("oversized union body = %d %+v, want 400 naming the 4 MiB limit", status, eb.Error)
	}
}
