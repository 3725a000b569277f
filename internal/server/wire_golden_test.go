package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"testing"
	"time"

	"luf/internal/cert"
	"luf/internal/replica"
	"luf/internal/server"
	"luf/internal/wal"
)

// wireReply is what the golden tests pin of one response: the status,
// the two headers clients act on, and the exact body bytes.
type wireReply struct {
	status      int
	contentType string
	retryAfter  string
	body        string
}

// wireDo sends one raw request and captures its reply.
func wireDo(t *testing.T, method, url string, body []byte, hdr map[string]string) wireReply {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return wireReply{
		status:      resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		body:        string(raw),
	}
}

func wireJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkWire(t *testing.T, what string, got, want wireReply) {
	t.Helper()
	if got != want {
		t.Errorf("%s:\n got  %d %q retry-after=%q\n      %s\n want %d %q retry-after=%q\n      %s",
			what, got.status, got.contentType, got.retryAfter, got.body,
			want.status, want.contentType, want.retryAfter, want.body)
	}
}

// batchHeaders are the protocol headers of a replication batch.
func batchHeaders(fence, prevSeq uint64, prevCRC uint32, count int, primary string) map[string]string {
	return map[string]string{
		"Content-Type":        "application/octet-stream",
		replica.HeaderFence:   strconv.FormatUint(fence, 10),
		replica.HeaderPrimary: primary,
		replica.HeaderPrevSeq: strconv.FormatUint(prevSeq, 10),
		replica.HeaderPrevCRC: strconv.FormatUint(uint64(prevCRC), 10),
		replica.HeaderCount:   strconv.Itoa(count),
	}
}

// TestWireGoldenLufd pins the exact bytes and headers of lufd's
// certificate and refusal responses, so a change to how they are built
// cannot change what a client or a peer reads.
func TestWireGoldenLufd(t *testing.T) {
	const jsonType = "application/json"

	t.Run("explain and conflict", func(t *testing.T) {
		_, ts, _ := newTestServer(t, server.Config{})
		for _, a := range []server.AssertRequest{
			{N: "x", M: "y", Label: 3, Reason: "fact-1"},
			{N: "y", M: "z", Label: 4, Reason: "fact-2"},
		} {
			if r := wireDo(t, "POST", ts.URL+"/v1/assert", wireJSON(t, a), nil); r.status != http.StatusOK {
				t.Fatalf("seed assert: %+v", r)
			}
		}
		checkWire(t, "explain", wireDo(t, "GET", ts.URL+"/v1/explain?n=x&m=z", nil, nil), wireReply{
			status: 200, contentType: jsonType,
			body: `{"cert":{"kind":"relation","x":"x","y":"z","label":7,"steps":[{"n":"x","m":"y","label":3,"reason":"fact-1"},{"n":"y","m":"z","label":4,"reason":"fact-2"}]}}` + "\n",
		})
		checkWire(t, "explain reversed", wireDo(t, "GET", ts.URL+"/v1/explain?n=z&m=y", nil, nil), wireReply{
			status: 200, contentType: jsonType,
			body: `{"cert":{"kind":"relation","x":"z","y":"y","label":-4,"steps":[{"n":"y","m":"z","label":4,"reversed":true,"reason":"fact-2"}]}}` + "\n",
		})
		bad := server.AssertRequest{N: "x", M: "z", Label: 8, Reason: "bad-fact"}
		checkWire(t, "409 conflict", wireDo(t, "POST", ts.URL+"/v1/assert", wireJSON(t, bad), nil), wireReply{
			status: 409, contentType: jsonType,
			body: `{"error":{"kind":"conflict","message":"conflict: assert x -(8)-\u003e z contradicts the existing relation","conflict_cert":{"kind":"conflict","x":"x","y":"z","label":7,"steps":[{"n":"x","m":"y","label":3,"reason":"fact-1"},{"n":"y","m":"z","label":4,"reason":"fact-2"}],"conflicting":{"n":"x","m":"z","label":8,"reason":"bad-fact"}}}}` + "\n",
		})
	})

	t.Run("follower 421", func(t *testing.T) {
		_, ts, _ := newTestServer(t, server.Config{
			Dir: t.TempDir(), Role: server.RoleFollower, NodeName: "f", FollowerWaitMax: time.Millisecond,
		})
		// A heartbeat teaches the follower who its primary is.
		hb := wireDo(t, "POST", ts.URL+replica.ReplicatePath, nil, batchHeaders(1, 0, 0, 0, "http://primary.test"))
		if hb.status != http.StatusOK {
			t.Fatalf("heartbeat: %+v", hb)
		}
		a := server.AssertRequest{N: "a", M: "b", Label: 1}
		checkWire(t, "follower write", wireDo(t, "POST", ts.URL+"/v1/assert", wireJSON(t, a), nil), wireReply{
			status: 421, contentType: jsonType,
			body: `{"error":{"kind":"not-primary","message":"not primary: this node is a follower; write to the primary at http://primary.test","primary":"http://primary.test"}}` + "\n",
		})
		read := wireDo(t, "GET", ts.URL+"/v1/relation?n=a&m=b", nil, map[string]string{server.HeaderSession: "5"})
		checkWire(t, "uncovered session read", read, wireReply{
			status: 421, contentType: jsonType,
			body: `{"error":{"kind":"not-primary","message":"not primary: read session requires durable_seq \u003e= 5 but this replica holds 0 after 1ms; retry against the primary","primary":"http://primary.test"}}` + "\n",
		})
	})

	t.Run("divergence", func(t *testing.T) {
		dir := t.TempDir()
		seedDivergentDir(t, dir)
		_, ts, _ := newTestServer(t, server.Config{Dir: dir, Role: server.RoleFollower, NodeName: "f"})
		frames := wal.EncodeFrames[string, int64](wal.DeltaCodec{}, []wal.SeqEntry[string, int64]{
			{Seq: 2, Entry: cert.Entry[string, int64]{N: "p", M: "q", Label: 1, Reason: "shipped"}},
		})
		checkWire(t, "divergence refusal",
			wireDo(t, "POST", ts.URL+replica.ReplicatePath, frames, batchHeaders(1, 1, 7, 1, "http://primary.test")),
			wireReply{
				status: 500, contentType: jsonType,
				body: `{"error":{"kind":"divergence","message":"divergent histories at sequence 1 (checksum 629639657 here, 7 on the sender): the batch's anchor record differs between this replica and the primary — refusing to merge","divergence":{"seq":1,"local_crc":629639657,"remote_crc":7}}}` + "\n",
			})
	})

	t.Run("draining 503", func(t *testing.T) {
		s, ts, _ := newTestServer(t, server.Config{})
		if err := s.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		a := server.AssertRequest{N: "a", M: "b", Label: 1}
		checkWire(t, "draining refusal", wireDo(t, "POST", ts.URL+"/v1/assert", wireJSON(t, a), nil), wireReply{
			status: 503, contentType: jsonType, retryAfter: "1",
			body: `{"error":{"kind":"unavailable","message":"service unavailable: server is draining"}}` + "\n",
		})
	})

	t.Run("migrated 403", func(t *testing.T) {
		_, ts, _ := newTestServer(t, server.Config{Dir: t.TempDir()})
		if r := wireDo(t, "POST", ts.URL+"/v1/assert", wireJSON(t, server.AssertRequest{N: "a", M: "b", Label: 1, Reason: "seed"}), nil); r.status != http.StatusOK {
			t.Fatalf("seed assert: %+v", r)
		}
		done := server.MigrateCompleteRequest{Migration: 7, Epoch: 1, MapEpoch: 3, To: "beta", Nodes: []string{"a", "b"}}
		if r := wireDo(t, "POST", ts.URL+server.CompletePath, wireJSON(t, done), nil); r.status != http.StatusOK {
			t.Fatalf("complete: %+v", r)
		}
		stale := server.AssertRequest{N: "a", M: "c", Label: 2, Reason: "stale"}
		checkWire(t, "migrated refusal", wireDo(t, "POST", ts.URL+"/v1/assert", wireJSON(t, stale), nil), wireReply{
			status: 403, contentType: jsonType,
			body: `{"error":{"kind":"fenced","message":"node \"a\" migrated to shard group \"beta\" at map epoch 3; refresh the shard map","new_owner":"beta","moved_node":"a","map_epoch":3}}` + "\n",
		})
	})
}

// TestWireGoldenExplainEscapes pins the exact bytes of a /v1/explain
// answer whose node names and reasons need escaping — quotes,
// backslashes, HTML metacharacters, control bytes, non-ASCII text and
// U+2028 — and checks that the client decodes that body to the same
// certificate json.Unmarshal does.
func TestWireGoldenExplainEscapes(t *testing.T) {
	_, ts, c := newTestServer(t, server.Config{})
	// Raw request bodies, so U+2028 and U+2029 travel as the JSON
	// escapes lsep and psep.
	const lsep, psep = `\` + "u2028", `\` + "u2029"
	sep := string(rune(0x2028))
	for _, body := range []string{
		`{"n":"a\"b","m":"c\\d","label":1,"reason":"say \"hi\""}`,
		`{"n":"c\\d","m":"<e>&f","label":2,"reason":"back\\slash <b>&amp;"}`,
		`{"n":"<e>&f","m":"g\nh","label":3,"reason":"line\nbreak\ttab"}`,
		`{"n":"g\nh","m":"é","label":4,"reason":"café"}`,
		`{"n":"é","m":"` + lsep + `","label":5,"reason":"sep` + lsep + `arator` + psep + `"}`,
	} {
		if r := wireDo(t, "POST", ts.URL+"/v1/assert", []byte(body), nil); r.status != http.StatusOK {
			t.Fatalf("seed assert %s: %+v", body, r)
		}
	}
	for _, tc := range []struct{ n, m, body string }{
		{`a"b`, sep, `{"cert":{"kind":"relation","x":"a\"b","y":"\u2028","label":15,"steps":[{"n":"a\"b","m":"c\\d","label":1,"reason":"say \"hi\""},{"n":"c\\d","m":"\u003ce\u003e\u0026f","label":2,"reason":"back\\slash \u003cb\u003e\u0026amp;"},{"n":"\u003ce\u003e\u0026f","m":"g\nh","label":3,"reason":"line\nbreak\ttab"},{"n":"g\nh","m":"é","label":4,"reason":"café"},{"n":"é","m":"\u2028","label":5,"reason":"sep\u2028arator\u2029"}]}}` + "\n"},
		{sep, `<e>&f`, `{"cert":{"kind":"relation","x":"\u2028","y":"\u003ce\u003e\u0026f","label":-12,"steps":[{"n":"é","m":"\u2028","label":5,"reversed":true,"reason":"sep\u2028arator\u2029"},{"n":"g\nh","m":"é","label":4,"reversed":true,"reason":"café"},{"n":"\u003ce\u003e\u0026f","m":"g\nh","label":3,"reversed":true,"reason":"line\nbreak\ttab"}]}}` + "\n"},
	} {
		q := "/v1/explain?" + url.Values{"n": {tc.n}, "m": {tc.m}}.Encode()
		got := wireDo(t, "GET", ts.URL+q, nil, nil)
		checkWire(t, "explain "+q, got, wireReply{status: 200, contentType: "application/json", body: tc.body})
		var want server.ExplainResponse
		if err := json.Unmarshal([]byte(got.body), &want); err != nil {
			t.Fatal(err)
		}
		crt, err := c.Explain(context.Background(), tc.n, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(crt, want.Cert) {
			t.Errorf("client decoded %s\n to  %#v\n want %#v", q, crt, want.Cert)
		}
	}
}
