package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptrace"
	"time"

	"repro/internal/service"
)

// client sends visits to one server over a bounded set of connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// outcome is what one visit measured and received.
type outcome struct {
	v       *visit
	due     time.Time
	end     time.Time // last byte of the last response
	ttfr    float64   // ms from due to the first result line; NaN without NDJSON results
	gaps    []float64 // µs between consecutive NDJSON result lines
	results int       // result objects delivered
	calls   int       // HTTP requests attempted
	failed  int       // requests that failed or whose response the checker rejected
	err     error     // first failure
	// lateness is how late the generator sent the visit (ms); connWait is
	// how long the visit waited for a client and a connection (ms).
	lateness, connWait float64
	deliv              []*delivery
	// costs is each delivery's cost sequence, kept after the responses
	// are checked and dropped; the traced replay must reproduce it.
	costs [][]float64
}

// latency is due → last byte in ms, +Inf for a visit with any failure.
func (o *outcome) latency() float64 {
	if o.failed > 0 {
		return math.Inf(1)
	}
	return float64(o.end.Sub(o.due).Nanoseconds()) / 1e6
}

func (o *outcome) fail(err error) error {
	o.failed++
	if o.err == nil {
		o.err = err
	}
	return err
}

// run sends v, then checks every response outside the timed window.
func (c *client) run(ctx context.Context, v *visit, due time.Time) *outcome {
	o := &outcome{v: v, due: due, ttfr: math.NaN()}
	var err error
	switch v.op {
	case opStream:
		err = c.stream(ctx, v, o)
	case opBatch:
		err = c.batch(ctx, v, o)
	default:
		err = c.paged(ctx, v, o)
	}
	o.end = time.Now()
	if err != nil {
		return o
	}
	for _, d := range o.deliv {
		o.results += len(d.results)
		if cerr := check(d); cerr != nil {
			o.fail(fmt.Errorf("visit %d (%s): %v", v.id, v.class, cerr))
		}
		var cs []float64
		for _, r := range d.results {
			cs = append(cs, r.Cost)
		}
		o.costs = append(o.costs, cs)
	}
	o.deliv = nil
	return o
}

// send issues one request and returns the response when its status is
// the wanted one; otherwise it drains the body and reports a failure.
func (c *client) send(ctx context.Context, o *outcome, method, path string, body []byte, want int) (*http.Response, error) {
	o.calls++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	var asked time.Time
	trace := &httptrace.ClientTrace{
		GetConn: func(string) { asked = time.Now() },
		GotConn: func(httptrace.GotConnInfo) { o.connWait += ms(time.Since(asked)) },
	}
	req, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), method, c.base+path, rd)
	if err != nil {
		return nil, o.fail(err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, o.fail(fmt.Errorf("%s %s: %v", method, path, err))
	}
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		resp.Body.Close()
		return nil, o.fail(fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg)))
	}
	return resp, nil
}

func (c *client) sendJSON(ctx context.Context, o *outcome, method, path string, body []byte, out any) error {
	resp, err := c.send(ctx, o, method, path, body, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return o.fail(fmt.Errorf("%s %s: decode: %v", method, path, err))
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}

func (c *client) deleteSession(ctx context.Context, o *outcome, token string) error {
	resp, err := c.send(ctx, o, http.MethodDelete, "/v1/sessions/"+token, nil, http.StatusNoContent)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	return resp.Body.Close()
}

// stream reads an NDJSON response line by line, stamping each line's
// arrival before anything is decoded.
func (c *client) stream(ctx context.Context, v *visit, o *outcome) error {
	resp, err := c.send(ctx, o, http.MethodPost, v.path, v.body, http.StatusOK)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	type line struct {
		at   time.Time
		data []byte
	}
	var lines []line
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		b, rerr := br.ReadBytes('\n')
		if len(bytes.TrimSpace(b)) > 0 {
			lines = append(lines, line{time.Now(), b})
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return o.fail(fmt.Errorf("POST %s: read: %v", v.path, rerr))
		}
	}
	if len(lines) == 0 {
		return o.fail(fmt.Errorf("POST %s: empty stream", v.path))
	}
	d := &delivery{prob: v.probs[0], summary: &streamSummary{}}
	last := len(lines) - 1
	for i, l := range lines[:last] {
		var r service.TriangulationJSON
		if err := json.Unmarshal(l.data, &r); err != nil {
			return o.fail(fmt.Errorf("POST %s: line %d: %v", v.path, i, err))
		}
		d.results = append(d.results, r)
		if i == 0 {
			o.ttfr = float64(l.at.Sub(o.due).Nanoseconds()) / 1e6
		} else {
			o.gaps = append(o.gaps, float64(l.at.Sub(lines[i-1].at).Nanoseconds())/1e3)
		}
	}
	if err := json.Unmarshal(lines[last].data, d.summary); err != nil {
		return o.fail(fmt.Errorf("POST %s: summary: %v", v.path, err))
	}
	o.deliv = append(o.deliv, d)
	return nil
}

// paged serves the visits that start with a paged JSON response: page
// (plus its follow-up pages), diverse, csp and hypergraph. Any session the
// server left open is deleted before the visit ends.
func (c *client) paged(ctx context.Context, v *visit, o *outcome) error {
	var first service.EnumerateResponse
	if err := c.sendJSON(ctx, o, http.MethodPost, v.path, v.body, &first); err != nil {
		return err
	}
	d := &delivery{prob: v.probs[0], results: first.Results, diverse: v.op == opDiverse, csp: first.CSP, wantCSP: v.op == opCSP}
	o.deliv = append(o.deliv, d)
	token, done := first.Session, first.Done
	if v.op == opPage {
		for i := 0; i < pageFollowUps && !done && token != ""; i++ {
			var next service.EnumerateResponse
			path := fmt.Sprintf("/v1/sessions/%s/next?page_size=%d", token, pageSize)
			if err := c.sendJSON(ctx, o, http.MethodGet, path, nil, &next); err != nil {
				return err
			}
			d.results = append(d.results, next.Results...)
			done = next.Done
		}
	}
	if !done && token != "" {
		return c.deleteSession(ctx, o, token)
	}
	return nil
}

// batch posts every copy in one request, then deletes the sessions the
// items left open.
func (c *client) batch(ctx context.Context, v *visit, o *outcome) error {
	var resp service.BatchResponse
	if err := c.sendJSON(ctx, o, http.MethodPost, v.path, v.body, &resp); err != nil {
		return err
	}
	if resp.Errors != 0 || len(resp.Items) != len(v.probs) {
		return o.fail(fmt.Errorf("batch: %d errors over %d items for %d problems", resp.Errors, len(resp.Items), len(v.probs)))
	}
	for i, it := range resp.Items {
		if it.Response == nil {
			return o.fail(fmt.Errorf("batch item %d: %s", i, it.Error))
		}
		o.deliv = append(o.deliv, &delivery{prob: v.probs[i], results: it.Response.Results})
	}
	for _, it := range resp.Items {
		if !it.Response.Done && it.Response.Session != "" {
			if err := c.deleteSession(ctx, o, it.Response.Session); err != nil {
				return err
			}
		}
	}
	return nil
}

// stats fetches /v1/stats.
func (c *client) stats(ctx context.Context) (*service.StatsResponse, error) {
	var o outcome
	var st service.StatsResponse
	if err := c.sendJSON(ctx, &o, http.MethodGet, "/v1/stats", nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}
