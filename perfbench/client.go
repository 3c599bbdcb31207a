package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/wire"
)

// client drives serve closed-loop over one keep-alive loopback
// connection from one goroutine.
type client struct {
	hc   *http.Client
	body []byte // response body scratch
}

func newClient() *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// prepared is an op rendered once into what goes on the wire.
type prepared struct {
	op
	method, url string
	ctype       string
	body        []byte
}

// prepare renders every op of a round against base.
func prepare(base string, round []op) []prepared {
	out := make([]prepared, len(round))
	for i, o := range round {
		p := prepared{op: o}
		q := url.Values{}
		q.Set("platform", o.Platform)
		switch o.Kind {
		case opBatch:
			reqs := make([]engine.Request, len(o.Points))
			for j, pt := range o.Points {
				reqs[j] = engine.Request{Program: pt.Program, SizeIdx: pt.Size, LeaveOut: true}
			}
			p.method, p.ctype = http.MethodPost, wire.ContentType
			p.body = wire.AppendBatchRequest(nil, reqs)
			p.url = base + "/predict/batch?" + q.Encode()
		default:
			pt := o.Points[0]
			q.Set("program", pt.Program)
			q.Set("size", strconv.Itoa(pt.Size))
			q.Set("leaveout", "true")
			p.method = http.MethodGet
			path := "/predict"
			if o.Kind == opExecute {
				p.method, path = http.MethodPost, "/execute"
			}
			p.url = base + path + "?" + q.Encode()
		}
		out[i] = p
	}
	return out
}

// answer is one decoded response.
type answer struct {
	Preds []engine.Prediction // predict: one; batch: one per point
	Exec  *engine.Execution
}

// send runs one request and returns its latency (request written to
// response body read) and the raw body. A non-200 status is an error.
func (c *client) send(ctx context.Context, p *prepared) (time.Duration, []byte, error) {
	var rd io.Reader
	if p.body != nil {
		rd = bytes.NewReader(p.body)
	}
	req, err := http.NewRequestWithContext(ctx, p.method, p.url, rd)
	if err != nil {
		return 0, nil, err
	}
	if p.ctype != "" {
		req.Header.Set("Content-Type", p.ctype)
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	buf := bytes.NewBuffer(c.body[:0])
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	lat := time.Since(t0)
	c.body = buf.Bytes()
	if err != nil {
		return lat, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return lat, c.body, fmt.Errorf("%s %s: status %d: %.200s", p.method, p.url, resp.StatusCode, c.body)
	}
	return lat, c.body, nil
}

// decode parses body as the answer to p.
func decode(p *prepared, body []byte) (answer, error) {
	var a answer
	switch p.Kind {
	case opPredict:
		var pr engine.Prediction
		if err := json.Unmarshal(body, &pr); err != nil {
			return a, fmt.Errorf("decode /predict: %w", err)
		}
		a.Preds = []engine.Prediction{pr}
	case opBatch:
		msg, payload, err := wire.ParseFrame(body)
		if err != nil {
			return a, err
		}
		if msg != wire.MsgBatchResp {
			return a, fmt.Errorf("batch answer has message type %d", msg)
		}
		items, errs, err := wire.DecodeBatchResponse(payload)
		if err != nil {
			return a, err
		}
		if errs != 0 || len(items) != len(p.Points) {
			return a, fmt.Errorf("batch of %d points: %d answers, %d errors", len(p.Points), len(items), errs)
		}
		for _, it := range items {
			a.Preds = append(a.Preds, it.Pred)
		}
	case opExecute:
		var x engine.Execution
		if err := json.Unmarshal(body, &x); err != nil {
			return a, fmt.Errorf("decode /execute: %w", err)
		}
		a.Exec = &x
		a.Preds = []engine.Prediction{x.Prediction}
	}
	return a, nil
}
