package main

// The closed-loop HTTP client. It owns one keep-alive connection and
// waits for every reply before sending its next request.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"time"
)

type client struct {
	hc   *http.Client
	base string
	t    *tracer // nil when untraced

	// reqs collects the client's requests for the traced
	// decomposition.
	reqs []reqRecord
}

// reqRecord is one request as the client saw it.
type reqRecord struct {
	Route string // the server's route name
	Span  uint64
	Lat   time.Duration
}

func newClient(base string, t *tracer) *client {
	tr := &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, t: t}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is a fully read response.
type reply struct {
	Status int
	Body   []byte
	Lat    time.Duration
}

// do sends one request and reads the whole reply. Lat covers sending
// the request through reading the last body byte. opSpan parents the
// request span when tracing.
func (c *client) do(opSpan uint64, route, method, path string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	var id uint64
	if c.t != nil {
		id = c.t.newID()
		req.Header.Set(spanHeader, fmt.Sprint(id))
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	lat := end.Sub(start)
	if c.t != nil {
		c.t.record(id, opSpan, "client.request."+route, start, end)
		c.reqs = append(c.reqs, reqRecord{Route: route, Span: id, Lat: lat})
	}
	if err != nil {
		return reply{}, err
	}
	return reply{Status: resp.StatusCode, Body: data, Lat: lat}, nil
}
