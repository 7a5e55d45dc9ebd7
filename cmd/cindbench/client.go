package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"cind/internal/server"
	"cind/internal/stream"
)

// node is one in-process HTTP listener: a single server, a shard, or the
// router in front of shards.
type node struct {
	url   string
	hs    *http.Server
	done  chan error
	drain func()
	close func() error
}

// listen serves hs on a loopback port.
func listen(hs *http.Server, drain func(), closeFn func() error) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{url: "http://" + ln.Addr().String(), hs: hs, done: make(chan error, 1), drain: drain, close: closeFn}
	go func() { n.done <- hs.Serve(ln) }()
	return n, nil
}

// startServer serves a cindserve Server built from opts.
func startServer(opts server.Options) (*node, error) {
	s, err := server.NewWithOptions(opts)
	if err != nil {
		return nil, err
	}
	n, err := listen(server.NewHTTPServer(s), s.Drain, s.Close)
	if err != nil {
		s.Close()
		return nil, err
	}
	return n, nil
}

// startRouter serves a Router over the given shard nodes.
func startRouter(shards []*node) (*node, error) {
	urls := make([]string, len(shards))
	for i, s := range shards {
		urls[i] = s.url
	}
	rt, err := server.NewRouter(server.RouterOptions{Shards: urls})
	if err != nil {
		return nil, err
	}
	return listen(server.NewRouterHTTPServer(rt), rt.Drain, func() error { return nil })
}

// stop drains in-flight streams, shuts the listener down and waits for the
// serve loop to return, then releases the server's storage.
func (n *node) stop() error {
	n.drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := n.close(); err == nil {
		err = cerr
	}
	return err
}

// client is one benchmark connection: its transport holds at most one
// connection, so the load a workload generates is exactly its client count.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// httpError is a non-2xx answer.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// send issues one request and returns the response once its headers are in.
// A non-2xx answer is returned as *httpError with the body consumed.
func (c *client) send(method, path string, body []byte, accept string) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		return nil, &httpError{code: resp.StatusCode, body: string(bytes.TrimSpace(b))}
	}
	return resp, nil
}

// exchange is one timed request: when it was sent, when its headers
// arrived and when its body was fully read and decoded.
type exchange struct {
	start, headers, end time.Time
}

// trace records the exchange as a request span with its headers and decode
// phases under parent.
func (x exchange) trace(tr *tracer, parent int, req int64) {
	id := tr.add("request", parent, req, x.start, x.end)
	tr.add("headers", id, req, x.start, x.headers)
	tr.add("decode", id, req, x.headers, x.end)
}

// call sends one request and decodes a JSON answer into out.
func (c *client) call(method, path string, body []byte, out any) (exchange, error) {
	x := exchange{start: time.Now()}
	resp, err := c.send(method, path, body, "")
	x.headers = time.Now()
	if err != nil {
		x.end = x.headers
		return x, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && out != nil {
		err = json.Unmarshal(data, out)
	}
	x.end = time.Now()
	return x, err
}

// violations streams GET /datasets/{name}/violations in encoding enc,
// decoding every violation into buf (reused across calls). It fails unless
// the stream ends in a clean terminal record whose count matches.
func (c *client) violations(name string, enc stream.Encoding, buf []stream.Violation) (exchange, []stream.Violation, error) {
	buf = buf[:0]
	x := exchange{start: time.Now()}
	resp, err := c.send(http.MethodGet, "/datasets/"+name+"/violations", nil, enc.ContentType())
	x.headers = time.Now()
	if err != nil {
		x.end = x.headers
		return x, buf, err
	}
	defer resp.Body.Close()
	dec := stream.NewDecoder(resp.Body, enc)
	for {
		v, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			x.end = time.Now()
			return x, buf, err
		}
		buf = append(buf, v)
	}
	x.end = time.Now()
	return x, buf, nil
}

// load creates a dataset over the wire: its constraint spec, then one CSV
// upload per non-empty relation.
func (c *client) load(d *dataset) error {
	if _, err := c.call(http.MethodPut, "/datasets/"+d.name+"/constraints", []byte(d.spec), nil); err != nil {
		return fmt.Errorf("create dataset %s: %w", d.name, err)
	}
	sch := bankSet().Schema()
	for _, rel := range sch.Relations() {
		if len(d.rows[rel.Name()]) == 0 {
			continue
		}
		if _, err := c.call(http.MethodPut, "/datasets/"+d.name+"?relation="+rel.Name(), d.csv(sch, rel.Name()), nil); err != nil {
			return fmt.Errorf("load %s.%s: %w", d.name, rel.Name(), err)
		}
	}
	return nil
}

// metrics reads the server's /metrics map.
func (c *client) metrics() (map[string]json.RawMessage, error) {
	var m map[string]json.RawMessage
	_, err := c.call(http.MethodGet, "/metrics", nil, &m)
	return m, err
}
