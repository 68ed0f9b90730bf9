package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"gaugur/internal/sched/fleet"
	"gaugur/internal/serve"
)

// client is one connection's (or, in process, one caller's) view of the
// admission API. Placement.Seq is only filled in process: the wire
// protocols do not carry it.
type client interface {
	admit(game int, traceID uint64) (fleet.Placement, error)
	leave(session int) error
}

type inprocClient struct{ p *serve.Pipeline }

func (c inprocClient) admit(game int, traceID uint64) (fleet.Placement, error) {
	return c.p.AdmitTraced(game, traceID)
}

func (c inprocClient) leave(session int) error { return c.p.Leave(session) }

type binaryClient struct{ c *serve.BinaryClient }

func (c binaryClient) admit(game int, traceID uint64) (fleet.Placement, error) {
	sess, server, err := c.c.AdmitTraced(game, traceID)
	return fleet.Placement{Session: sess, Server: server}, err
}

func (c binaryClient) leave(session int) error { return c.c.Leave(session) }

// httpClient speaks the HTTP/JSON API; clients built by dialClients share
// one transport capped at the connection count.
type httpClient struct {
	hc   *http.Client
	base string
}

func (c httpClient) post(path string, body any, traceID uint64, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != 0 {
		req.Header.Set(serve.TraceHeader, fmt.Sprintf("%016x", traceID))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
		return json.Unmarshal(data, out)
	case http.StatusTooManyRequests:
		return serve.ErrQueueFull
	case http.StatusServiceUnavailable:
		return serve.ErrDraining
	case http.StatusConflict:
		return serve.ErrNoCapacity
	case http.StatusNotFound:
		return serve.ErrUnknownSession
	}
	return fmt.Errorf("http %d: %s", resp.StatusCode, bytes.TrimSpace(data))
}

func (c httpClient) admit(game int, traceID uint64) (fleet.Placement, error) {
	var r struct{ Session, Server, Shard int }
	err := c.post("/v1/admit", map[string]int{"game": game}, traceID, &r)
	return fleet.Placement{Session: r.Session, Server: r.Server, Shard: r.Shard}, err
}

func (c httpClient) leave(session int) error {
	var r struct{}
	return c.post("/v1/leave", map[string]int{"session": session}, 0, &r)
}

// dialClients opens n clients of the workload's transport against st and
// returns them with a function that closes them all.
func dialClients(st *stack, w workload, n int) ([]client, func(), error) {
	out := make([]client, n)
	switch w.transport {
	case inProc:
		for i := range out {
			out[i] = inprocClient{st.pipe}
		}
		return out, func() {}, nil
	case httpWire:
		tr := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
		hc := &http.Client{Transport: tr}
		for i := range out {
			out[i] = httpClient{hc: hc, base: "http://" + st.srv.Addr()}
		}
		return out, tr.CloseIdleConnections, nil
	}
	conns := make([]*serve.BinaryClient, 0, n)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for i := range out {
		c, err := serve.DialBinary(st.srv.BinaryAddr())
		if err != nil {
			closeAll()
			return nil, nil, fmt.Errorf("dial binary conn %d: %w", i, err)
		}
		conns = append(conns, c)
		out[i] = binaryClient{c}
	}
	return out, closeAll, nil
}
