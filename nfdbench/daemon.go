package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"enetstl/internal/harness"
	"enetstl/internal/nfd"
)

// daemon is an nfd server on loopback plus the benchmark's one client:
// a single keep-alive connection driven in a closed loop.
type daemon struct {
	srv    *nfd.Server
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	base   string
	client *http.Client
	// handlerNs is the server-side duration of the last packets POST,
	// measured around the daemon's own handler.
	handlerNs atomic.Int64
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{
		srv:    nfd.NewServer(),
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}},
	}
	inner := d.srv.Handler()
	d.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		inner.ServeHTTP(w, r)
		d.handlerNs.Store(time.Since(start).Nanoseconds())
	})}
	go func() {
		defer close(d.served)
		d.hs.Serve(ln) //nolint:errcheck // ErrServerClosed on Shutdown
	}()
	return d, nil
}

// stop drains every module, shuts the listener and waits for Serve.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.srv.Registry.Close()
	err := d.hs.Shutdown(ctx)
	<-d.served
	return err
}

func (d *daemon) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func (d *daemon) create(req nfd.CreateRequest) (string, error) {
	code, data, err := d.do("POST", "/modules", mustJSON(req))
	if err != nil {
		return "", fmt.Errorf("create %s: %w", req.Name, err)
	}
	if code != http.StatusCreated {
		return "", fmt.Errorf("create %s: status %d: %s", req.Name, code, data)
	}
	var st nfd.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return "", fmt.Errorf("create %s: %w", req.Name, err)
	}
	return st.ID, nil
}

func (d *daemon) createAll(w *workload) ([]string, error) {
	ids := make([]string, len(w.tenants))
	for t, tn := range w.tenants {
		id, err := d.create(tn.req)
		if err != nil {
			return nil, err
		}
		ids[t] = id
	}
	return ids, nil
}

func (d *daemon) remove(id string) error {
	code, data, err := d.do("DELETE", "/modules/"+id, nil)
	if err != nil {
		return fmt.Errorf("delete %s: %w", id, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("delete %s: status %d: %s", id, code, data)
	}
	return nil
}

func (d *daemon) removeAll(ids []string) error {
	for _, id := range ids {
		if err := d.remove(id); err != nil {
			return err
		}
	}
	return nil
}

// post sends one batch and returns its tally and round trip. A batch
// succeeds with 200, or with 429 when the body still carries the
// result of a batch the guard shed under.
func (d *daemon) post(id string, body []byte) (harness.BatchResult, time.Duration, error) {
	start := time.Now()
	code, data, err := d.do("POST", "/modules/"+id+"/packets", body)
	rtt := time.Since(start)
	var res harness.BatchResult
	if err != nil {
		return res, rtt, err
	}
	if code != http.StatusOK && code != http.StatusTooManyRequests {
		return res, rtt, fmt.Errorf("packets: status %d: %s", code, data)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, rtt, fmt.Errorf("packets: status %d: %w", code, err)
	}
	if code == http.StatusTooManyRequests && res.Shed == 0 {
		return res, rtt, fmt.Errorf("packets: 429 without a shed result: %s", data)
	}
	return res, rtt, nil
}

// estimate probes GET /modules/{id}/estimates?<query>; ok is false on
// the 404 a module without a control-plane estimator answers.
func (d *daemon) estimate(id, query string) (est uint32, ok bool, err error) {
	code, data, err := d.do("GET", "/modules/"+id+"/estimates?"+query, nil)
	if err != nil {
		return 0, false, err
	}
	switch code {
	case http.StatusNotFound:
		return 0, false, nil
	case http.StatusOK:
		var out struct {
			Estimate uint32 `json:"estimate"`
		}
		err := json.Unmarshal(data, &out)
		return out.Estimate, err == nil, err
	}
	return 0, false, fmt.Errorf("estimates: status %d: %s", code, data)
}
