package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/remotestore"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/store"
)

// daemon is an evaluation service wired the way `topobench serve
// -cache-dir <dir> -warm-start` wires it, serving on a loopback port.
// Its client holds one keep-alive connection.
type daemon struct {
	st      *store.Store
	handler http.Handler
	srv     *http.Server
	done    chan struct{}
	base    string
	client  *http.Client
}

func startDaemon(dir string) (*daemon, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	st.EnableNegativeCache(0, 0)
	cache := scenario.NewCache()
	cache.SetBackend(st)
	eng := &scenario.Engine{Cache: cache, SkipInfeasible: true, WarmStart: true}
	h := service.New(service.Config{Engine: eng, Cache: cache, Store: st}).Handler()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		st: st, handler: h,
		srv:  &http.Server{Handler: h},
		done: make(chan struct{}),
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true,
		}},
	}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln)
	}()
	return d, nil
}

// close stops the server and waits for its serve loop to return.
func (d *daemon) close() {
	if d == nil {
		return
	}
	d.client.CloseIdleConnections()
	d.srv.Close()
	<-d.done
}

// evalBody is the POST /v1/eval body for a grid line.
func evalBody(line string) []byte {
	b, _ := json.Marshal(service.EvalRequest{Grid: line})
	return b
}

// evalRequest builds POST /v1/eval against base.
func evalRequest(base string, body []byte) *http.Request {
	req, _ := http.NewRequest(http.MethodPost, base+"/v1/eval", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// tbrsRequest builds GET /v1/result/<addr> asking for raw TBRS bytes.
func tbrsRequest(base, addr string) *http.Request {
	req, _ := http.NewRequest(http.MethodGet, base+"/v1/result/"+addr, nil)
	req.Header.Set("Accept", remotestore.ContentType)
	return req
}

// do sends req and reads the whole answer.
func (d *daemon) do(req *http.Request) (int, []byte, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// eval posts a grid line and decodes the answer, which must be a 200
// whose points are all OK.
func (d *daemon) eval(body []byte) ([]byte, *service.EvalResponse, error) {
	status, raw, err := d.do(evalRequest(d.base, body))
	if err != nil {
		return nil, nil, err
	}
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("eval answered %d: %s", status, strings.TrimSpace(string(raw)))
	}
	var resp service.EvalResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, nil, fmt.Errorf("decoding eval answer: %w", err)
	}
	if err := checkPoints(&resp); err != nil {
		return nil, nil, err
	}
	return raw, &resp, nil
}

// checkPoints requires every point of an answer to be OK with positive,
// finite run values.
func checkPoints(resp *service.EvalResponse) error {
	if len(resp.Points) == 0 {
		return errors.New("answer has no points")
	}
	for i, p := range resp.Points {
		if !p.OK || len(p.Values) != p.Runs {
			return fmt.Errorf("point %d not OK (ok=%v runs=%d values=%d)", i, p.OK, p.Runs, len(p.Values))
		}
		for _, v := range p.Values {
			if !validValue(v) {
				return fmt.Errorf("point %d has run value %v", i, v)
			}
		}
	}
	return nil
}

// counters scrapes /metrics and returns the values of the named
// topobench_ families.
func (d *daemon) counters(names ...string) (map[string]float64, error) {
	req, _ := http.NewRequest(http.MethodGet, d.base+"/metrics", nil)
	status, body, err := d.do(req)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/metrics answered %d", status)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		for _, n := range names {
			if v, ok := strings.CutPrefix(line, "topobench_"+n+" "); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return nil, fmt.Errorf("/metrics %s: %w", n, err)
				}
				out[n] = f
			}
		}
	}
	for _, n := range names {
		if _, ok := out[n]; !ok {
			return nil, fmt.Errorf("/metrics has no topobench_%s", n)
		}
	}
	return out, nil
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
