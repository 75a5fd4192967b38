package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"
)

// runSubmit is the `topobench submit` subcommand: the client side of the
// serve daemon's async job API. It submits a grid as a detached job (or
// re-attaches to an existing job id with -job), polls its progress, and
// writes the finished canonical JSON — byte-identical to a synchronous
// POST /v1/eval for the same grid. SIGINT/SIGTERM cancels the job
// server-side before exiting, so an abandoned submit does not leave a
// solve burning.
func runSubmit(args []string) {
	fs := flag.NewFlagSet("topobench submit", flag.ExitOnError)
	var (
		server   = fs.String("server", "http://127.0.0.1:8080", "serve daemon base URL")
		grid     = fs.String("grid", "", "scenario grid line to submit")
		jobID    = fs.String("job", "", "existing job id to poll instead of submitting")
		interval = fs.Duration("interval", 500*time.Millisecond, "poll interval")
		timeout  = fs.Duration("timeout", 0, "give up after this long (0 = wait forever)")
		out      = fs.String("o", "", "output file for the result JSON (default stdout)")
		logFmt   = logFormatFlag(fs)
	)
	fs.Parse(args)
	applyLogFormat(*logFmt)
	base := strings.TrimRight(*server, "/")

	id := *jobID
	if id == "" {
		if strings.TrimSpace(*grid) == "" {
			fatal(fmt.Errorf("submit needs -grid (or -job to poll an existing job)"))
		}
		var err error
		id, err = submitJob(base, *grid)
		if err != nil {
			fatal(err)
		}
		logger.Info("job submitted", "job", id)
	}

	// Cancel the job server-side on interrupt: a detached solve nobody
	// will ever poll again should stop burning solver time.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		req, err := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
		if err == nil {
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		logger.Info("canceled job", "job", id)
		os.Exit(1)
	}()

	body, err := pollJob(base, id, *interval, *timeout)
	if err != nil {
		fatal(err)
	}
	if err := writeOut(*out, func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	}); err != nil {
		fatal(err)
	}
}

// Submission retry policy — mirrors internal/remotestore's transport
// policy: a bounded number of attempts with full-jitter exponential
// backoff, retrying only failures that a later attempt could answer
// differently (network errors, 429 backpressure, 5xx). An authoritative
// 4xx — bad grid, malformed request — fails fast: retrying cannot change
// the answer. Retrying a POST whose accept response was lost can create a
// duplicate job; that is safe here because the daemon's flight table and
// solve cache deduplicate the actual work and both jobs yield identical
// canonical bytes.
const (
	submitAttempts    = 3
	submitBackoffBase = 50 * time.Millisecond
	submitBackoffMax  = time.Second
)

// retryableStatus reports whether an HTTP status is worth a retry
// (transient server state), as opposed to an authoritative verdict.
func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// submitBackoff returns the full-jitter sleep before attempt k (2-based):
// uniform over [0, min(submitBackoffMax, base·2^(k−2))].
func submitBackoff(attempt int, rng *rand.Rand) time.Duration {
	max := submitBackoffBase << (attempt - 2)
	if max > submitBackoffMax {
		max = submitBackoffMax
	}
	return time.Duration(rng.Int63n(int64(max) + 1))
}

// submitJob POSTs the grid and returns the assigned job id, retrying
// transient transport failures.
func submitJob(base, grid string) (string, error) {
	reqBody, _ := json.Marshal(struct {
		Grid string `json:"grid"`
	}{grid})
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var lastErr error
	for attempt := 1; attempt <= submitAttempts; attempt++ {
		if attempt > 1 {
			logger.Warn("submit retrying", "err", lastErr, "attempt", attempt, "attempts", submitAttempts)
			time.Sleep(submitBackoff(attempt, rng))
		}
		resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			lastErr = err
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			serr := fmt.Errorf("submitting job: %s: %s", resp.Status, strings.TrimSpace(string(body)))
			if !retryableStatus(resp.StatusCode) {
				return "", serr
			}
			lastErr = serr
			continue
		}
		var acc struct {
			Job string `json:"job"`
		}
		if err := json.Unmarshal(body, &acc); err != nil || acc.Job == "" {
			return "", fmt.Errorf("submitting job: malformed accept body %q", string(body))
		}
		return acc.Job, nil
	}
	return "", fmt.Errorf("submitting job: giving up after %d attempts: %w", submitAttempts, lastErr)
}

// pollJob polls the job's status until it is terminal and returns the
// result bytes (for done jobs) or an error carrying the recorded failure.
func pollJob(base, id string, interval, timeout time.Duration) ([]byte, error) {
	deadline := time.Time{}
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	lastDone := uint32(0)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			// A restarting server answers again soon; polling rides it out
			// (the job record survives the restart).
			logger.Warn("poll failed, retrying", "err", err)
		} else {
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode == http.StatusNotFound {
				return nil, fmt.Errorf("job %s: %s", id, strings.TrimSpace(string(body)))
			}
			var st struct {
				State string `json:"state"`
				Done  uint32 `json:"done"`
				Total uint32 `json:"total"`
				Error string `json:"error"`
			}
			if resp.StatusCode == http.StatusOK && json.Unmarshal(body, &st) == nil {
				if st.Done != lastDone {
					lastDone = st.Done
					logger.Info("job progress", "state", st.State, "done", st.Done, "total", st.Total)
				}
				switch st.State {
				case "done":
					if b, ok, err := fetchResult(base, id); err != nil {
						return nil, err
					} else if ok {
						return b, nil
					}
				case "failed", "canceled":
					return nil, fmt.Errorf("job %s %s: %s", id, st.State, st.Error)
				}
			}
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s: gave up after %s", id, timeout)
		}
		time.Sleep(interval)
	}
}

// fetchResult GETs a done job's bytes, which its record holds, so the
// server answers 200; ok=false means a transient network error and the
// caller should poll again.
func fetchResult(base, id string) ([]byte, bool, error) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		return nil, false, nil // transient; outer loop retries
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("job %s result: %s: %s", id, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, true, nil
}
