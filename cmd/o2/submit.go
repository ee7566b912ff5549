package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"o2/internal/obs"
	"o2/internal/sched"
	"o2/internal/server"
)

// runSubmit is a small pure-Go client for a running `o2 serve` — it keeps
// the CI smoke test free of curl/jq dependencies. With -healthz it just
// polls the health endpoint; otherwise it POSTs the named files to
// /analyze with wait=true and prints the job view JSON.
func runSubmit(args []string) int {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "server address (host:port, or @file to read it from a file)")
	ctxKind := fs.String("context", "origin", "context policy: origin, 0ctx, kcfa, kobj")
	k := fs.Int("k", 1, "context depth")
	timeoutMS := fs.Int64("timeout-ms", 0, "per-job deadline in milliseconds (0 = server default)")
	retry := fs.Int("retry", 0, "retry connection errors this many times (1s apart)")
	healthz := fs.Bool("healthz", false, "just check GET /healthz and exit")
	metrics := fs.Bool("metrics", false, "scrape GET /metrics, print the exposition and exit (fails if empty)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}

	if *metrics {
		var body []byte
		if err := withRetry(*retry, func() error {
			base, err := resolveAddr(*addr)
			if err != nil {
				return err
			}
			resp, err := http.Get(base + "/metrics")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("metrics: status %s", resp.Status)
			}
			body, err = io.ReadAll(resp.Body)
			return err
		}); err != nil {
			return fail(exitInternal, err)
		}
		if !bytes.Contains(body, []byte("# TYPE ")) {
			return fail(exitInternal, fmt.Errorf("metrics: exposition has no # TYPE lines:\n%s", body))
		}
		fams, err := obs.ParsePromText(body)
		if err != nil {
			return fail(exitInternal, fmt.Errorf("metrics: %w", err))
		}
		os.Stdout.Write(body)
		// Histogram families are bucket dumps in the raw exposition; append
		// one rendered summary line each (count, sum, quantile estimates
		// interpolated from the buckets). Emitted as comments so the output
		// stays a valid exposition for downstream scrapers.
		for i := range fams {
			f := &fams[i]
			hs, ok := f.Histogram()
			if !ok {
				continue
			}
			fmt.Printf("# hist %s count=%g sum=%g p50=%g p90=%g p99=%g\n",
				f.Name, hs.Count, hs.Sum, hs.Quantile(0.5), hs.Quantile(0.9), hs.Quantile(0.99))
		}
		return exitOK
	}

	if *healthz {
		if err := withRetry(*retry, func() error {
			// Resolve inside the retry so an -addr-file the server has not
			// written yet counts as a retryable failure.
			base, err := resolveAddr(*addr)
			if err != nil {
				return err
			}
			resp, err := http.Get(base + "/healthz")
			if err != nil {
				return err
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("healthz: status %s", resp.Status)
			}
			return nil
		}); err != nil {
			return fail(exitInternal, err)
		}
		fmt.Println("ok")
		return exitOK
	}

	if fs.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: o2 submit [flags] file.mini ...")
		fs.PrintDefaults()
		return exitUsage
	}
	files, err := readFiles(fs.Args())
	if err != nil {
		return fail(exitUsage, err)
	}
	body, err := json.Marshal(server.AnalyzeRequest{
		Files:     files,
		Config:    server.ConfigRequest{Context: *ctxKind, K: *k},
		TimeoutMS: *timeoutMS,
		Wait:      true,
	})
	if err != nil {
		return fail(exitInternal, err)
	}

	var view sched.View
	err = withRetry(*retry, func() error {
		base, err := resolveAddr(*addr)
		if err != nil {
			return err
		}
		resp, err := http.Post(base+"/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("analyze: status %s: %s", resp.Status, strings.TrimSpace(string(raw)))
		}
		return json.Unmarshal(raw, &view)
	})
	if err != nil {
		return fail(exitInternal, err)
	}

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(view); err != nil {
		return fail(exitInternal, err)
	}
	if view.State != sched.Done {
		if code, ok := outcomeExit[view.ErrKind]; ok {
			return code
		}
		return exitInternal // the server sent no kind we know
	}
	if view.RaceCnt > 0 {
		return exitRaces
	}
	return exitOK
}

// resolveAddr turns the -addr flag into a base URL; "@path" reads the
// address a serve process wrote via -addr-file.
func resolveAddr(addr string) (string, error) {
	if strings.HasPrefix(addr, "@") {
		raw, err := os.ReadFile(addr[1:])
		if err != nil {
			return "", err
		}
		addr = strings.TrimSpace(string(raw))
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimSuffix(addr, "/"), nil
}

func withRetry(retries int, f func() error) error {
	var err error
	for i := 0; ; i++ {
		if err = f(); err == nil || i >= retries {
			return err
		}
		time.Sleep(time.Second)
	}
}
