package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"o2"
	"o2/internal/sched"
	"o2/internal/server"
)

// TestOutcomeExit pins the 0–6 exit-code contract of the package
// comment: every outcome o2.Classify returns has exactly one code, and
// usage errors keep 2.
func TestOutcomeExit(t *testing.T) {
	want := map[o2.Outcome]int{
		o2.OutcomeOK:       0,
		o2.OutcomeRaces:    1,
		o2.OutcomeParse:    3,
		o2.OutcomeBudget:   4,
		o2.OutcomeCanceled: 5,
		o2.OutcomeInternal: 6,
	}
	if len(outcomeExit) != len(want) {
		t.Fatalf("outcomeExit has %d entries, want %d", len(outcomeExit), len(want))
	}
	for outcome, code := range want {
		if got, ok := outcomeExit[outcome]; !ok || got != code {
			t.Errorf("outcomeExit[%s] = %d, %t; want %d", outcome, got, ok, code)
		}
	}
	if exitUsage != 2 {
		t.Errorf("exitUsage = %d, want 2", exitUsage)
	}
}

// TestFailAnalysisExit checks the error→outcome→code path every
// subcommand's analysis failure takes.
func TestFailAnalysisExit(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{fmt.Errorf("%w: bad input", o2.ErrCompile), 3},
		{o2.ErrBudget, 4},
		{context.DeadlineExceeded, 4},
		{o2.ErrCanceled, 5},
		{context.Canceled, 5},
		{errors.New("disk on fire"), 6},
	} {
		if got := failAnalysis(tc.err); got != tc.want {
			t.Errorf("failAnalysis(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

// TestRunExit drives the CLI in process over the smoke programs.
func TestRunExit(t *testing.T) {
	const dir = "../../testdata/"
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"analyze", dir + "smoke_clean.mini"}, 0},
		{[]string{"analyze", dir + "smoke_racy.mini"}, 1},
		{[]string{"batch"}, 2},
		{[]string{"analyze", dir + "smoke_bad.mini"}, 3},
		{[]string{"analyze", "-time-budget", "1ns", dir + "smoke_racy.mini"}, 4},
		{[]string{"batch", dir + "smoke_clean.mini", dir + "smoke_bad.mini", dir + "smoke_racy.mini"}, 3},
	} {
		if got := run(tc.args); got != tc.want {
			t.Errorf("o2 %v: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestServeBounds checks the bounds o2 serve puts on one request: its
// HTTP server times out slow request headers, and `o2 serve -h` shows
// the default deadline of a job whose request sets none.
func TestServeBounds(t *testing.T) {
	if got := newHTTPServer(nil).ReadHeaderTimeout; got != 10*time.Second {
		t.Errorf("ReadHeaderTimeout = %v, want 10s", got)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = w
	code := run([]string{"serve", "-h"})
	os.Stderr = stderr
	w.Close()
	usage, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if code != exitUsage {
		t.Errorf("o2 serve -h: exit %d, want %d", code, exitUsage)
	}
	if !regexp.MustCompile(`-job-timeout duration\n[^\n]*\(default 5m0s\)`).Match(usage) {
		t.Errorf("o2 serve -h does not show a 5m -job-timeout default:\n%s", usage)
	}
}

// TestSubmitIndents: the server's responses are compact, and `o2
// submit` prints them two-space indented for people, which the
// `./ci.sh smoke` greps read.
func TestSubmitIndents(t *testing.T) {
	s := sched.New(sched.Options{Workers: 1})
	ts := httptest.NewServer(server.New(s))
	defer func() {
		ts.Close()
		s.Shutdown(context.Background())
	}()
	const dir = "../../testdata/"
	for _, tc := range []struct {
		file string
		code int
		want []string
	}{
		{"smoke_racy.mini", exitRaces, []string{`"race_count": 1`, `"witness": {`}},
		{"smoke_bad.mini", 3, []string{`"error_kind": "parse"`}},
	} {
		code, out := captureStdout(t, func() int { return run([]string{"submit", "-addr", ts.URL, dir + tc.file}) })
		if code != tc.code {
			t.Errorf("o2 submit %s: exit %d, want %d", tc.file, code, tc.code)
		}
		var view sched.View
		if err := json.Unmarshal(out, &view); err != nil {
			t.Fatalf("o2 submit %s: %v\n%s", tc.file, err, out)
		}
		want, err := json.MarshalIndent(view, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, append(want, '\n')) {
			t.Errorf("o2 submit %s does not print two-space-indented JSON:\n%s", tc.file, out)
		}
		for _, w := range tc.want {
			if !strings.Contains(string(out), w) {
				t.Errorf("o2 submit %s: output lacks %s", tc.file, w)
			}
		}
	}
}

// captureStdout runs f with os.Stdout redirected and returns its result
// and what it printed.
func captureStdout(t *testing.T, f func() int) (int, []byte) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	code := f()
	os.Stdout = stdout
	w.Close()
	return code, <-out
}
