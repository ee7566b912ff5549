package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"o2/internal/sched"
)

// BenchmarkServeAnalyze measures one served POST /analyze with wait on a
// racy truth-corpus program, through httptest, as `o2 serve` runs it
// (RunStats collected):
//
//	go test -run '^$' -bench ServeAnalyze -benchmem ./internal/server/
//
// miss analyzes the program every time (the result cache is off); hit is
// served from the cache. Each op also reads and decodes the response, as
// a client does, so B/op shows what the response's encoding costs on
// both ends.
func BenchmarkServeAnalyze(b *testing.B) {
	src, err := os.ReadFile("../truth/corpus/mixed_pthread_event.mini")
	if err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(AnalyzeRequest{Source: string(src), Wait: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		cache int
	}{{"miss", -1}, {"hit", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			s := sched.New(sched.Options{Workers: 1, CacheEntries: bc.cache, CollectStats: true})
			ts := httptest.NewServer(New(s))
			defer func() {
				ts.Close()
				s.Shutdown(context.Background())
			}()
			post := func() {
				resp, err := http.Post(ts.URL+"/analyze", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					b.Fatal(err)
				}
				var view sched.View
				if err := json.Unmarshal(raw, &view); err != nil || view.State != sched.Done || view.RaceCnt != 2 {
					b.Fatalf("status %s, state %s, %d races, %v", resp.Status, view.State, view.RaceCnt, err)
				}
			}
			post() // opens the connection and, for hit, fills the cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
		})
	}
}
