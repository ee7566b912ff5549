package truth

import (
	"context"
	"fmt"
	"os"
	"testing"

	"o2"
	"o2/internal/report"
)

// Ablation golden tests: each analysis layer earns its place by being
// switched off. Disabling the layer that suppresses a false-positive
// category must make exactly the pinned spurious races reappear on the
// corpus programs of that category — if the ablated run reports the same
// set as the default run, the corpus never exercised the layer and the
// precision score for that category is vacuous.

// ablationCase pins the keys that appear under an ablated configuration
// but not under the default one.
type ablationCase struct {
	program string
	mutate  func(cfg *o2.Config)
	// reappear are the spurious race idents (report.RaceKey.Ident) the
	// ablated run must add relative to the default run.
	reappear []string
}

func ablations() []ablationCase {
	noLockset := func(cfg *o2.Config) { cfg.Detector.NoLockset = true }
	noHB := func(cfg *o2.Config) { cfg.Detector.NoHB = true }
	noAndroid := func(cfg *o2.Config) { cfg.Android = false }
	insensitive := func(cfg *o2.Config) { cfg.Policy = o2.Insensitive }
	return []ablationCase{
		// lock-protected: the hybrid lockset check is what suppresses these.
		{"lock_sync_both", noLockset, []string{
			"v @ lock_sync_both.mini:10 lock_sync_both.mini:10",
		}},
		{"lock_pthread_mutex", noLockset, []string{
			"v @ lock_pthread_mutex.mini:8 lock_pthread_mutex.mini:8",
		}},
		// join-ordered: the SHB happens-before check is what suppresses these.
		{"join_full", noHB, []string{
			"s @ join_full.mini:4 join_full.mini:6",
			"v @ join_full.mini:7 join_full.mini:15",
		}},
		{"join_two_phase", noHB, []string{
			"s @ join_two_phase.mini:4 join_two_phase.mini:6",
			"s @ join_two_phase.mini:12 join_two_phase.mini:14",
			"v @ join_two_phase.mini:7 join_two_phase.mini:15",
			"v @ join_two_phase.mini:7 join_two_phase.mini:25",
		}},
		{"join_partial", noHB, []string{
			"s @ join_partial.mini:7 join_partial.mini:9",
			"s @ join_partial.mini:15 join_partial.mini:17",
			"v @ join_partial.mini:10 join_partial.mini:28",
		}},
		// go-sync: the channel and WaitGroup HB edges are what suppress the
		// payload races; NoHB also drops spawn edges, so the constructor-vs-
		// run field handoffs reappear alongside them.
		{"gosync_chan_unbuffered_hb", noHB, []string{
			"c @ gosync_chan_unbuffered_hb.mini:5 gosync_chan_unbuffered_hb.mini:9",
			"d @ gosync_chan_unbuffered_hb.mini:5 gosync_chan_unbuffered_hb.mini:7",
			"v @ gosync_chan_unbuffered_hb.mini:8 gosync_chan_unbuffered_hb.mini:19",
		}},
		{"gosync_chan_close_hb", noHB, []string{
			"c @ gosync_chan_close_hb.mini:5 gosync_chan_close_hb.mini:9",
			"d @ gosync_chan_close_hb.mini:5 gosync_chan_close_hb.mini:7",
			"v @ gosync_chan_close_hb.mini:8 gosync_chan_close_hb.mini:19",
		}},
		{"gosync_wg_fanin", noHB, []string{
			"a @ gosync_wg_fanin.mini:12 gosync_wg_fanin.mini:38",
			"b @ gosync_wg_fanin.mini:23 gosync_wg_fanin.mini:39",
			"r @ gosync_wg_fanin.mini:9 gosync_wg_fanin.mini:11",
			"r @ gosync_wg_fanin.mini:20 gosync_wg_fanin.mini:22",
			"w @ gosync_wg_fanin.mini:9 gosync_wg_fanin.mini:13",
			"w @ gosync_wg_fanin.mini:20 gosync_wg_fanin.mini:24",
		}},
		{"gosync_select_ordered", noHB, []string{
			"a @ gosync_select_ordered.mini:11 gosync_select_ordered.mini:37",
			"b @ gosync_select_ordered.mini:22 gosync_select_ordered.mini:40",
			"c @ gosync_select_ordered.mini:8 gosync_select_ordered.mini:12",
			"c @ gosync_select_ordered.mini:19 gosync_select_ordered.mini:23",
			"g @ gosync_select_ordered.mini:8 gosync_select_ordered.mini:10",
			"g @ gosync_select_ordered.mini:19 gosync_select_ordered.mini:21",
		}},
		{"gosync_chan_ping_pong", noHB, []string{
			"c @ gosync_chan_ping_pong.mini:6 gosync_chan_ping_pong.mini:8",
			"d @ gosync_chan_ping_pong.mini:6 gosync_chan_ping_pong.mini:10",
			"r @ gosync_chan_ping_pong.mini:6 gosync_chan_ping_pong.mini:12",
			"v @ gosync_chan_ping_pong.mini:11 gosync_chan_ping_pong.mini:22",
			"v @ gosync_chan_ping_pong.mini:11 gosync_chan_ping_pong.mini:25",
		}},
		// event-serialized: the Android dispatch lock is what suppresses these.
		{"android_two_handlers", noAndroid, []string{
			"q @ android_two_handlers.mini:7 android_two_handlers.mini:15",
		}},
		{"android_static", noAndroid, []string{
			"Log.count @ android_static.mini:4 android_static.mini:9",
		}},
		// origin-local: origin-sensitive contexts are what separate these.
		{"local_per_origin", insensitive, []string{
			"p @ local_per_origin.mini:5 local_per_origin.mini:5",
			"p @ local_per_origin.mini:5 local_per_origin.mini:6",
		}},
		{"local_deep_chain", insensitive, []string{
			"p @ local_deep_chain.mini:5 local_deep_chain.mini:5",
		}},
		{"local_singleton", insensitive, []string{
			"p @ local_singleton.mini:14 local_singleton.mini:14",
		}},
	}
}

// ablatedKeys analyzes a corpus program under its configuration with one
// mutation applied.
func ablatedKeys(p *Program, mutate func(*o2.Config)) ([]report.RaceKey, error) {
	cfg := p.Config()
	mutate(&cfg)
	res, err := o2.AnalyzeSourceCtx(context.Background(), p.File, p.Source, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.Name, err)
	}
	return report.Canonical(res.Report, res.Analysis.Origins), nil
}

func corpusByName(t *testing.T) map[string]*Program {
	t.Helper()
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*Program{}
	for i := range corpus {
		byName[corpus[i].Name] = &corpus[i]
	}
	return byName
}

// TestAblationsReintroduceFPs: for each pinned case, the ablated run
// reports every default-run race plus exactly the pinned spurious ones.
func TestAblationsReintroduceFPs(t *testing.T) {
	byName := corpusByName(t)
	for _, c := range ablations() {
		c := c
		t.Run(c.program, func(t *testing.T) {
			p, ok := byName[c.program]
			if !ok {
				t.Fatalf("no corpus program %s", c.program)
			}
			base, err := p.ActualKeys()
			if err != nil {
				t.Fatal(err)
			}
			got, err := ablatedKeys(p, c.mutate)
			if err != nil {
				t.Fatal(err)
			}
			baseSet := map[string]bool{}
			for _, k := range base {
				baseSet[k.Ident()] = true
			}
			extra := map[string]bool{}
			for _, k := range got {
				if !baseSet[k.Ident()] {
					extra[k.Ident()] = true
				}
			}
			for _, k := range base {
				found := false
				for _, g := range got {
					if g.Ident() == k.Ident() {
						found = true
					}
				}
				if !found {
					t.Errorf("ablation dropped default-run race %s", k.Ident())
				}
			}
			want := map[string]bool{}
			for _, id := range c.reappear {
				want[id] = true
				if !extra[id] {
					t.Errorf("expected spurious race %s to reappear; extras: %v", id, keys(extra))
				}
			}
			for id := range extra {
				if !want[id] {
					t.Errorf("unexpected extra race %s under ablation", id)
				}
			}
		})
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestOSAFilterNeutralOnCorpus: OSAFilter is a performance optimization —
// restricting pair checking to origin-shared locations must not change any
// corpus report.
func TestOSAFilterNeutralOnCorpus(t *testing.T) {
	corpus, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus {
		p := &corpus[i]
		base, err := p.ActualKeys()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ablatedKeys(p, func(cfg *o2.Config) { cfg.Detector.OSAFilter = false })
		if err != nil {
			t.Fatal(err)
		}
		if !report.SameKeys(base, got) {
			t.Errorf("%s: OSAFilter=false changed the report:\n--- on ---\n%s--- off ---\n%s",
				p.Name, keySet(base), keySet(got))
		}
	}
}

// TestDumpAblations (TRUTH_DUMP=1) prints, for every ablation case, the
// keys the ablated run adds over the default run — the source of the
// pinned goldens above.
func TestDumpAblations(t *testing.T) {
	if os.Getenv("TRUTH_DUMP") == "" {
		t.Skip("set TRUTH_DUMP=1 to dump")
	}
	byName := corpusByName(t)
	for _, c := range ablations() {
		p := byName[c.program]
		base, err := p.ActualKeys()
		if err != nil {
			t.Fatal(err)
		}
		got, err := ablatedKeys(p, c.mutate)
		if err != nil {
			t.Fatal(err)
		}
		baseSet := map[string]bool{}
		for _, k := range base {
			baseSet[k.Ident()] = true
		}
		fmt.Printf("== %s\n", c.program)
		for _, k := range got {
			if !baseSet[k.Ident()] {
				fmt.Printf("   + %s\n", k.Ident())
			}
		}
	}
}
