// Memcached reproduces the paper's Memcached case study (§5.4): the
// slab-rebalancing race between the do_slabs_reassign event handler
// (reads slabclass state without the slabs lock) and do_slabs_newslab
// worker threads (write it with the lock), plus the settings and
// stop_main_loop flag races. It then shows why unifying threads and
// events matters: restricting analysis to threads only (dropping event
// entry points) misses every one of these races.
//
//	go run ./examples/memcached
package main

import (
	"context"
	"fmt"
	"log"

	"o2"
	"o2/internal/cases"
	"o2/internal/ir"
)

func main() {
	c := cases.MemcachedCase
	fmt.Printf("Memcached case study: %s\n\n", c.About)

	res, err := o2.AnalyzeSourceCtx(context.Background(), "memcached.mini", c.Source, o2.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("O2 (threads ∪ events): %d races (paper: %d confirmed)\n", len(res.Races()), c.Races)
	for _, r := range res.Races() {
		fmt.Printf("  %s: %s <-> %s\n", r.Key, r.A, r.B)
	}

	// Ablation: events only or threads only (the paper's §2 point — these
	// races need the union).
	threadsOnly := o2.DefaultConfig()
	threadsOnly.Entries = ir.EntryConfig{
		ThreadEntries: []string{"run", "call"},
		StartMethods:  []string{"start"},
		JoinMethods:   []string{"join"},
		// no event entries: handleEvent is just a method call on main
	}
	resT, err := o2.AnalyzeSourceCtx(context.Background(), "memcached.mini", c.Source, threadsOnly)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nthreads-only analysis: %d races", len(resT.Races()))
	fmt.Println(" — the event side runs on main, so the event-vs-thread pairs survive")
	fmt.Println("  only if main itself conflicts; the handler-specific races degrade:")
	for _, r := range resT.Races() {
		fmt.Printf("  %s: %s <-> %s\n", r.Key, r.A, r.B)
	}

	eventsOnly := o2.DefaultConfig()
	eventsOnly.Entries = ir.EntryConfig{
		ThreadEntries: []string{},
		EventEntries:  []string{"handleEvent", "onReceive"},
		JoinMethods:   []string{"join"},
	}
	resE, err := o2.AnalyzeSourceCtx(context.Background(), "memcached.mini", c.Source, eventsOnly)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nevents-only analysis: %d races — thread entry points ignored, so the\n", len(resE.Races()))
	fmt.Println("  locked writer side disappears entirely.")
}
