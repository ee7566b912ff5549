// Quickstart: analyze a small multithreaded program for data races with
// O2's default configuration (1-origin OPA, all detector optimizations).
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"o2"
)

const program = `
// A counter shared by two worker threads. The increment in run() is not
// synchronized, so the two workers race; the reset in main happens after
// both joins, so it does not.
class Counter { field value; }

class Worker {
  field c;
  Worker(c) { this.c = c; }
  run() {
    x = this.c;
    x.value = this;        // RACE: unsynchronized write
  }
}

class SafeWorker {
  field c; field lock;
  SafeWorker(c, l) { this.c = c; this.lock = l; }
  run() {
    x = this.c;
    l = this.lock;
    sync (l) { x.guarded = this; }   // protected: no race
  }
}

main {
  c = new Counter();
  l = new Lock();
  w1 = new Worker(c);
  w2 = new Worker(c);
  s1 = new SafeWorker(c, l);
  s2 = new SafeWorker(c, l);
  w1.start();
  w2.start();
  s1.start();
  s2.start();
  w1.join();
  w2.join();
  s1.join();
  s2.join();
  c.value = null;          // after all joins: ordered, no race
}
`

func main() {
	res, err := o2.AnalyzeSourceCtx(context.Background(), "quickstart.mini", program, o2.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("origins discovered: %d\n", res.Analysis.Origins.Len())
	for _, org := range res.Analysis.Origins.Origins {
		fmt.Printf("  %s\n", org)
	}

	fmt.Printf("\norigin-shared locations: %d\n", len(res.Sharing.Shared))
	fmt.Printf("races: %d\n\n", len(res.Races()))
	for _, r := range res.Races() {
		fmt.Println(r.String())
		fmt.Println()
	}
	fmt.Printf("analysis took %v (pta %v, osa %v, shb %v, detect %v)\n",
		res.TotalTime(), res.PTATime, res.OSATime, res.SHBTime, res.DetectTime)
}
