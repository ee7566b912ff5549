// Cserver models a C event-driven server (the Memcached/Redis shape of
// the paper's Table 6) using the C-side language features: function
// pointers, a dispatch table, pthread_create/pthread_join with attribute
// pointers, and libevent-style handler registration. O2's pointer analysis
// resolves the indirect call targets — the reasoning the paper contrasts
// with RacerD's syntactic approach.
//
//	go run ./examples/cserver
package main

import (
	"context"
	"fmt"
	"log"

	"o2"
)

const server = `
class Server { field conns; field stats; volatile field running; }
class Stats  { field gets, sets, evictions; }

// Command handlers, dispatched through a function-pointer table.
func cmd_get(srv) {
  st = srv.stats;
  st.gets = srv;            // RACE: event handler vs maintenance thread
}
func cmd_set(srv) {
  st = srv.stats;
  st.sets = srv;            // RACE
}

// Connection handler: registered with the event loop, dispatches commands.
func on_readable(srv) {
  t = srv.conns;            // the dispatch table rides on the server
  h = t[0];
  h(srv);
}

// Background maintenance thread (LRU crawler).
func crawler(srv) {
  st = srv.stats;
  x = st.gets;              // RACE counterpart (read)
  y = st.sets;              // RACE counterpart (read)
  st.evictions = srv;       // thread-only: no race
  srv.running = srv;        // volatile flag: no race
}

main {
  srv = new Server();
  st = new Stats();
  srv.stats = st;

  tbl = new Table();
  g = &cmd_get;
  s = &cmd_set;
  tbl[0] = g;
  tbl[1] = s;
  srv.conns = tbl;

  h = &on_readable;
  event_register(h, srv);   // the event loop

  c = &crawler;
  t1 = pthread_create(c, srv);

  v = srv.running;          // main reads the volatile flag
  pthread_join(t1);
  st.evictions = null;      // after join: ordered with the crawler
}
`

func main() {
	res, err := o2.AnalyzeSourceCtx(context.Background(), "cserver.mini", server, o2.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("C-style server model (function pointers + pthreads + event loop)")
	fmt.Println("origins:")
	for _, org := range res.Analysis.Origins.Origins {
		fmt.Printf("  %s attrs=%s\n", org, res.Analysis.OriginAttrs(org.ID))
	}

	fmt.Printf("\nraces: %d\n", len(res.Races()))
	for _, r := range res.Races() {
		ka := res.Analysis.Origins.Get(r.A.Origin).Kind
		kb := res.Analysis.Origins.Get(r.B.Origin).Kind
		fmt.Printf("  [%s vs %s] %s: %s <-> %s\n", ka, kb, r.Key, r.A.Pos, r.B.Pos)
	}
	fmt.Println("\nNote: the racing command handlers are reached only through the")
	fmt.Println("function-pointer table — a syntactic tool cannot resolve them.")
}
