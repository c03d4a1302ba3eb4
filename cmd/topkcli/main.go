// Command topkcli is an interactive shell over the topk index: load
// synthetic data, insert, delete, query, and watch the I/O meter. It
// exists to poke at the structure by hand.
//
//	$ topkcli -n 10000
//	> top 100 200 5
//	> insert 150.5 9.99
//	> delete 150.5 9.99
//	> count 0 1000
//	> stats
//	> help
//
// The preload is one linear bulk build (topk.Load).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"

	topk "repro"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	n := flag.Int("n", 10000, "synthetic points to preload")
	b := flag.Int("B", 64, "block size in words")
	seed := flag.Int64("seed", 1, "workload seed")
	addr := flag.String("addr", "", "topkd base URL for the remote commands (trace <id>); e.g. localhost:8080")
	flag.Parse()

	var pts []topk.Result
	for _, p := range workload.NewGen(*seed).Uniform(*n, 1e6) {
		pts = append(pts, topk.Result{X: p.X, Score: p.Score})
	}
	st, err := topk.Load(topk.Config{BlockWords: *b, ForcePolylog: true, PolylogF: 8, PolylogLeafCap: 2048}, pts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "preload: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("loaded %d points (B=%d, k-threshold %d, %s)\n",
		st.Len(), st.BlockSize(), st.KThreshold(), st.Regime())
	fmt.Println(`commands: top x1 x2 k | count x1 x2 | insert x score | delete x score | stats | reset | trace <id> | quit`)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			return
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "quit", "exit", "q":
			return
		case "help":
			fmt.Println("top x1 x2 k | count x1 x2 | insert x score | delete x score | stats | reset | trace <id> | quit")
		case "stats":
			s := st.Stats()
			fmt.Printf("reads=%d writes=%d live=%d peak=%d n=%d\n",
				s.Reads, s.Writes, s.BlocksLive, s.BlocksPeak, st.Len())
		case "reset":
			st.ResetStats()
			st.DropCache()
			fmt.Println("meter reset, cache dropped")
		case "trace":
			if len(fields) != 2 {
				fmt.Println("usage: trace <id>    (needs -addr pointing at a topkd)")
				continue
			}
			if *addr == "" {
				fmt.Println("trace needs -addr pointing at a topkd (e.g. -addr localhost:8080)")
				continue
			}
			if err := printTrace(*addr, fields[1]); err != nil {
				fmt.Printf("trace: %v\n", err)
			}
		case "top":
			args, err := floats(fields[1:], 3)
			if err != nil {
				fmt.Println("usage: top x1 x2 k")
				continue
			}
			before := st.Stats()
			res := st.TopK(args[0], args[1], int(args[2]))
			after := st.Stats()
			for i, r := range res {
				fmt.Printf("%3d. x=%.4f score=%.4f\n", i+1, r.X, r.Score)
			}
			fmt.Printf("(%d results, %d read I/Os)\n", len(res), after.Reads-before.Reads)
		case "count":
			args, err := floats(fields[1:], 2)
			if err != nil {
				fmt.Println("usage: count x1 x2")
				continue
			}
			fmt.Println(st.Count(args[0], args[1]))
		case "insert":
			args, err := floats(fields[1:], 2)
			if err != nil {
				fmt.Println("usage: insert x score")
				continue
			}
			if err := st.Insert(args[0], args[1]); err != nil {
				fmt.Printf("rejected: %v\n", err)
			} else {
				fmt.Println("ok")
			}
		case "delete":
			args, err := floats(fields[1:], 2)
			if err != nil {
				fmt.Println("usage: delete x score")
				continue
			}
			fmt.Println(st.Delete(args[0], args[1]))
		default:
			fmt.Printf("unknown command %q (try help)\n", fields[0])
		}
	}
}

// printTrace fetches a finished trace from a topkd and pretty-prints
// the span tree — on a gateway this is the stitched cross-process
// tree: root, per-band RPC spans, and each member's handler and Store
// spans indented beneath the RPC that issued them.
func printTrace(addr, id string) error {
	base := strings.TrimRight(addr, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	resp, err := http.Get(base + "/v1/trace/" + url.PathEscape(id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("http %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	var tr obs.TraceJSON
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return fmt.Errorf("bad response body: %v", err)
	}
	fmt.Printf("trace %s (status %d)\n", tr.ID, tr.Status)
	printSpan(tr.Root, 0)
	return nil
}

// printSpan renders one span line and recurses into its children.
func printSpan(s obs.SpanJSON, depth int) {
	fmt.Printf("%s%s", strings.Repeat("  ", depth), s.Name)
	if s.Addr != "" {
		fmt.Printf(" @ %s", s.Addr)
	}
	fmt.Printf("  %dµs", s.DurationUS)
	if s.Err != "" {
		fmt.Printf("  ERR %s", s.Err)
	}
	fmt.Println()
	for _, c := range s.Children {
		printSpan(c, depth+1)
	}
}

func floats(fields []string, want int) ([]float64, error) {
	if len(fields) != want {
		return nil, fmt.Errorf("want %d args", want)
	}
	out := make([]float64, want)
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
