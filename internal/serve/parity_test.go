package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"sort"
	"testing"

	topk "repro"
	"repro/internal/obs"
)

// statsQuantileBlocks are the /v1/stats objects holding histogram
// estimates (or per-label counters) rather than one fact each. The
// parity test treats each as a single opaque key path.
var statsQuantileBlocks = map[string]bool{
	"latency":               true,
	"batcher.group_size":    true,
	"batcher.flush_latency": true,
	"batcher.flush_reasons": true,
}

// flattenStats walks a decoded /v1/stats body into its dot-separated
// key paths, recording the scalar leaves outside the quantile blocks.
func flattenStats(prefix string, m map[string]any, paths *[]string, leaves map[string]any) {
	for k, v := range m {
		p := k
		if prefix != "" {
			p = prefix + "." + k
		}
		if statsQuantileBlocks[p] {
			*paths = append(*paths, p)
			continue
		}
		if sub, ok := v.(map[string]any); ok {
			flattenStats(p, sub, paths, leaves)
			continue
		}
		*paths = append(*paths, p)
		leaves[p] = v
	}
}

// TestStatsMetricsParity: /v1/stats and /v1/metrics render one collect
// scrape. On each backend, after the same traffic, every integer leaf
// of the stats page equals the sample of the metric its fact names,
// and neither page changed shape: the stats key paths and the metric
// families equal the sets the two separately written handlers served
// before collect replaced them.
func TestStatsMetricsParity(t *testing.T) {
	baseKeys := []string{"blocks_live", "blocks_peak", "latency", "n", "reads", "writes"}
	shardKeys := []string{"merges", "shards", "splits"}
	batcherKeys := []string{
		"batcher.flush_latency", "batcher.flush_reasons", "batcher.flushes",
		"batcher.group_size", "batcher.max_group", "batcher.ops",
		"batcher.outcome_ring.evictions", "batcher.outcome_ring.occupancy", "batcher.pending",
	}
	baseFams := []string{
		"topkd_blocks_live", "topkd_blocks_peak", "topkd_go_gc_cycles_total",
		"topkd_go_gc_pause_seconds_total", "topkd_go_goroutines", "topkd_go_heap_alloc_bytes",
		"topkd_go_heap_objects", "topkd_http_in_flight_requests", "topkd_http_request_duration_seconds",
		"topkd_io_reads_total", "topkd_io_writes_total", "topkd_points_live",
		"topkd_store_op_duration_seconds", "topkd_trace_ring_evictions_total",
	}
	shardFams := []string{"topkd_shard_merges_total", "topkd_shard_splits_total", "topkd_shards", "topkd_topology_epoch"}
	batcherFams := []string{
		"topkd_ingest_backpressure_wait_seconds", "topkd_ingest_flush_duration_seconds",
		"topkd_ingest_flushes_by_reason_total", "topkd_ingest_flushes_total", "topkd_ingest_group_max",
		"topkd_ingest_group_size", "topkd_ingest_ops_total", "topkd_ingest_pending",
		"topkd_outcome_ring_evictions_total", "topkd_outcome_ring_occupancy",
	}
	clusterFams := []string{
		"topkd_cluster_ejections_total", "topkd_cluster_nodes", "topkd_cluster_nodes_ejected",
		"topkd_cluster_read_failovers_total", "topkd_cluster_recoveries_total", "topkd_cluster_rpc_duration_seconds",
	}

	cases := []struct {
		name     string
		async    bool
		boot     func(t *testing.T) (string, topk.Store)
		keys     []string
		families []string
	}{
		{
			name: "sharded",
			boot: func(t *testing.T) (string, topk.Store) {
				st := testStore(t, 400)
				srv := httptest.NewServer(New(st, Options{}))
				t.Cleanup(srv.Close)
				return srv.URL, st
			},
			keys:     slices.Concat(baseKeys, shardKeys),
			families: slices.Concat(baseFams, shardFams),
		},
		{
			name:  "batched-async",
			async: true,
			boot: func(t *testing.T) (string, topk.Store) {
				bt := batchedStore(t, 400)
				srv := httptest.NewServer(New(bt, Options{AsyncAck: true}))
				t.Cleanup(srv.Close)
				return srv.URL, bt
			},
			keys:     slices.Concat(baseKeys, shardKeys, batcherKeys),
			families: slices.Concat(baseFams, shardFams, batcherFams),
		},
		{
			name: "gateway",
			boot: func(t *testing.T) (string, topk.Store) {
				gw, cl, shutdown := bootTestGateway(t, nil, nil)
				t.Cleanup(shutdown)
				return gw.URL, cl
			},
			keys:     slices.Concat(baseKeys, []string{"ejected", "nodes"}),
			families: slices.Concat(baseFams, clusterFams),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base, st := c.boot(t)
			driveTraffic(t, base)
			if bt, ok := st.(*topk.Batched); ok {
				bt.Flush() // commit the async-acked insert: both pages see one state
			}

			resp, err := http.Get(base + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			dec := json.NewDecoder(resp.Body)
			dec.UseNumber()
			var stats map[string]any
			err = dec.Decode(&stats)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var paths []string
			leaves := map[string]any{}
			flattenStats("", stats, &paths, leaves)
			fams := scrape(t, base)
			var names []string
			for name := range fams {
				names = append(names, name)
			}
			sort.Strings(paths)
			sort.Strings(names)
			slices.Sort(c.keys)
			slices.Sort(c.families)
			if !slices.Equal(paths, c.keys) {
				t.Errorf("/v1/stats key paths:\n got %q\nwant %q", paths, c.keys)
			}
			if !slices.Equal(names, c.families) {
				t.Errorf("/v1/metrics families:\n got %q\nwant %q", names, c.families)
			}

			// The key → metric map comes from the fact list itself; the
			// values compared are the two pages' own.
			var ring *outcomeRing
			if c.async {
				ring = &outcomeRing{}
			}
			byKey := map[string]string{}
			for _, f := range collect(st, obs.New(obs.Options{}), ring).scalars {
				if f.key != "" {
					byKey[f.key] = f.name
				}
			}
			for path, leaf := range leaves {
				name, ok := byKey[path]
				if !ok {
					t.Errorf("stats leaf %s has no fact", path)
					continue
				}
				num, _ := leaf.(json.Number)
				v, err := num.Int64()
				if err != nil {
					t.Errorf("stats leaf %s = %v, want an integer", path, leaf)
					continue
				}
				fam := fams[name]
				if fam == nil || len(fam.samples) != 1 {
					t.Errorf("stats leaf %s: metric %s has no single sample", path, name)
					continue
				}
				if got := fam.samples[0].value; got != float64(v) {
					t.Errorf("stats %s = %d but metric %s = %v", path, v, name, got)
				}
			}
		})
	}
}
