package main

import (
	"strings"
)

// metricDef names one reported metric. BENCHMARK.json carries the same names,
// units and directions; a test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off, reported for every workload, and gated by BENCHMARK.json's bounds.
// headline_* is the latency of the workload's headline operation: GenCite
// (cite, cite_deep, cite_bibtex) on hosted-hot and hosted-cold, push (commit
// on the mirror + Sync until acknowledged) on push-mix, Worktree.Commit on
// local-authoring.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"headline_p50_us", "us", "lower"},
	{"headline_p99_us", "us", "lower"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers (layer = module), from the traced
// pass, the untraced fixed-count pass beside it, and the probes. They are
// reported for every workload — 0 where the workload never enters the layer —
// and never gated.
var perLayer = layerDefs(`
extension: cite_us sync_us fetch_us edit_us tree_us chain_us citefile_us cond_us self_us
extension: roundtrips_per_op:count retries:count wire_bytes_out_per_op:B wire_bytes_in_per_op:B
extension: wire_objects_per_push:count wire_objects_per_fetch:count
http: wire_us roundtrip_us
hosting: serve_us serve_cite_us serve_tree_us serve_negotiate_us serve_push_us serve_pull_us serve_edit_us serve_self_us
hosting: acquire_hit_us acquire_reopen_us reopen_ratio:ratio open_repos:count missing_objects_us
hosting: negotiate_ids_per_push:count response_encode_us shadow_accounted_ratio:ratio
hosting: status_2xx:count status_304:count status_err:count
gitcite: generate_us function_at_warm_us function_at_cold_us checkout_us commit_us merge_us copycite_us fork_us
gitcite: store_puts_per_commit:count
core: resolve_ns resolve_key_ns resolve_chain_ns resolve_first_ns merge_us migrate_subtree_us
citefile: decode_us encode_us encode_entry_ns bytes:B
format: bibtex_ns cff_ns ris_ns
vcs: refs_get_us refs_set_us commit_get_us resolve_prefix_us
store: cached_get_us cached_gets_per_op:count cache_hit_ratio:ratio pack_get_us pack_gets_per_op:count
store: pack_put_us pack_put_objects_per_op:count pack_has_us pack_open_us prefix_search_us
store: idx_bytes_per_op:B packs_end:count disk_bytes_per_write:B
process: cpu_s_per_kop:s allocs_per_op:count alloc_bytes_per_op:B gc_cycles:count gc_pause_total_ms:ms
process: peak_rss_mb:MB goroutines_end:count
bench: trace_overhead_ratio:ratio traced_ops:count gen_us_per_op:us
`)

// layerDefs expands "layer: name[:unit] …" lines. A name without a unit takes
// it from its suffix (_us, _ns); time metrics are better lower, and so is
// every count and size here — ratios of useful outcomes excepted.
func layerDefs(table string) []metricDef {
	higher := map[string]bool{"store.cache_hit_ratio": true, "hosting.shadow_accounted_ratio": true, "hosting.status_2xx": true, "hosting.status_304": true, "bench.traced_ops": true}
	var defs []metricDef
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		layer, names, _ := strings.Cut(line, ":")
		for _, f := range strings.Fields(names) {
			name, unit, ok := strings.Cut(f, ":")
			if !ok {
				unit = name[strings.LastIndexByte(name, '_')+1:]
			}
			d := metricDef{name: layer + "." + name, unit: unit, better: "lower"}
			if higher[d.name] {
				d.better = "higher"
			}
			defs = append(defs, d)
		}
	}
	return defs
}
