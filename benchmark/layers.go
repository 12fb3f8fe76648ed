package main

import (
	"strings"
)

// traceCounts are the cumulative counters of a traced pass's instrumentation;
// the pass's own share is the difference of two readings.
type traceCounts struct {
	stacks                          stackStats
	factoryN                        int64
	bytesIn, bytesOut               int64
	retryCauses, metaTips           int64
	status2xx, status304, statusErr int64
}

func (v *tracedView) counts() traceCounts {
	c := traceCounts{stacks: v.stacks.stats(), factoryN: v.factoryN}
	if v.transport != nil {
		t := v.transport
		c.bytesIn, c.bytesOut = t.bytesIn.Load(), t.bytesOut.Load()
		c.retryCauses, c.metaTips = t.retryCauses.Load(), t.metaTips.Load()
	}
	if v.handler != nil {
		h := v.handler
		c.status2xx, c.status304, c.statusErr = h.status2xx.Load(), h.status304.Load(), h.statusErr.Load()
	}
	return c
}

// spanAgg sums the spans of one name.
type spanAgg struct {
	n           int
	total, self int64
}

func (a spanAgg) meanUS() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.total) / float64(a.n) / 1e3
}

func (a spanAgg) selfUS() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.self) / float64(a.n) / 1e3
}

// aggregate groups linked spans by name; prefix groups (a trailing dot, as in
// "extension.") sum every name below them.
func aggregate(spans []span) func(name string) spanAgg {
	self := selfTimes(spans)
	by := map[string]spanAgg{}
	for i, s := range spans {
		a := by[s.Name]
		a.n++
		a.total += s.End - s.Start
		a.self += self[i]
		by[s.Name] = a
	}
	return func(name string) spanAgg {
		if !strings.HasSuffix(name, ".") {
			return by[name]
		}
		var sum spanAgg
		for k, a := range by {
			if strings.HasPrefix(k, name) {
				sum.n += a.n
				sum.total += a.total
				sum.self += a.self
			}
		}
		return sum
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// spanMetrics derives the span- and counter-based layer metrics of one traced
// pass of ops operations. before and after bracket the pass; rec is what its
// client recorded.
func spanMetrics(spans []span, before, after traceCounts, rec *recorder, ops int) map[string]float64 {
	agg := aggregate(spans)
	n := float64(max(ops, 1))
	m := map[string]float64{}

	for _, k := range []string{"cite", "sync", "fetch", "edit", "tree", "chain", "citefile", "cond"} {
		m["extension."+k+"_us"] = agg("extension." + k).meanUS()
	}
	m["extension.self_us"] = agg("extension.").selfUS()
	httpOps := 0 // operations that went over HTTP at all
	seen := map[int]bool{}
	for _, s := range spans {
		if s.Name == "http.roundtrip" && s.Op >= 0 && !seen[s.Op] {
			seen[s.Op] = true
			httpOps++
		}
	}
	rt := agg("http.roundtrip")
	m["extension.roundtrips_per_op"] = ratio(float64(rt.n), float64(httpOps))
	m["extension.retries"] = float64(after.retryCauses - before.retryCauses)
	m["extension.wire_bytes_out_per_op"] = ratio(float64(after.bytesOut-before.bytesOut), float64(httpOps))
	m["extension.wire_bytes_in_per_op"] = ratio(float64(after.bytesIn-before.bytesIn), float64(httpOps))
	m["extension.wire_objects_per_push"] = ratio(float64(rec.counts["push_objects"]), float64(rec.counts["pushes"]))
	m["extension.wire_objects_per_fetch"] = ratio(float64(rec.counts["fetch_objects"]), float64(rec.counts["fetches"]))

	m["http.roundtrip_us"] = rt.meanUS()
	m["http.wire_us"] = rt.selfUS() // the round trip minus the serve span inside it

	serve := agg(serveSpan)
	m["hosting.serve_us"] = serve.meanUS()
	m["hosting.serve_self_us"] = serve.selfUS() // minus the store and refs spans below
	for _, k := range []string{"cite", "tree", "negotiate", "push", "pull", "edit"} {
		m["hosting.serve_"+k+"_us"] = agg(serveSpan + k).meanUS()
	}
	m["hosting.reopen_ratio"] = ratio(float64(after.factoryN-before.factoryN), float64(serve.n))
	m["hosting.negotiate_ids_per_push"] = ratio(float64(after.metaTips-before.metaTips), float64(rec.counts["pushes"]))
	m["hosting.status_2xx"] = float64(after.status2xx - before.status2xx)
	m["hosting.status_304"] = float64(after.status304 - before.status304)
	m["hosting.status_err"] = float64(after.statusErr - before.statusErr)

	m["vcs.refs_get_us"] = agg("refs.get").meanUS()
	m["vcs.refs_set_us"] = agg("refs.set").meanUS()

	a, b := after.stacks, before.stacks
	m["store.cached_get_us"] = agg("store.cached.get").meanUS()
	m["store.cached_gets_per_op"] = float64(a.cachedGets-b.cachedGets) / n
	hits, miss := float64(a.cacheHits-b.cacheHits), float64(a.cacheMiss-b.cacheMiss)
	m["store.cache_hit_ratio"] = ratio(hits, hits+miss)
	m["store.pack_get_us"] = agg("store.pack.get").meanUS()
	m["store.pack_gets_per_op"] = float64(a.packGets-b.packGets) / n
	m["store.pack_put_us"] = agg("store.pack.put").meanUS()
	m["store.pack_put_objects_per_op"] = float64(a.packPutObjects-b.packPutObjects) / n
	m["store.pack_has_us"] = agg("store.pack.has").meanUS()
	m["store.idx_bytes_per_op"] = float64(a.idxBytes-b.idxBytes) / n
	// Versions that landed in a wrapped store: local commits, server-side
	// citation edits, and pushes (one pushed commit each).
	commits := rec.counts["commits"] + rec.counts["edit_commits"] + rec.counts["pushes"]
	m["gitcite.store_puts_per_commit"] = ratio(float64(a.cachedPutObjects-b.cachedPutObjects), float64(commits))
	return m
}
