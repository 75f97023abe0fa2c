package obsv

// Snapshot merge: deterministic aggregation of N registry snapshots into
// one. This is the single aggregation rule shared by every consumer that
// combines metrics from more than one process — `hrmsim status`'s fleet
// view and `hrmsim merge`'s post-hoc shard aggregation — so a live fleet
// readout and a post-hoc merge of the same shards report the same
// numbers.
//
// Per-kind policy (documented per metric in OBSERVABILITY.md):
//
//   - Counters sum. Every counter in this module is a monotonic event
//     count, and events on disjoint shards are disjoint, so addition is
//     the exact fleet total.
//   - Histograms merge bucket-wise when the bucket layouts are identical
//     (the common case: all shards run the same binary, and the layout is
//     fixed at first registration). Counts, Count, and Sum all add.
//   - Gauges take the maximum. A gauge is a level, not a count; summing
//     levels from different processes is meaningless, and "last writer"
//     depends on argument order. Max is order-independent — merging in
//     any order, or merging merges (associativity), yields the same
//     snapshot — which the fleet view relies on when shard journals
//     are read in arbitrary order. For the one gauge a campaign exports
//     (campaign_ci_half_width) max is also the operationally useful
//     reading: the widest interval any shard still reports.
//
// Degenerate case: if two snapshots carry the same histogram name with
// different bucket layouts (only possible when shards run different
// binaries — already rejected upstream by the shard config hash), the
// merge keeps the first-seen layout and folds the other snapshot's total
// Count into its implicit +Inf bucket, preserving Count and Sum exactly
// at the cost of bucket resolution. This is the only order-sensitive
// corner of the merge. (Histogram sums are float64, so associativity is
// exact only up to floating-point rounding of Sum; every integer-valued
// field merges exactly.)

// MergeSnapshots deterministically aggregates snapshots into one:
// counters sum, identical-layout histograms merge bucket-wise, gauges
// take the max. Inputs are not mutated. Merging zero snapshots yields an
// empty Snapshot; maps are only allocated for metric kinds that appear.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	var out Snapshot
	for _, s := range snaps {
		for name, v := range s.Counters {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			if out.Gauges == nil {
				out.Gauges = make(map[string]float64)
			}
			if cur, ok := out.Gauges[name]; !ok || v > cur {
				out.Gauges[name] = v
			}
		}
		for name, h := range s.Histograms {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramSnapshot)
			}
			cur, ok := out.Histograms[name]
			if !ok {
				out.Histograms[name] = cloneHistogramSnapshot(h)
				continue
			}
			out.Histograms[name] = mergeHistogramSnapshots(cur, h)
		}
	}
	return out
}

// cloneHistogramSnapshot deep-copies h so the merge never aliases (and
// can never mutate) a caller's snapshot.
func cloneHistogramSnapshot(h HistogramSnapshot) HistogramSnapshot {
	return HistogramSnapshot{
		Bounds: append([]float64(nil), h.Bounds...),
		Counts: append([]int64(nil), h.Counts...),
		Count:  h.Count,
		Sum:    h.Sum,
	}
}

// mergeHistogramSnapshots folds b into a copy of a. a is assumed to be
// an owned copy (its slices may be written); b is never mutated.
func mergeHistogramSnapshots(a, b HistogramSnapshot) HistogramSnapshot {
	a.Count += b.Count
	a.Sum += b.Sum
	if sameBounds(a.Bounds, b.Bounds) && len(a.Counts) == len(b.Counts) {
		for i, c := range b.Counts {
			a.Counts[i] += c
		}
		return a
	}
	// Layout mismatch: keep a's layout, fold b's total into +Inf.
	if len(a.Counts) > 0 {
		a.Counts[len(a.Counts)-1] += b.Count
	}
	return a
}

// sameBounds reports whether two bound slices are element-wise equal.
func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
