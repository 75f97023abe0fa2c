// Package hrmsim is a simulation framework reproducing "Characterizing
// Application Memory Error Vulnerability to Optimize Datacenter Cost via
// Heterogeneous-Reliability Memory" (Luo et al., DSN 2014).
//
// It provides, as a library:
//
//   - a controlled memory error injection methodology (soft and hard,
//     single- and multi-bit, and correlated device-structure faults) over
//     three data-intensive applications — an interactive web search index
//     server, a Memcached-style key–value store, and a GraphLab-style
//     graph-mining framework — rebuilt on a simulated memory subsystem so
//     that injected bit flips corrupt the real data structures the
//     applications traverse;
//
//   - the paper's outcome taxonomy (masked by overwrite, masked by logic,
//     incorrect response, crash) with campaign statistics: crash
//     probabilities with 90% confidence intervals, incorrect results per
//     billion queries, and time-to-effect distributions;
//
//   - the access-monitoring framework: safe-ratio measurement and
//     implicit/explicit data recoverability classification;
//
//   - executable ECC codecs (parity, SEC-DED(72,64), DEC-TED BCH,
//     chipkill-style and RAIM-style Reed–Solomon symbol codes, and
//     mirroring) plus software reliability responses (Par+R recovery from
//     persistent storage, page retirement, checkpointing, scrubbing);
//
//   - the heterogeneous-reliability design-space evaluator: cost,
//     availability, and reliability models reproducing the paper's
//     Table 6 and Fig. 8 analyses;
//
//   - an observability layer (internal/obsv): campaigns record trial,
//     outcome, and timing metrics into a registry of atomic counters,
//     gauges, and histograms, surfaced through the CharacterizeConfig
//     Progress hook, the hrmsim CLI's -json output (a versioned result
//     schema), and the kvserve HTTP metrics sidecar. OBSERVABILITY.md
//     documents every metric name and the JSON contract.
//
// The root package is the public API: plain-Go configuration structs and
// report types wrapping the internal machinery. Start with Characterize
// for injection campaigns, AccessProfile for safe-ratio/recoverability
// analysis, EvaluateTable6, Plan, and Tolerable for the design-space
// analytics, SimulateLifetime for continuous-operation availability
// simulation, and NewLab / Lab.Run to regenerate any of the paper's
// tables and figures (plus the extension experiments).
//
// Campaigns scale across processes: Characterize accepts shard
// coordinates (ShardIndex/ShardCount) that restrict a run to one
// deterministic slice of the trial sequence, and MergeShards folds a
// directory of shard journals back into a Characterization bit-identical
// to the single-process run. SHARDING.md documents the shard/merge
// contract and how to run, retry and follow the shard workers.
package hrmsim
