// Package core is the characterization engine — the paper's primary
// contribution (Sections III and IV). It runs controlled error-injection
// campaigns over applications built on simulated memory, classifies every
// trial into the Fig. 1 outcome taxonomy, and aggregates crash
// probabilities (with 90% confidence intervals), incorrect-result rates
// per billion queries, and time-to-outcome distributions.
//
// Every trial runs one way (campaign.go): a session — an instance built,
// warmed up and snapshotted (apps.SnapshotBuilder) — is restored,
// injected, serves the post-warmup workload and is classified
// (Prepared.runTrial); supervisor.finished records the trial's metrics.
// The paper's literal restart-per-trial loop lives on the test side, as
// the reference the equivalence suites compare against.
//
// Prepare serves a build's workload fault-free exactly once, recording
// the golden digests and how the window first references each granule
// (decide.go); its instance seeds the session pool. Prepared.Run runs one
// campaign on the build, its workers taking pooled sessions or building
// their own, so every cell of a grid over one build shares the one pass;
// RunContext is Prepare plus one Run. A trial whose drawn address lies
// in a granule the window never references — or, for a soft error, first
// overwrites whole — is classified from that read-only record without
// injecting or serving; its TrialResult is the one the replay would have
// produced (DESIGN.md §9). The same record is the one the paper's figures
// read (Prepared.Profile), and Prepared.WithSession lends a pooled session
// reset to the start of the window to code that serves or samples the
// build outside a campaign. GoldenRun, the pass and every warm-up go
// through one serve loop, serveFaultFree.
//
// Campaign execution is a two-tier supervision hierarchy:
//
//   - The in-process trial supervisor (supervisor.go, driven by Run)
//     runs the campaign's plan segment by segment on a worker pool,
//     runs each trial once (a trial whose build, restore or injection
//     fails is aborted, and its worker rebuilds its session for the
//     next), checkpoints every finished trial to an append-only journal
//     (journal.go), and fills resumed trials from a prior journal
//     instead of re-running them. A runaway request needs no per-trial
//     watchdog: the application's per-request budget (apps.Budget)
//     ends it as a crash.
//     The fixed plan is one segment, every owned index; the adaptive
//     plan (planner.go) implements CI-targeted sequential stopping
//     (stats.SequentialStopping): its segments end at deterministic
//     boundaries, where the supervisor evaluates the Wilson half-width
//     on the crash probability over the complete prefix and stops at the
//     target. A resumed run re-derives every verdict from the journaled
//     trials, so the plan replays bit-identically.
//
//   - A campaign scales across processes as N shard workers, each
//     running one shard of the trial index space; a worker that dies is
//     run again with resume on its own journal (SHARDING.md). The shard
//     partitioning and merge primitives live here (shard.go): ShardSpec
//     splits [0, Trials) into contiguous ranges, and MergeShards folds
//     a directory's finished shard journals back into one record set.
//     A worker leaves one file, its journal: the header names the
//     campaign and the shard, and a trailer written when the run ends
//     marks the shard finished. LoadShardDir reads a directory's
//     journals for `status` and MergeShards alike, and
//     ShardJournal.Progress re-derives each shard's progress record
//     from its journal.
//
// Because trial i's generator derives only from (seed, i), every cut of
// the index space — parallel workers, interrupt/resume, shards across
// processes — reproduces the single-process result bit-identically; see
// SHARDING.md at the repository root for the operator-facing contract.
// Adaptive plans keep that determinism (stopping boundaries depend only
// on trial outcomes, never on arrival order) but need the whole index
// space, so they are rejected in worker-shard mode.
package core
